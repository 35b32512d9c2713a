"""The two series kernels, the power table ``_power_columns`` and the
compositional inverse ``_inverse_coeffs``, checked against the series
product, composition, triangular solve and Lagrange inversion in
``helpers``; and the fraction parsing helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    compose,
    lagrange_inverse_coefficient,
    random_fractions,
    reciprocal,
    series_product,
    triangular_inverse,
)
from noncross.errors import FormatError
from noncross.partitions import catalan
from noncross.series import _inverse_coeffs, _power_columns, parse_fraction, parse_rationals

small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def series_strategy(order: int):
    """f = c_1 z + ... + c_order z^order with c_1 != 0, as (0, c_1, ...)."""
    return st.tuples(
        st.just(Fraction(0)), small_fraction.filter(bool), *[small_fraction for _ in range(order - 1)]
    )


def inverse(f) -> tuple[Fraction, ...]:
    """(0, h_1, ..., h_N) from the kernel, for f = (0, c_1, ..., c_N)."""
    return (Fraction(0), *_inverse_coeffs(f[1:], len(f) - 1))


def test_parse_and_format_fractions():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-7") == Fraction(-7)
    assert parse_rationals("1, -2/3 ,4") == (Fraction(1), Fraction(-2, 3), Fraction(4))
    assert parse_fraction("0.5") == Fraction(1, 2)
    for bad in ("", "1/0", "a/b", "1e5", "2.5E-3", "1e10000000"):
        with pytest.raises(FormatError):
            parse_fraction(bad)
    for bad in ("", "1,,2", "1,2,", "1/0,3"):
        with pytest.raises(FormatError):
            parse_rationals(bad)


def test_multiplication_truncates_like_cauchy_product():
    f = (1, 1, 1, 1)  # 1/(1-z) up to z^3
    g = (1, -1, 0, 0)  # 1 - z
    assert series_product(f, g) == (1, 0, 0, 0)


def test_reciprocal_of_geometric_series():
    assert reciprocal((1, 1, 1, 1, 1)) == (1, -1, 0, 0, 0)


def test_compose_requires_vanishing_constant_term():
    with pytest.raises(FormatError):
        compose((1, 1, 1), (1, 0, 0))


def test_catalan_generating_function_from_inverse():
    # the inverse of z/(1+z)^2 is the Catalan generating function minus 1
    order = 9
    one_plus = (1, 1) + (0,) * (order - 2)
    f = reciprocal(series_product(one_plus, one_plus))  # c_k = [z^(k-1)] 1/(1+z)^2
    assert tuple(_inverse_coeffs(f, order)) == tuple(catalan(n) for n in range(1, order + 1))


@settings(max_examples=80, deadline=None)
@given(series_strategy(6))
def test_compositional_inverse_roundtrip(f):
    g = inverse(f)
    ident = (0, 1, 0, 0, 0, 0, 0)
    assert compose(f, g) == ident
    assert compose(g, f) == ident


def test_lagrange_inversion_agrees_with_triangular_solve():
    rng = random.Random(7)
    for _ in range(25):
        f = (Fraction(0), *random_fractions(rng, 6, first_nonzero=True))
        g = inverse(f)
        assert g == triangular_inverse(f)
        for n in range(1, 7):
            assert lagrange_inverse_coefficient(f, n) == g[n]
    f = (Fraction(0), *random_fractions(rng, 14, first_nonzero=True))
    assert inverse(f) == triangular_inverse(f)


@settings(max_examples=50, deadline=None)
@given(st.lists(small_fraction, min_size=1, max_size=8))
def test_power_columns_hold_the_coefficients_of_the_powers(values):
    y = [Fraction(0), *values]
    columns = list(_power_columns(y))
    assert len(columns) == len(values)
    powers = [tuple(y)]  # powers[j - 1] = y^j
    for _ in range(len(values) - 1):
        powers.append(series_product(powers[-1], y))
    for k, column in enumerate(columns, start=1):
        assert column == [powers[j - 1][k] for j in range(2, k + 1)]


def test_inverse_reads_each_coefficient_only_when_it_solves_it():
    rng = random.Random(5)
    given_values = random_fractions(rng, 8, first_nonzero=True)
    read = []

    def counted():
        for c in given_values:
            read.append(c)
            yield c

    solve = _inverse_coeffs(counted(), len(given_values))
    for k in range(1, len(given_values) + 1):
        next(solve)
        assert len(read) == k
