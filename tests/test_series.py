"""Truncated rational power series: ring laws, reciprocal, composition,
compositional inverse (checked against the triangular solve and Lagrange
inversion in ``helpers``), and the fraction parsing helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    compose,
    lagrange_inverse_coefficient,
    random_fractions,
    shift_up,
    triangular_inverse,
)
from noncross.errors import FormatError, OrderMismatch, VanishingFirstMoment
from noncross.partitions import catalan
from noncross.series import (
    RationalSeries,
    parse_fraction,
    parse_rationals,
)

small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def series_strategy(order: int, first_zero: bool = False):
    head = st.just(Fraction(0)) if first_zero else small_fraction
    return st.tuples(
        head, *[small_fraction for _ in range(order)]
    ).map(lambda t: RationalSeries.of(t))


def test_parse_and_format_fractions():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-7") == Fraction(-7)
    assert str(RationalSeries.of([Fraction(10, 4), Fraction(-3, 1)])) == "[5/2, -3]"
    assert parse_rationals("1, -2/3 ,4") == (Fraction(1), Fraction(-2, 3), Fraction(4))
    for bad in ("", "1/0", "a/b"):
        with pytest.raises(FormatError):
            parse_fraction(bad)
    for bad in ("", "1,,2", "1,2,", "1/0,3"):
        with pytest.raises(FormatError):
            parse_rationals(bad)


def test_constructors_and_indexing():
    f = RationalSeries.of([1, 2, 3])
    assert f.order == 2
    assert f[0] == 1 and f[2] == 3
    assert RationalSeries.identity(3).coeffs == (0, 1, 0, 0)
    assert RationalSeries.constant(5, 2).coeffs == (5, 0, 0)
    assert str(RationalSeries.of([Fraction(1, 2), 0, -1])) == "[1/2, 0, -1]"


def test_order_mismatch_is_rejected():
    with pytest.raises(OrderMismatch):
        RationalSeries.of([1, 2]) + RationalSeries.of([1, 2, 3])


def test_multiplication_truncates_like_cauchy_product():
    f = RationalSeries.of([1, 1, 1, 1])  # 1/(1-z) up to z^3
    g = RationalSeries.of([1, -1, 0, 0])  # 1 - z
    assert (f * g).coeffs == (1, 0, 0, 0)


def test_shift_by_z_semantics():
    # division by z drops the order; multiplication keeps it, losing the top
    f = RationalSeries.of([0, 3, 5])
    assert f.shift_down().coeffs == (3, 5)
    assert shift_up(f).coeffs == (0, 0, 3)
    assert shift_up(f.shift_down()).coeffs == (0, 3)
    with pytest.raises(FormatError):
        RationalSeries.of([1, 2]).shift_down()


def test_reciprocal_of_geometric_series():
    f = RationalSeries.of([1, 1, 1, 1, 1])
    assert f.reciprocal().coeffs == (1, -1, 0, 0, 0)
    with pytest.raises(VanishingFirstMoment):
        RationalSeries.of([0, 1]).reciprocal()


def test_compose_requires_vanishing_constant_term():
    f = RationalSeries.of([1, 1, 1])
    with pytest.raises(FormatError):
        compose(f, RationalSeries.of([1, 0, 0]))


def test_catalan_generating_function_from_inverse():
    # the inverse of z/(1+z)^2 is the Catalan generating function minus 1
    order = 9
    one_plus = RationalSeries.of([1, 1] + [0] * (order - 1))
    f = shift_up((one_plus * one_plus).reciprocal())
    h = f.compositional_inverse()
    assert h.coeffs[1:] == tuple(catalan(n) for n in range(1, order + 1))


@settings(max_examples=100, deadline=None)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_ring_laws(f, g, h):
    assert (f + g).coeffs == (g + f).coeffs
    assert ((f + g) + h).coeffs == (f + (g + h)).coeffs
    assert (f * g).coeffs == (g * f).coeffs
    assert ((f * g) * h).coeffs == (f * (g * h)).coeffs
    assert (f * (g + h)).coeffs == (f * g + f * h).coeffs
    assert (f - f).coeffs == (0,) * 6


@settings(max_examples=100, deadline=None)
@given(series_strategy(6))
def test_reciprocal_is_a_two_sided_inverse(f):
    if f[0] == 0:
        with pytest.raises(VanishingFirstMoment):
            f.reciprocal()
        return
    assert (f * f.reciprocal()).coeffs == (1,) + (0,) * 6


@settings(max_examples=80, deadline=None)
@given(series_strategy(6, first_zero=True))
def test_compositional_inverse_roundtrip(f):
    if f[1] == 0:
        with pytest.raises(VanishingFirstMoment):
            f.compositional_inverse()
        return
    g = f.compositional_inverse()
    ident = RationalSeries.identity(6).coeffs
    assert compose(f, g).coeffs == ident
    assert compose(g, f).coeffs == ident


def test_lagrange_inversion_agrees_with_triangular_solve():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [Fraction(0)] + random_fractions(rng, 6, first_nonzero=True)
        f = RationalSeries.of(coeffs)
        g = f.compositional_inverse()
        assert g.coeffs == triangular_inverse(f).coeffs
        for n in range(1, 7):
            assert lagrange_inverse_coefficient(f, n) == g[n]
    f = RationalSeries.of([0] + random_fractions(rng, 14, first_nonzero=True))
    assert f.compositional_inverse().coeffs == triangular_inverse(f).coeffs
