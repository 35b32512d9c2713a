"""Moment/cumulant calculus over the rationals.

Oracles: a literal sum over enumerated non-crossing partitions for the
moment formula, the lattice routes in ``helpers`` (profile sums, Mobius
values, the whole/half split of the CLT moments), the defining R- and
S-transform formulas, series inversion for the free Bessel laws, the direct
pair-partition count for semicircle moments, and S-transform
multiplicativity for the product laws."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bessel_by_inversion,
    functional_r_transform,
    lattice_clt_even_moments,
    lattice_free_mult,
    lattice_clt_moments,
    lattice_moments,
    mobius_cumulants,
    nc_all,
    nc_pair_count,
    random_fractions,
    s_transform_via_r,
    triangular_cumulants,
)
from noncross import freeprob as F
from noncross.errors import (
    FormatError,
    IrrationalResult,
    OrderMismatch,
    ResourceCapExceeded,
    VanishingFirstMoment,
)
from noncross.freeprob import CumulantSequence, MomentSequence
from noncross.caps import SERIES_ORDER_CAP
from noncross.partitions import catalan

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def literal_moment(kappa: CumulantSequence, n: int) -> Fraction:
    """m_n as the raw sum over NC(n), one partition at a time."""
    total = Fraction(0)
    for p in nc_all(n):
        term = Fraction(1)
        for block in p.blocks:
            term *= kappa.cumulant(len(block))
        total += term
    return total


def test_sequence_parsing_and_access():
    m = MomentSequence.parse("1, 2, 5,14")
    assert m.order == 4
    assert m.moment(3) == 5
    assert list(m) == [1, 2, 5, 14]
    assert str(m) == "1, 2, 5, 14"
    with pytest.raises(OrderMismatch):
        m.moment(5)
    with pytest.raises(OrderMismatch):
        m.moment(0)
    with pytest.raises(FormatError):
        MomentSequence.parse("")
    for cls in (MomentSequence, CumulantSequence):
        with pytest.raises(FormatError):
            cls.of([])


@pytest.mark.parametrize("n", range(1, 8))
def test_moment_formula_matches_literal_partition_sum(n):
    rng = random.Random(n)
    kappa = CumulantSequence.of(random_fractions(rng, 7))
    moments = F.cumulants_to_moments(kappa)
    assert moments.moment(n) == literal_moment(kappa, n)


def test_transforms_are_mutually_inverse_on_random_sequences():
    rng = random.Random(99)
    for _ in range(15):
        values = random_fractions(rng, 8)
        m = MomentSequence.of(values)
        k = CumulantSequence.of(values)
        assert F.cumulants_to_moments(F.moments_to_cumulants(m)).values == m.values
        assert F.moments_to_cumulants(F.cumulants_to_moments(k)).values == k.values


def test_semicircle_moments_and_cumulants():
    m = F.semicircle_moments(10)
    assert list(m) == [0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
    assert [nc_pair_count(n) for n in range(1, 11)] == list(m)
    kappa = F.moments_to_cumulants(m)
    assert list(kappa) == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_free_poisson_is_catalan_with_unit_cumulants():
    m = F.free_poisson_moments(8)
    assert list(m) == [catalan(n) for n in range(1, 9)]
    assert set(F.moments_to_cumulants(m)) == {1}


@pytest.mark.parametrize("ell", range(0, 4))
def test_free_bessel_matches_binomial_closed_form(ell):
    m = F.free_bessel_moments(ell, 7)
    expected = [comb((ell + 1) * n, n - 1) // n for n in range(1, 8)]
    assert list(m) == expected


@pytest.mark.parametrize("ell", range(0, 4))
def test_free_bessel_closed_form_matches_series_inversion(ell):
    assert F.free_bessel_moments(ell, 30).values == bessel_by_inversion(ell, 30)


def test_free_bessel_degenerate_and_poisson_cases():
    assert list(F.free_bessel_moments(0, 6)) == [1] * 6
    assert F.free_bessel_moments(1, 8).values == F.free_poisson_moments(8).values


def test_free_additive_convolution_adds_cumulants():
    rng = random.Random(5)
    a = MomentSequence.of(random_fractions(rng, 7))
    b = MomentSequence.of(random_fractions(rng, 7))
    s = F.free_add_convolve(a, b)
    ka, kb, ks = (F.moments_to_cumulants(x) for x in (a, b, s))
    assert [x + y for x, y in zip(ka, kb)] == list(ks)


def test_two_free_semicircles_add_to_a_wider_semicircle():
    s = F.semicircle_moments(8)
    total = F.free_add_convolve(s, s)
    assert list(total) == [0, 2, 0, 8, 0, 40, 0, 224]
    assert [2**k * catalan(k) for k in range(1, 5)] == [2, 8, 40, 224]


def test_squared_semicircle_is_free_poisson():
    # even moments of the standard semicircle are the moments of its square
    s = F.semicircle_moments(12)
    squares = [s.moment(2 * k) for k in range(1, 7)]
    assert squares == list(F.free_poisson_moments(6))


def test_product_routes_agree_and_commute():
    rng = random.Random(11)
    for _ in range(10):
        a = MomentSequence.of(random_fractions(rng, 6, first_nonzero=True))
        b = MomentSequence.of(random_fractions(rng, 6, first_nonzero=True))
        via_complement = F.free_mult_convolve_kreweras(a, b)
        via_s = F.free_mult_convolve_stransform(a, b)
        assert via_complement.values == via_s.values
        flipped = F.free_mult_convolve_kreweras(b, a)
        assert via_complement.values == flipped.values


def test_product_of_free_bessel_laws_adds_the_parameter():
    a = F.free_bessel_moments(1, 7)
    b = F.free_bessel_moments(2, 7)
    prod = F.free_mult_convolve_kreweras(a, b)
    assert prod.values == F.free_bessel_moments(3, 7).values
    prod_s = F.free_mult_convolve_stransform(a, a)
    assert prod_s.values == F.free_bessel_moments(2, 7).values


def test_r_transform_lists_the_cumulants():
    # R(z) = z^2 for the standard semicircle
    assert functional_r_transform(F.semicircle_moments(6)) == (0, 0, 1, 0, 0, 0, 0)
    rng = random.Random(3)
    m = MomentSequence.of(random_fractions(rng, 6))
    assert functional_r_transform(m) == (0, *F.moments_to_cumulants(m).values)


def test_s_transform_of_free_poisson_is_geometric():
    s = tuple(F._iter_s(F.free_poisson_moments(7)))
    assert s == (1, -1, 1, -1, 1, -1, 1)


def test_s_transform_formulas_agree():
    rng = random.Random(13)
    for _ in range(10):
        m = MomentSequence.of(random_fractions(rng, 7, first_nonzero=True))
        assert tuple(F._iter_s(m)) == s_transform_via_r(m)


def test_s_transform_needs_a_nonzero_mean():
    s, p = F.semicircle_moments(6), F.free_poisson_moments(6)
    for a, b in ((s, p), (p, s)):
        with pytest.raises(VanishingFirstMoment):
            F.free_mult_convolve_stransform(a, b)


def test_clt_fixed_point_is_the_semicircle():
    base = F.moments_to_cumulants(F.semicircle_moments(8))
    for n in (2, 3, 10, 37):
        assert F.clt_moments(base, n).values == F.semicircle_moments(8).values


def test_clt_moments_on_a_perfect_square_match_scaled_cumulants():
    base = CumulantSequence.of([1, 1, 1, 1, 1, 1])
    root = 3  # n = 9, so n^(1 - j/2) = root^(2 - j) exactly
    scaled = CumulantSequence.of([Fraction(root) ** (2 - j) for j in range(1, 7)])
    assert F.clt_moments(base, 9).values == F.cumulants_to_moments(scaled).values


def test_clt_rejects_surviving_square_roots():
    base = CumulantSequence.of([0, 1, 1])
    with pytest.raises(IrrationalResult):
        F.clt_moments(base, 2)
    assert F.clt_moments(base, 4).values[2] == Fraction(1, 2)


def test_clt_even_moments_are_rational_for_any_summand_count():
    base = CumulantSequence.of([0, 1, 1, 1, 1, 1, 1, 1])
    for n in (2, 3, 5, 12):
        evens = F.clt_even_moments(base, n)
        assert evens[0] == 1
        assert evens[1] == 2 + Fraction(1, n)
    with pytest.raises(FormatError):
        F.clt_even_moments(base, 0)


def test_pair_count_vanishes_at_odd_orders():
    assert [nc_pair_count(n) for n in range(0, 7)] == [1, 0, 1, 0, 2, 0, 5]
    with pytest.raises(FormatError):
        nc_pair_count(-1)


@pytest.mark.parametrize("order", range(1, 11))
def test_kreweras_closed_form_matches_the_enumerated_pair_sum(order):
    rng = random.Random(order)
    for zero_first in ((), (0,), (1,), (0, 1)):
        pair = [random_fractions(rng, order), random_fractions(rng, order)]
        for side in zero_first:
            pair[side][0] = Fraction(0)
        a, b = (MomentSequence.of(v) for v in pair)
        assert F.free_mult_convolve_kreweras(a, b).values == lattice_free_mult(*pair), zero_first


def test_series_order_is_capped():
    over = [1] * (SERIES_ORDER_CAP + 1)
    for call in (
        lambda: F.moments_to_cumulants(MomentSequence.of(over)),
        lambda: F.cumulants_to_moments(CumulantSequence.of(over)),
        lambda: F.free_mult_convolve_stransform(MomentSequence.of(over), MomentSequence.of(over)),
        lambda: F.free_mult_convolve_kreweras(MomentSequence.of(over), MomentSequence.of(over)),
        lambda: F.clt_even_moments(CumulantSequence.of(over), 3),
        lambda: F.semicircle_moments(SERIES_ORDER_CAP + 1),
        lambda: F.free_bessel_moments(2, SERIES_ORDER_CAP + 1),
    ):
        with pytest.raises(ResourceCapExceeded):
            call()
    at_cap = F.free_bessel_moments(1, SERIES_ORDER_CAP)
    assert F.moments_to_cumulants(at_cap).values == (1,) * SERIES_ORDER_CAP


def test_law_order_must_be_positive():
    for order in (0, -2):
        with pytest.raises(FormatError):
            F.free_bessel_moments(2, order)
        with pytest.raises(FormatError):
            F.semicircle_moments(order)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_fraction, min_size=1, max_size=8),
    st.integers(1, 30) | st.integers(1, 6).map(lambda r: r * r),
)
def test_transforms_match_the_lattice_oracles(values, n_summands):
    m = MomentSequence.of(values)
    kappa = CumulantSequence.of(values)
    assert F.moments_to_cumulants(m).values == mobius_cumulants(values) == triangular_cumulants(values)
    assert F.cumulants_to_moments(kappa).values == lattice_moments(values)
    assert F.clt_even_moments(kappa, n_summands) == lattice_clt_even_moments(values, n_summands)
    expected = lattice_clt_moments(values, n_summands)
    if expected is None:
        with pytest.raises(IrrationalResult):
            F.clt_moments(kappa, n_summands)
    else:
        assert F.clt_moments(kappa, n_summands).values == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(small_fraction, min_size=1, max_size=8))
def test_transform_roundtrip_property(values):
    m = MomentSequence.of(values)
    assert F.cumulants_to_moments(F.moments_to_cumulants(m)).values == m.values


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_fraction, min_size=1, max_size=6),
    st.lists(small_fraction, min_size=1, max_size=6),
)
def test_free_addition_is_commutative(a_vals, b_vals):
    order = min(len(a_vals), len(b_vals))
    a = MomentSequence.of(a_vals[:order])
    b = MomentSequence.of(b_vals[:order])
    assert F.free_add_convolve(a, b).values == F.free_add_convolve(b, a).values
