"""Acceptance gate: one test per shipped guarantee, runnable end to end.

Each test asserts the guarantee at its stated tolerance (exact equality
unless noted) and enforces the stated wall-clock budget.  `pytest -v`
therefore emits one pass/fail line per criterion.  Monte Carlo checks pin
their seeds so reruns are bit-identical.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import noncross.coxeter as cx
from helpers import bfs_reflection_length, fixed_space, pointwise_stabilizer
from noncross import (
    CrossingPartition,
    CumulantSequence,
    GinibreSpec,
    MomentSequence,
    NCPartition,
    abs_le,
    absolute_length,
    catalan,
    clt_even_moments,
    cumulants_to_moments,
    enumerate_nc,
    estimate_moments,
    free_bessel_moments,
    free_mult_convolve_kreweras,
    free_mult_convolve_stransform,
    free_poisson_moments,
    hurwitz_orbits,
    is_coxeter_element,
    is_parabolic_quasi_coxeter,
    is_quasi_coxeter,
    join_nc,
    kreweras,
    meet_nc,
    mobius_closed,
    mobius_nc,
    moments_to_cumulants,
    nc_set,
    order_complex_open_interval,
    rank,
    reduced_euler_characteristic,
    refine_le,
    rotate,
    semicircle_moments,
)

SEED = 20260814


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{criterion}: {elapsed:.1f}s exceeded {seconds}s budget"
    print(f"PASS {criterion} in {elapsed:.2f}s")


def bottom(m: int) -> NCPartition:
    return NCPartition.parse("|".join(str(i) for i in range(1, m + 1)))


def top(m: int) -> NCPartition:
    return NCPartition.parse(" ".join(str(i) for i in range(1, m + 1)))


def test_c01_enumeration_counts_are_catalan_for_m_1_to_12():
    with budget("c01 Catalan counts", 60):
        for m in range(1, 13):
            assert sum(1 for _ in enumerate_nc(m)) == catalan(m), m


def test_c02_eight_point_complement_figure_is_reproduced():
    p = NCPartition.parse("1|2 6 7|3 5|4|8")
    expected = NCPartition.parse("1 7 8|2 5|3 4|6")
    reps = 1000
    start = time.perf_counter()
    for _ in range(reps):
        result = kreweras(p)
    per_call = (time.perf_counter() - start) / reps
    assert result == expected
    assert per_call < 1e-3, f"complement took {per_call * 1e3:.3f} ms"
    print(f"PASS c02 eight-point complement in {per_call * 1e6:.0f} us/call")


def test_c03_full_interval_mobius_matches_signed_catalan_both_routes():
    with budget("c03 Mobius routes m=2..9", 300):
        for m in range(2, 10):
            expected = (-1) ** (m - 1) * catalan(m - 1)
            assert mobius_nc(bottom(m), top(m)) == expected, m
            assert mobius_closed(bottom(m), top(m)) == expected, m


def test_c04_join_counterexample_and_semimodularity_failure():
    p = NCPartition.parse("1 3|2|4")
    q = NCPartition.parse("1|2 4|3")

    # The set-partition join (transitive closure of the union) crosses.
    parent = list(range(5))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for part in (p, q):
        for block in part.blocks:
            anchor = find(block[0])
            for i in block[1:]:
                parent[find(i)] = anchor
    classes = {}
    for i in range(1, 5):
        classes.setdefault(find(i), []).append(i)
    settheoretic = sorted(sorted(b) for b in classes.values())
    assert settheoretic == [[1, 3], [2, 4]]
    with pytest.raises(CrossingPartition):
        NCPartition.parse("1 3|2 4")

    # The non-crossing join must climb past it, all the way to the top.
    joined = join_nc(p, q)
    assert joined == top(4)

    # Upper semimodularity fails: rk(p v q) + rk(p ^ q) > rk(p) + rk(q).
    met = meet_nc(p, q)
    assert rank(joined) + rank(met) > rank(p) + rank(q)
    print("PASS c04 join counterexample")


def test_c05_complement_duality_laws_hold_exhaustively_to_m_6():
    with budget("c05 duality laws m<=6", 300):
        for m in range(1, 7):
            elems = list(enumerate_nc(m))
            comp = {p: kreweras(p) for p in elems}
            for p in elems:
                assert rank(p) + rank(comp[p]) == m - 1
                assert comp[comp[p]] == rotate(p, -1)
                for q in elems:
                    assert comp[meet_nc(p, q)] == join_nc(comp[p], comp[q])
                    assert comp[join_nc(p, q)] == meet_nc(comp[p], comp[q])
            # The squared complement is rotation by -1, so its m-th power
            # is the identity; the order is exactly m once rotation acts
            # nontrivially (every partition of <= 2 points is
            # rotation-invariant).
            order = 1
            current = {p: comp[comp[p]] for p in elems}
            while any(current[p] != p for p in elems):
                current = {p: comp[comp[current[p]]] for p in elems}
                order += 1
            assert m % order == 0, m
            assert order == (m if m >= 3 else 1), m


def test_c06_moment_cumulant_round_trip_is_exact_to_order_10():
    with budget("c06 round trip order 10", 300):
        rng = random.Random(SEED)
        for _ in range(3):
            moments = MomentSequence(
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(10))
            )
            kappa = moments_to_cumulants(moments)
            assert cumulants_to_moments(kappa).values == moments.values

        # Named laws pin the transform pair down.
        sc = moments_to_cumulants(semicircle_moments(10))
        assert sc.values == (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
        fp = moments_to_cumulants(free_poisson_moments(10))
        assert fp.values == (1,) * 10
        assert free_poisson_moments(10).values == tuple(
            catalan(n) for n in range(1, 11)
        )


def test_c07_multiplicative_convolution_routes_agree_on_20_rational_pairs():
    with budget("c07 route equality x20", 300):
        rng = random.Random(SEED)

        def random_moments() -> MomentSequence:
            first = Fraction(rng.choice([n for n in range(-6, 7) if n]), rng.randint(1, 4))
            rest = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)
            )
            return MomentSequence((first,) + rest)

        for trial in range(20):
            a, b = random_moments(), random_moments()
            via_lattice = free_mult_convolve_kreweras(a, b)
            via_transform = free_mult_convolve_stransform(a, b)
            assert via_lattice.values == via_transform.values, trial


def test_c08_central_limit_moments_converge_at_rate_one_over_n():
    with budget("c08 CLT scaled deviations N=16..4096", 300):
        kappa = CumulantSequence((Fraction(0),) + (Fraction(1),) * 7)
        bounds: dict[int, Fraction] = {}
        for n_summands in range(16, 4097):
            evens = clt_even_moments(kappa, n_summands)
            for k, m2k in enumerate(evens, start=1):
                assert isinstance(m2k, Fraction)
                scaled = abs(m2k - catalan(k)) * n_summands
                if n_summands == 16:
                    bounds[k] = scaled
                else:
                    assert scaled <= bounds[k], (k, n_summands)


def test_c09_order_complex_euler_characteristic_equals_mobius_everywhere():
    with budget("c09 Euler = Mobius m<=6", 120):
        for m in range(2, 7):
            elems = list(enumerate_nc(m))
            for p in elems:
                for q in elems:
                    if p != q and refine_le(p, q):
                        complex_ = order_complex_open_interval(p, q)
                        assert reduced_euler_characteristic(complex_) == mobius_nc(p, q)


@pytest.mark.parametrize(
    "family,rk,expected",
    [("A", 3, 14), ("B", 3, 20), ("D", 4, 50)],
    ids=["A3", "B3", "D4"],
)
def test_c10_noncrossing_element_counts_match_brute_force(family, rk, expected):
    with budget(f"c10 NC count {family}{rk}", 60):
        ctx = cx.CoxeterContext(family, rk)
        dist = bfs_reflection_length(ctx)
        assert set(dist) == set(ctx.elements)
        c = ctx.coxeter_element
        brute = sum(
            1
            for w in ctx.elements
            if dist[w] + dist[cx.mul(cx.inv(w), c)] == dist[c]
        )
        assert brute == expected
        assert len(nc_set(ctx)) == expected
        if family == "A":
            assert expected == catalan(rk + 1)


def test_c11_hurwitz_orbit_structure_across_d4():
    with budget("c11 Hurwitz transitivity + D4 scan", 600):
        for family, rk in [("A", 3), ("B", 3), ("D", 4)]:
            ctx = cx.CoxeterContext(family, rk)
            assert len(hurwitz_orbits(ctx, ctx.coxeter_element)) == 1

        ctx = cx.CoxeterContext("D", 4)
        proper = (-4, -3, 2, 1)
        assert is_quasi_coxeter(ctx, proper) and not is_coxeter_element(ctx, proper)
        assert len(hurwitz_orbits(ctx, proper)) == 1

        minus_id = (-1, -2, -3, -4)
        assert not is_parabolic_quasi_coxeter(ctx, minus_id)
        assert len(hurwitz_orbits(ctx, minus_id)) >= 2

        # Full scan: a single orbit is exactly the parabolic quasi-Coxeter
        # property.
        for w in ctx.elements:
            single = len(hurwitz_orbits(ctx, w)) == 1
            assert single == is_parabolic_quasi_coxeter(ctx, w), w


def test_c12_factorizations_stay_inside_the_parabolic_closure():
    # Every reflection in every shortest factorization of w fixes Fix(w)
    # pointwise, i.e. lies in the parabolic closure of w.  (The closure can
    # be strictly larger than the subgroup generated by a single
    # factorization; see test_coxeter.py for the frozen counterexample.)
    with budget("c12 parabolic confinement x100", 300):
        rng = random.Random(SEED)
        samples = []
        for family, rk in [("B", 3), ("D", 4)]:
            ctx = cx.CoxeterContext(family, rk)
            pool = sorted(ctx.elements)
            samples += [(ctx, rng.choice(pool)) for _ in range(50)]
        assert len(samples) == 100
        for ctx, w in samples:
            closure = pointwise_stabilizer(ctx, fixed_space(ctx, w))
            factorizations = cx.red_t_factorizations(ctx, w)
            assert factorizations
            for fact in factorizations:
                assert all(t in closure for t in fact.factors)
            if is_parabolic_quasi_coxeter(ctx, w):
                generated = cx.generated_subgroup(
                    ctx, list(factorizations[0].factors)
                )
                assert generated == closure


def test_c13_monte_carlo_moments_hit_their_exact_targets():
    with budget("c13 Ginibre Monte Carlo", 300):
        est = estimate_moments(
            GinibreSpec(kind="product", n=256, ell=1, trials=50, seed=SEED), 4, threads=4
        )
        for k, e in enumerate(est, start=1):
            assert e.target == catalan(k)
            assert abs(e.z_score) <= 4, (1, k, e.z_score)

        targets = free_bessel_moments(2, 4)
        for kind in ("product", "power"):
            est = estimate_moments(
                GinibreSpec(kind=kind, n=192, ell=2, trials=40, seed=SEED), 4, threads=4
            )
            for k, e in enumerate(est, start=1):
                assert e.target == targets.values[k - 1]
                assert abs(e.z_score) <= 4, (kind, k, e.z_score)


def test_c14_refinement_order_is_absolute_order_under_the_cycle_map():
    with budget("c14 poset isomorphism m<=6", 60):
        for m in range(2, 7):
            ctx = cx.CoxeterContext("A", m - 1)
            elems = list(enumerate_nc(m))
            image = {p: cx.partition_to_permutation(p) for p in elems}
            assert set(image.values()) == set(nc_set(ctx))
            lengths = {p: absolute_length(ctx, w) for p, w in image.items()}
            for p in elems:
                sp = image[p]
                for q in elems:
                    sq = image[q]
                    below = refine_le(p, q)
                    assert below == abs_le(ctx, sp, sq), (p, q)
                    if below:
                        gap = lengths[q] - lengths[p]
                        assert absolute_length(ctx, cx.mul(cx.inv(sp), sq)) == gap
                        assert absolute_length(ctx, cx.mul(sq, cx.inv(sp))) == gap
