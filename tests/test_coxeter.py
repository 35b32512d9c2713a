"""Reflection groups of types A/B/D as signed windows.

Oracles: the reflection formula r(v) = v - 2 (v, a)/(a, a) a ties every
window to the root read off its letters; absolute length is checked against
the codimension of the fixed space and against breadth-first distances in the
reflection Cayley graph; NC(W, c) against a scan of the whole group; the
quasi-Coxeter and parabolic quasi-Coxeter tests against their definitions
(the subgroup a reduced factorization generates); group orders, reflection
counts and the non-crossing counts come from closed formulas; the type A face
is compared element by element with the partition lattice."""

import random
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest

from helpers import (
    apply_to_vector,
    bfs_reflection_length,
    closure_is_generated,
    conjugacy_class,
    fixed_space,
    generates_the_group,
    nc_all,
    nc_scan,
    pointwise_stabilizer,
    root_of,
)
from noncross import coxeter as C
from noncross.errors import (
    FormatError,
    NotBelowCoxeterElement,
    ResourceCapExceeded,
)
from noncross.partitions import kreweras, rank, refine_le


@cache
def ctx(family: str, rk: int) -> C.CoxeterContext:
    return C.CoxeterContext(family, rk)


ALL_SMALL = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 3), ("D", 4)]
# Every element of these groups is checked against a whole-group oracle.
ORACLE_SIZES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4), ("D", 2), ("D", 3), ("D", 4)]


def dot(u, v) -> Fraction:
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def reflect(v, alpha):
    coef = 2 * dot(v, alpha) / dot(alpha, alpha)
    return [Fraction(x) - coef * Fraction(a) for x, a in zip(v, alpha)]


# ---------------------------------------------------------------------------
# Construction and the window representation.


def test_window_multiplication_applies_right_factor_first():
    u = (2, 1, 3)  # swap 1,2
    v = (1, 3, 2)  # swap 2,3
    # (u o v)(1) = u(v(1)) = u(1) = 2; (u o v)(2) = u(3) = 3; (u o v)(3) = 1
    assert C.mul(u, v) == (2, 3, 1)
    assert C.mul(v, u) == (3, 1, 2)
    assert C.mul(u, C.inv(u)) == C.identity(3)


def test_windows_act_on_vectors_with_signs():
    w = (-2, 1)  # 1 -> -2, 2 -> 1 in type B_2
    v = [Fraction(5), Fraction(7)]
    out = apply_to_vector(w, v)
    # coordinates move contravariantly: new coordinate at |w(i)| picks up v_i
    assert out == [Fraction(7), Fraction(-5)]


@pytest.mark.parametrize(
    "family,rk,group_order,n_reflections",
    [
        ("A", 2, 6, 3),
        ("A", 3, 24, 6),
        ("A", 4, 120, 10),
        ("B", 2, 8, 4),
        ("B", 3, 48, 9),
        ("B", 4, 384, 16),
        ("D", 3, 24, 6),
        ("D", 4, 192, 12),
    ],
)
def test_group_and_reflection_counts(family, rk, group_order, n_reflections):
    context = ctx(family, rk)
    assert context.order == group_order
    assert len(context.reflections) == n_reflections
    letters = rk + 1 if family == "A" else rk
    expected_t = {
        "A": comb(letters, 2),
        "B": letters * letters,
        "D": letters * letters - letters,
    }[family]
    assert n_reflections == expected_t
    assert group_order == {
        "A": factorial(letters),
        "B": 2**letters * factorial(letters),
        "D": 2 ** (letters - 1) * factorial(letters),
    }[family]


@pytest.mark.parametrize("family,rk", ALL_SMALL)
def test_every_reflection_acts_by_its_root(family, rk):
    context = ctx(family, rk)
    n = context.n
    basis = [[Fraction(i == j) for i in range(n)] for j in range(n)]
    for t in context.reflections:
        alpha = root_of(t)
        for e in basis:
            assert apply_to_vector(t, e) == reflect(e, alpha)
        assert C.mul(t, t) == C.identity(n)


@pytest.mark.parametrize("family,rk", ALL_SMALL)
def test_reflection_names_roundtrip(family, rk):
    context = ctx(family, rk)
    for t in context.reflections:
        name = context.reflection_name(t)
        assert context.reflection_by_name(name) == t
    with pytest.raises(FormatError):
        context.reflection_by_name("t(99,100,+)")


def test_context_rejects_bad_input():
    with pytest.raises(FormatError):
        C.CoxeterContext("C", 3)
    with pytest.raises(FormatError):
        C.CoxeterContext("A", 0)
    with pytest.raises(ResourceCapExceeded):
        C.CoxeterContext("A", 8)
    with pytest.raises(ResourceCapExceeded):
        C.CoxeterContext("B", 4, rank_cap=3)


def test_check_element_rejects_foreign_windows():
    a3 = ctx("A", 3)
    with pytest.raises(FormatError):
        a3.check_element((1, 2, 3))  # wrong number of letters
    with pytest.raises(FormatError):
        a3.check_element((1, 1, 2, 3))  # not a permutation
    with pytest.raises(FormatError):
        a3.check_element((-1, 2, 3, 4))  # type A has no signs
    with pytest.raises(FormatError):
        a3.check_element((0, 1, 2, 3))  # no letter 0
    with pytest.raises(FormatError):
        a3.check_element((1, 2, 3, 5))  # letter n + 1
    with pytest.raises(FormatError):
        a3.check_element(())  # empty window
    with pytest.raises(FormatError):
        ctx("B", 4).check_element((1, -1, 3, 4))  # |letter| repeated with both signs
    d4 = ctx("D", 4)
    with pytest.raises(FormatError):
        d4.check_element((1, 2, 3, -4))  # odd number of sign flips
    with pytest.raises(FormatError):
        d4.check_element((1, -1, -3, 4))  # even sign flips, |letter| repeated
    assert d4.check_element((1, 2, -3, -4)) == (1, 2, -3, -4)


# ---------------------------------------------------------------------------
# Absolute order.


@pytest.mark.parametrize("family,rk", ALL_SMALL)
def test_absolute_length_is_fixed_space_codimension(family, rk):
    context = ctx(family, rk)
    for w in context.elements:
        codim = context.n - len(fixed_space(context, w))
        assert C.absolute_length(context, w) == codim


@pytest.mark.parametrize("family,rk", ORACLE_SIZES)
def test_absolute_length_closed_form_matches_the_cayley_graph_distance(family, rk):
    context = ctx(family, rk)
    dist = bfs_reflection_length(context)
    assert set(dist) == set(context.elements)
    for w, d in dist.items():
        assert C.absolute_length(context, w) == d, w


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 3), ("D", 4)])
def test_nc_set_matches_the_whole_group_scan_at_every_coxeter_element(family, rk):
    context = ctx(family, rk)
    coxeter_class = conjugacy_class(context, context.coxeter_element)
    assert len(coxeter_class) > 1
    for c in sorted(coxeter_class):
        assert C.nc_set(context, c) == nc_scan(context, c), c


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 3), ("D", 4)])
def test_absolute_length_is_subadditive_and_symmetric(family, rk):
    context = ctx(family, rk)
    rng = random.Random(rk)
    elems = context.elements
    for _ in range(150):
        u, v = rng.choice(elems), rng.choice(elems)
        length = C.absolute_length(context, C.mul(u, v))
        assert length <= C.absolute_length(context, u) + C.absolute_length(context, v)
    for w in elems:
        assert C.absolute_length(context, C.inv(w)) == C.absolute_length(context, w)


def test_absolute_order_axioms_on_b2():
    context = ctx("B", 2)
    elems = context.elements
    for u in elems:
        assert C.abs_le(context, u, u)
        for v in elems:
            if C.abs_le(context, u, v) and C.abs_le(context, v, u):
                assert u == v
            for w in elems:
                if C.abs_le(context, u, v) and C.abs_le(context, v, w):
                    assert C.abs_le(context, u, w)


@pytest.mark.parametrize(
    "family,rk,expected",
    [
        ("A", 1, 2),
        ("A", 2, 5),
        ("A", 3, 14),
        ("A", 4, 42),
        ("B", 2, 6),
        ("B", 3, 20),
        ("B", 4, 70),
        ("D", 3, 14),
        ("D", 4, 50),
    ],
)
def test_noncrossing_counts_match_closed_formulas(family, rk, expected):
    count = len(C.nc_set(ctx(family, rk)))
    assert count == expected
    formula = {
        "A": comb(2 * (rk + 1), rk + 1) // (rk + 2),
        "B": comb(2 * rk, rk),
        "D": comb(2 * rk, rk) - comb(2 * rk - 2, rk - 1),
    }[family]
    assert count == formula


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 3), ("D", 4)])
def test_duality_reverses_the_order_below_c(family, rk):
    context = ctx(family, rk)
    c = context.coxeter_element
    below = C.nc_set(context)
    images = {C.duality(context, x) for x in below}
    assert images == set(below)
    for x in below:
        dx = C.duality(context, x)
        assert C.absolute_length(context, x) + C.absolute_length(context, dx) == C.absolute_length(context, c)
        twice = C.duality(context, dx)
        assert twice == C.mul(C.mul(C.inv(c), x), c)
    rng = random.Random(1)
    for _ in range(300):
        x, y = rng.choice(below), rng.choice(below)
        assert C.abs_le(context, x, y) == C.abs_le(
            context, C.duality(context, y), C.duality(context, x)
        )


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 2), ("B", 3), ("D", 4)])
def test_nc_lattice_check(family, rk):
    assert C.nc_lattice_check(C.nc_set(ctx(family, rk)))


# ---------------------------------------------------------------------------
# Reduced factorizations and the braid action.


@pytest.mark.parametrize(
    "family,rk,count",
    [("A", 2, 3), ("A", 3, 16), ("B", 2, 4), ("B", 3, 27), ("D", 4, 162)],
)
def test_reduced_factorization_counts_of_coxeter_elements(family, rk, count):
    context = ctx(family, rk)
    facts = C.red_t_factorizations(context, context.coxeter_element)
    assert len(facts) == count
    reflections = set(context.reflections)
    for f in facts:
        assert f.product() == context.coxeter_element
        assert len(f.factors) == rk
        assert set(f.factors) <= reflections
        partial = C.identity(context.n)
        for i, t in enumerate(reversed(f.factors), start=1):
            partial = C.mul(t, partial)
        assert partial == context.coxeter_element


def test_factorization_caps():
    context = ctx("B", 3)
    with pytest.raises(ResourceCapExceeded):
        C.red_t_factorizations(context, context.coxeter_element, length_cap=2)
    big = C.CoxeterContext("B", 5)
    with pytest.raises(ResourceCapExceeded):
        C.red_t_factorizations(big, big.coxeter_element)


def test_braid_move_preserves_product_and_inverts():
    context = ctx("B", 3)
    facts = C.red_t_factorizations(context, context.coxeter_element)
    rng = random.Random(2)
    for f in facts:
        tup = f.factors
        for i in range(len(tup) - 1):
            moved = C.hurwitz_act(tup, i)
            back = C.hurwitz_act(moved, i, inverse=True)
            assert back == tup
            prod = C.ReflectionFactorization(context, moved).product()
            assert prod == context.coxeter_element
    with pytest.raises(FormatError):
        C.hurwitz_act(facts[0].factors, 5)


@pytest.mark.parametrize("family,rk", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 4)])
def test_braid_action_is_transitive_on_coxeter_factorizations(family, rk):
    context = ctx(family, rk)
    orbits = C.hurwitz_orbits(context, context.coxeter_element)
    assert len(orbits) == 1
    assert len(orbits[0]) == len(
        C.red_t_factorizations(context, context.coxeter_element)
    )


def test_braid_orbits_of_minus_identity_in_d4():
    context = ctx("D", 4)
    minus = (-1, -2, -3, -4)
    assert C.absolute_length(context, minus) == 4
    orbits = C.hurwitz_orbits(context, minus)
    assert sorted(len(o) for o in orbits) == [24, 24, 24]


# ---------------------------------------------------------------------------
# Quasi-Coxeter elements.


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 3)])
def test_quasi_coxeter_equals_coxeter_in_types_a_and_b(family, rk):
    context = ctx(family, rk)
    for w in context.elements:
        assert C.is_quasi_coxeter(context, w) == C.is_coxeter_element(context, w)


def test_d4_has_twelve_proper_quasi_coxeter_elements():
    context = ctx("D", 4)
    quasi = [w for w in context.elements if C.is_quasi_coxeter(context, w)]
    coxeter = [w for w in quasi if C.is_coxeter_element(context, w)]
    proper = [w for w in quasi if not C.is_coxeter_element(context, w)]
    assert len(coxeter) == 32
    assert len(proper) == 12
    assert (-4, -3, 2, 1) in proper
    for w in proper:
        assert C.is_parabolic_quasi_coxeter(context, w)
        orbits = C.hurwitz_orbits(context, w)
        assert len(orbits) == 1


def test_proper_quasi_coxeter_example_in_detail():
    context = ctx("D", 4)
    w = (-4, -3, 2, 1)
    assert C.absolute_length(context, w) == 4
    assert C.is_quasi_coxeter(context, w)
    assert not C.is_coxeter_element(context, w)
    orbits = C.hurwitz_orbits(context, w)
    assert [len(o) for o in orbits] == [192]


@pytest.mark.parametrize("family,rk", ORACLE_SIZES)
def test_cycle_type_test_matches_the_conjugacy_class(family, rk):
    context = ctx(family, rk)
    coxeter_class = conjugacy_class(context, context.coxeter_element)
    for w in context.elements:
        assert C.is_coxeter_element(context, w) == (w in coxeter_class), w


@pytest.mark.parametrize("family,rk", ORACLE_SIZES)
def test_quasi_coxeter_test_matches_the_definition(family, rk):
    context = ctx(family, rk)
    for w in context.elements:
        assert C.is_quasi_coxeter(context, w) == generates_the_group(context, w), w


@pytest.mark.parametrize(
    "family,rk",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("D", 2), ("D", 3), ("D", 4)],
)
def test_reflection_sets_decide_parabolic_quasi_coxeter_like_the_stabilizer(family, rk):
    context = ctx(family, rk)
    for w in context.elements:
        assert C.is_parabolic_quasi_coxeter(context, w) == closure_is_generated(context, w), w


def test_minus_identity_is_not_quasi_coxeter():
    context = ctx("D", 4)
    minus = (-1, -2, -3, -4)
    assert not C.is_quasi_coxeter(context, minus)
    assert not C.is_parabolic_quasi_coxeter(context, minus)
    # its factorizations only generate an abelian sign group, not the
    # pointwise stabilizer of the (trivial) fixed space
    fact = C.red_t_factorizations(context, minus)[0]
    generated = C.generated_subgroup(context, list(fact.factors))
    assert len(generated) == 16 < context.order


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 2), ("B", 3), ("D", 4)])
def test_identity_reflections_and_coxeter_elements_are_parabolic_quasi_coxeter(
    family, rk
):
    context = ctx(family, rk)
    assert C.is_parabolic_quasi_coxeter(context, C.identity(context.n))
    for t in context.reflections:
        assert C.is_parabolic_quasi_coxeter(context, t)
    assert C.is_parabolic_quasi_coxeter(context, context.coxeter_element)


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 2), ("B", 3)])
def test_factorization_reflections_stay_in_the_parabolic_closure(family, rk):
    # every reflection in every reduced factorization of w lies in the
    # pointwise stabilizer of the fixed space of w
    context = ctx(family, rk)
    for w in context.elements:
        closure = pointwise_stabilizer(context, fixed_space(context, w))
        for f in C.red_t_factorizations(context, w):
            assert set(f.factors) <= closure


def test_single_factorization_need_not_generate_the_closure():
    # the confinement subgroup is the parabolic closure, not the span of one
    # factorization: for -id in B_2 the sign-flip factorization generates a
    # strictly smaller group that misses the transposition factorization
    context = ctx("B", 2)
    minus = (-1, -2)
    facts = C.red_t_factorizations(context, minus)
    factor_sets = [set(f.factors) for f in facts]
    spans = [C.generated_subgroup(context, list(s)) for s in factor_sets]
    assert any(used - span for span in spans for used in factor_sets)
    # the closure itself always contains everything
    closure = pointwise_stabilizer(context, fixed_space(context, minus))
    assert all(used <= closure for used in factor_sets)


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 3)])
def test_single_orbit_characterizes_parabolic_quasi_coxeter(family, rk):
    context = ctx(family, rk)
    for w in context.elements:
        transitive = len(C.hurwitz_orbits(context, w)) == 1
        assert transitive == C.is_parabolic_quasi_coxeter(context, w)


def test_below_a_quasi_coxeter_element_means_parabolic_quasi_coxeter():
    context = ctx("D", 4)
    quasi = [w for w in context.elements if C.is_quasi_coxeter(context, w)]
    for x in context.elements:
        below_some = any(C.abs_le(context, x, w) for w in quasi)
        assert below_some == C.is_parabolic_quasi_coxeter(context, x)


# ---------------------------------------------------------------------------
# The type A face: windows vs non-crossing partitions.


@pytest.mark.parametrize("m", range(2, 6))
def test_partition_permutation_roundtrip(m):
    context = ctx("A", m - 1)
    for p in nc_all(m):
        w = C.partition_to_permutation(p)
        assert context.check_element(w) == w
        assert C.absolute_length(context, w) == rank(p)
        assert C.permutation_to_partition(context, w) == p


@pytest.mark.parametrize("m", range(2, 6))
def test_kreweras_complement_is_the_group_duality(m):
    context = ctx("A", m - 1)
    for p in nc_all(m):
        w = C.partition_to_permutation(p)
        dual = C.duality(context, w)
        assert C.permutation_to_partition(context, dual) == kreweras(p)


@pytest.mark.parametrize("m", range(2, 6))
def test_refinement_matches_absolute_order(m):
    context = ctx("A", m - 1)
    perms = {p: C.partition_to_permutation(p) for p in nc_all(m)}
    for p, wp in perms.items():
        for q, wq in perms.items():
            assert refine_le(p, q) == C.abs_le(context, wp, wq)


def test_permutation_to_partition_rejects_crossing_permutations():
    context = ctx("A", 3)
    with pytest.raises(NotBelowCoxeterElement):
        C.permutation_to_partition(context, (3, 4, 1, 2))
    with pytest.raises(FormatError):
        C.permutation_to_partition(ctx("B", 3), (2, 1, 3))


def test_nc_set_of_type_a_is_the_partition_lattice_in_disguise():
    m = 5
    context = ctx("A", m - 1)
    windows = set(C.nc_set(context))
    from_partitions = {C.partition_to_permutation(p) for p in nc_all(m)}
    assert windows == from_partitions


# ---------------------------------------------------------------------------
# Dual braid relations.


def test_dual_braid_relations_on_a2_are_the_three_rotations():
    context = ctx("A", 2)
    report = C.dual_braid_relation_check(context)
    assert report == {
        "relations": C.dual_braid_relations(context),
        "factorizations": 3,
        "orbits": 1,
        "moves_covered": True,
    }
    assert len(report["relations"]) == 3


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 2), ("B", 3)])
def test_dual_braid_relations_cover_all_moves(family, rk):
    context = ctx(family, rk)
    report = C.dual_braid_relation_check(context)
    assert report["orbits"] == 1
    assert report["moves_covered"]
    assert report["relations"] == C.dual_braid_relations(context)
    for s, t, tp in report["relations"]:
        assert C.mul(s, t) == C.mul(tp, s)
        assert tp in set(context.reflections)
        assert C.abs_le(context, C.mul(s, t), context.coxeter_element)
