"""Reflection groups of types A/B/D as signed windows.

Oracles: the reflection formula r(v) = v - 2 (v, a)/(a, a) a ties every
window to the root read off its letters; absolute length is checked against
the codimension of the fixed space and against breadth-first distances in the
reflection Cayley graph; NC(W, c) against a scan of the whole group; the
lowering reflections, reduced factorizations and dual braid relations against
trial products over every reflection, and the factorization count of a
Coxeter element against n! h^n / |W| (Bessis 2003); the quasi-Coxeter and
parabolic quasi-Coxeter tests against their definitions (the subgroup a
reduced factorization generates); group orders, reflection counts and the
non-crossing counts come from closed formulas; the type A face is compared
element by element with the partition lattice."""

import random
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest

import helpers
from helpers import (
    apply_to_vector,
    bfs_reflection_length,
    closure_is_generated,
    conjugacy_class,
    descent_by_filter,
    dual_braid_relations_by_scan,
    fixed_space,
    generated_subgroup,
    generates_the_group,
    hurwitz_act_inverse,
    lowering_by_filter,
    moves_covered_by_scan,
    name_of,
    nc_all,
    nc_lattice_check,
    nc_scan,
    ordered_product,
    pairwise_lattice_check,
    pointwise_stabilizer,
    reflection_by_name,
    reflections,
    root_of,
    two_sided_hurwitz_orbits,
)
from noncross import coxeter as C
from noncross.caps import FACTORIZATION_COUNT_CAP, NC_SET_COUNT_CAP
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
    assert len(reflections(context)) == n_reflections
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
    for t in reflections(context):
        alpha = root_of(t)
        for e in basis:
            assert apply_to_vector(t, e) == reflect(e, alpha)
        assert C.mul(t, t) == C.identity(n)


@pytest.mark.parametrize("family,rk", ALL_SMALL)
def test_reflection_names_roundtrip(family, rk):
    context = ctx(family, rk)
    for t in reflections(context):
        name = name_of(context)[t]
        assert reflection_by_name(context, name) == t
    with pytest.raises(FormatError):
        reflection_by_name(context, "t(99,100,+)")


def test_a_context_builds_no_reflection_table_until_one_is_read():
    # Every query reads its reflections off pairs of letters and names them
    # off their windows; only the tests build T, so a B200 context stays
    # O(rank) windows.
    context = C.CoxeterContext("B", 200, rank_cap=200)
    c = context.coxeter_element
    assert C.invariants(context).catalan > NC_SET_COUNT_CAP
    assert C.require_coxeter_element(context) == c
    assert C.is_quasi_coxeter(context, c) and C.is_parabolic_quasi_coxeter(context, c)
    with pytest.raises(ResourceCapExceeded):
        C.nc_set(context)
    with pytest.raises(ResourceCapExceeded):
        C.dual_braid_relation_check(context)
    assert repr(context) == "CoxeterContext(B_200, |T|=40000)"
    u = (2, 1, *range(3, 201))
    assert C._lowering(context, u) == [u]
    assert "reflections" not in vars(context) and "name_of" not in vars(context)
    assert all(len(v) <= 2 * context.n for v in vars(context).values() if hasattr(v, "__len__"))


def test_a_refused_walk_builds_no_reflection(monkeypatch):
    # All 40,000 reflections of B200 lower its Coxeter element, twice the
    # factorization cap: the count walk counts them as letter triples and
    # refuses before it builds a window.  A negative 100-cycle admits its
    # first level, 100^2 windows, and refuses its second without building
    # one of that level's.
    context = C.CoxeterContext("B", 200, rank_cap=200)
    built, reflection = [], C._reflection

    def counted(*args):
        built.append(args)
        return reflection(*args)

    monkeypatch.setattr(C, "_reflection", counted)
    with pytest.raises(ResourceCapExceeded, match="at least 40000$"):
        C.red_t_factorizations(context, context.coxeter_element)
    assert not built
    with pytest.raises(ResourceCapExceeded, match="at least 28818$"):
        C.red_t_factorizations(context, (*range(2, 101), -1, *range(101, 201)))
    assert len(built) == 100**2


@pytest.mark.parametrize(
    "family,rk", [*(("A", r) for r in range(1, 7)), *(("B", r) for r in range(2, 6)), *(("D", r) for r in range(2, 6))]
)
def test_a_reflection_is_named_off_its_window(family, rk):
    context = ctx(family, rk)
    assert [C._name(t) for t in reflections(context)] == list(name_of(context).values())


def test_printed_names_build_no_reflection_table():
    # Seven disjoint transpositions of B200: 7! factorizations over seven
    # reflections, each named off its window; the context stays O(rank).
    context = C.CoxeterContext("B", 200, rank_cap=200)
    w = list(range(1, 201))
    for i in range(0, 14, 2):
        w[i], w[i + 1] = w[i + 1], w[i]
    names = {name for f in C.red_t_factorizations(context, tuple(w)) for name in map(C._name, f)}
    assert names == {f"t({i},{i + 1},+)" for i in range(1, 14, 2)}
    assert "reflections" not in vars(context) and "name_of" not in vars(context)
    assert all(len(v) <= 2 * context.n for v in vars(context).values() if hasattr(v, "__len__"))


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


def elements_with_fixed_letters(family: str, n: int, seed: str, count: int = 30) -> list:
    """Windows on n letters with two fixed letters, a negative 1-cycle (not
    in type A) and the other letters in cycles of two to four, at random."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        letters = rng.sample(range(1, n + 1), n)
        w = {i: i for i in letters[:2]}
        letters = letters[2:]
        if family != "A":
            w[letters[0]] = -letters[0]
            letters = letters[1:]
        while letters:
            k = min(len(letters), rng.randint(2, 4))
            cycle, letters = letters[:k], letters[k:]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                w[a] = b if family == "A" else rng.choice((b, -b))
        if family == "D" and sum(x < 0 for x in w.values()) % 2:
            w[cycle[0]] = -w[cycle[0]]
        out.append(tuple(w[i] for i in range(1, n + 1)))
    return out


@pytest.mark.parametrize(
    "family,rk",
    [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 6)] + [("D", r) for r in range(2, 6)]
    + [("A", 9), ("B", 9), ("D", 9)],
)
def test_lowering_reflections_read_off_the_cycle_type_match_the_filter_over_t(family, rk):
    # Past rank 5 the group is too large to scan; seeded elements that fix
    # letters exercise the restriction to the letters an element moves.
    if rk <= 5:
        context = ctx(family, rk)
        elements = context.elements
    else:
        context = C.CoxeterContext(family, rk, rank_cap=rk)
        elements = [context.check_element(u) for u in elements_with_fixed_letters(family, context.n, f"lower {family}{rk}")]
    for u in elements:
        assert C._lowering(context, u) == lowering_by_filter(context, u)


def test_walks_multiply_once_per_cover_step(monkeypatch):
    # A scan over T would form one trial product per reflection and step.
    # Each step of the descent is one edge of its tree: one nonempty prefix;
    # the count walk before it multiplies once per cover of [1, c].
    a6, b4 = ctx("A", 6), ctx("B", 4)
    covers = {cx: sum(len(lowering_by_filter(cx, u)) for u in C.nc_set(cx)) for cx in (a6, b4)}
    steps = len({f[:k] for f in descent_by_filter(b4, b4.coxeter_element) for k in range(1, len(f) + 1)})
    calls, mul = 0, C.mul

    def counting_mul(u, v):
        nonlocal calls
        calls += 1
        return mul(u, v)

    monkeypatch.setattr(C, "mul", counting_mul)
    C.nc_set(a6)
    assert calls == covers[a6] == 2002
    calls = 0
    C.red_t_factorizations(b4, b4.coxeter_element)
    assert calls == covers[b4] + steps


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


@pytest.mark.parametrize("family,rk,count", [("A", 4, 42), ("B", 3, 20), ("D", 4, 50)])
def test_nc_set_is_refused_one_element_past_its_count_cap(family, rk, count, monkeypatch):
    context = ctx(family, rk)
    monkeypatch.setattr(C, "NC_SET_COUNT_CAP", count)
    assert len(C.nc_set(context)) == count
    monkeypatch.setattr(C, "NC_SET_COUNT_CAP", count - 1)
    with pytest.raises(ResourceCapExceeded, match=f"capped at {count - 1} elements"):
        C.nc_set(context)


def test_nc_set_count_cap_admits_a9():
    assert NC_SET_COUNT_CAP >= comb(20, 10) // 11 == 16_796
    assert comb(22, 11) // 12 > NC_SET_COUNT_CAP  # A10's 58,786


def test_nc_set_refuses_an_element_that_is_not_coxeter():
    # Cat(W) bounds [1, c] only at a Coxeter element: below -1 lie all the
    # involutions, 20 in B3 and 76 in B4, against Cat(B4) = 70.
    context = ctx("B", 3)
    minus = (-1, -2, -3)
    assert sum(map(len, C._levels(context, minus))) == 20
    assert sum(map(len, C._levels(ctx("B", 4), (-1, -2, -3, -4)))) == 76 > C.invariants(ctx("B", 4)).catalan
    with pytest.raises(FormatError, match=r"\[-1, -2, -3\] is not a Coxeter element of B_3"):
        C.nc_set(context, minus)


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


@pytest.mark.parametrize("family,rk", [("A", 3), ("A", 6), ("B", 2), ("B", 3), ("D", 4)])
def test_nc_lattice_check(family, rk, monkeypatch):
    # The oracle builds each ideal from the cover steps: one product per
    # cover of [1, c] (a pairwise length test on A6 makes 65,241).
    context = ctx(family, rk)
    elems = C.nc_set(context)
    covers = sum(len(lowering_by_filter(context, u)) for u in elems)
    calls, mul = 0, helpers.mul

    def counting_mul(u, v):
        nonlocal calls
        calls += 1
        return mul(u, v)

    monkeypatch.setattr(helpers, "mul", counting_mul)
    assert nc_lattice_check(context, elems)
    assert calls == covers


def test_nc_lattice_check_agrees_with_the_pairwise_oracle():
    # Removing one element of NC(W, c) keeps a lattice for some elements and
    # breaks it for others, so both verdicts are compared.
    verdicts = set()
    for family, ranks in (("A", range(1, 5)), ("B", (2, 3)), ("D", (2, 3, 4))):
        for rk in ranks:
            context = ctx(family, rk)
            elems = C.nc_set(context)
            assert nc_lattice_check(context, elems) and pairwise_lattice_check(elems)
            for k in range(len(elems)):
                rest = elems[:k] + elems[k + 1 :]
                verdict = nc_lattice_check(context, rest)
                assert verdict == pairwise_lattice_check(rest), (family, rk, k)
                verdicts.add(verdict)
    assert verdicts == {True, False}


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
    t_set = set(reflections(context))
    for f in facts:
        assert ordered_product(context, f) == context.coxeter_element
        assert len(f) == rk
        assert set(f) <= t_set
        partial = C.identity(context.n)
        for i, t in enumerate(reversed(f), start=1):
            partial = C.mul(t, partial)
        assert partial == context.coxeter_element


def chain_count(context: C.CoxeterContext, w) -> int:
    """|Red_T(w)|: the chain total of the last level of [1, w]."""
    *_, last = C._levels(context, w)
    return sum(last.values())


@pytest.mark.parametrize(
    "family,rk",
    [*(("A", rk) for rk in range(1, 10)), *(("B", rk) for rk in range(2, 9)), *(("D", rk) for rk in range(2, 8))],
)
def test_factorization_count_is_bessis_closed_form(family, rk):
    # |Red_T(c)| = n! h^n / |W| (Bessis 2003) and |NC(W, c)| = Cat(W), read
    # off the degrees, against the walks over [1, c] and the binomial
    # formulas; the dual braid check refuses exactly where the closed count
    # passes the cap, as the count walk does.
    context = C.CoxeterContext(family, rk, rank_cap=rk)
    c = context.coxeter_element
    letters = context.n
    h, order, catalan = {
        "A": (letters, factorial(letters), comb(2 * letters, letters) // (letters + 1)),
        "B": (2 * letters, 2**letters * factorial(letters), comb(2 * rk, rk)),
        "D": (2 * letters - 2, 2 ** (letters - 1) * factorial(letters), comb(2 * rk, rk) - comb(2 * rk - 2, rk - 1)),
    }[family]
    closed = C.invariants(context)
    assert closed.coxeter_number == h and closed.order == order
    assert closed.catalan == catalan == len(C.nc_set(context))
    assert closed.red_t == Fraction(factorial(rk) * h**rk, order) == chain_count(context, c)
    if closed.red_t > FACTORIZATION_COUNT_CAP:
        for check in (C._red_t_count, C.dual_braid_relation_check):
            with pytest.raises(ResourceCapExceeded, match=f"capped at {FACTORIZATION_COUNT_CAP} factorizations"):
                check(context, c)
    else:
        assert C._red_t_count(context, c) == C.dual_braid_relation_check(context, c)["factorizations"] == closed.red_t


@pytest.mark.parametrize("family", ["B", "D"])
def test_reduced_factorizations_match_the_filtered_descent(family):
    context = ctx(family, 4)
    for w in random.Random(f"descent {family}").sample(context.elements, 50):
        facts = C.red_t_factorizations(context, w)
        assert facts == list(descent_by_filter(context, w)), w
        assert chain_count(context, w) == len(facts), w


def test_factorization_caps():
    # A7's c has 8^6 = 262,144 reduced factorizations, past the count cap.
    context = ctx("A", 7)
    with pytest.raises(ResourceCapExceeded, match=f"capped at {FACTORIZATION_COUNT_CAP} "):
        C.red_t_factorizations(context, context.coxeter_element)
    with pytest.raises(ResourceCapExceeded):
        C.hurwitz_orbits(context, context.coxeter_element)


def test_braid_move_preserves_product_and_inverts():
    context = ctx("B", 3)
    facts = C.red_t_factorizations(context, context.coxeter_element)
    rng = random.Random(2)
    for f in facts:
        for i in range(len(f) - 1):
            moved = C.hurwitz_act(f, i)
            back = hurwitz_act_inverse(moved, i)
            assert back == f
            prod = ordered_product(context, moved)
            assert prod == context.coxeter_element
    with pytest.raises(FormatError):
        C.hurwitz_act(facts[0], 5)


def assert_orbits_partition_the_filtered_descent(context, w, orbits) -> None:
    # A braid move keeps a reduced factorization reduced (it preserves the
    # product and the number of factors), so the orbits partition Red_T(w).
    descent = set(descent_by_filter(context, w))
    sets = [set(orbit) for orbit in orbits]
    assert all(orbit <= descent for orbit in sets)
    assert set().union(*sets) == descent and sum(map(len, sets)) == len(descent)


@pytest.mark.parametrize("family,rk", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 4)])
def test_braid_action_is_transitive_on_coxeter_factorizations(family, rk):
    context = ctx(family, rk)
    orbits = C.hurwitz_orbits(context, context.coxeter_element)
    assert len(orbits) == 1
    assert len(orbits[0]) == len(
        C.red_t_factorizations(context, context.coxeter_element)
    )
    assert_orbits_partition_the_filtered_descent(context, context.coxeter_element, orbits)


def hurwitz_cases():
    """The Coxeter elements of A6, B3-B5, D4 and D5, -1 in B3, B4 and D4, and
    30 seeded elements each of B4, D4 and B5."""
    for family, rk in [("A", 6), ("B", 3), ("B", 4), ("B", 5), ("D", 4), ("D", 5)]:
        yield ctx(family, rk), ctx(family, rk).coxeter_element
    for family, rk in [("B", 3), ("B", 4), ("D", 4)]:
        yield ctx(family, rk), tuple(-i for i in range(1, rk + 1))
    for family, rk in [("B", 4), ("D", 4), ("B", 5)]:
        for w in random.Random(f"hurwitz {family}{rk}").sample(ctx(family, rk).elements, 30):
            yield ctx(family, rk), w


def test_forward_moves_reach_the_two_sided_orbits():
    # Each braid move permutes the finite set Red_T(w), so the orbits walked
    # by forward moves alone are closed under the inverse moves too.  (That
    # they cover Red_T(w) is checked against the filtered descent.)
    for context, w in hurwitz_cases():
        forward = {frozenset(orbit) for orbit in C.hurwitz_orbits(context, w)}
        assert forward == two_sided_hurwitz_orbits(set().union(*forward)), (context, w)


def test_braid_orbits_of_minus_identity_in_d4():
    context = ctx("D", 4)
    minus = (-1, -2, -3, -4)
    assert C.absolute_length(context, minus) == 4
    orbits = C.hurwitz_orbits(context, minus)
    assert sorted(len(o) for o in orbits) == [24, 24, 24]
    assert_orbits_partition_the_filtered_descent(context, minus, orbits)


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
    assert_orbits_partition_the_filtered_descent(context, w, orbits)


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
    generated = generated_subgroup(context, fact)
    assert len(generated) == 16 < context.order


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 2), ("B", 3), ("D", 4)])
def test_identity_reflections_and_coxeter_elements_are_parabolic_quasi_coxeter(
    family, rk
):
    context = ctx(family, rk)
    assert C.is_parabolic_quasi_coxeter(context, C.identity(context.n))
    for t in reflections(context):
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
            assert set(f) <= closure


def test_single_factorization_need_not_generate_the_closure():
    # the confinement subgroup is the parabolic closure, not the span of one
    # factorization: for -id in B_2 the sign-flip factorization generates a
    # strictly smaller group that misses the transposition factorization
    context = ctx("B", 2)
    minus = (-1, -2)
    facts = C.red_t_factorizations(context, minus)
    factor_sets = [set(f) for f in facts]
    spans = [generated_subgroup(context, s) for s in factor_sets]
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


@pytest.mark.parametrize(
    "family,rk", [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("D", 3), ("D", 4), ("D", 5)]
)
def test_dual_braid_relations_match_the_pairwise_scan(family, rk):
    context = ctx(family, rk)
    c = context.coxeter_element
    relations = C.dual_braid_relations(context, c)
    assert relations == dual_braid_relations_by_scan(context, c)
    t_set = set(reflections(context))
    assert all(tp in t_set and C.mul(tp, s) == C.mul(s, t) for s, t, tp in relations)


@pytest.mark.parametrize("family,rk", [("A", 3), ("B", 2), ("B", 3)])
def test_dual_braid_relations_cover_all_moves(family, rk):
    context = ctx(family, rk)
    c = context.coxeter_element
    report = C.dual_braid_relation_check(context)
    assert report["orbits"] == len(C.hurwitz_orbits(context, c)) == 1
    assert report["moves_covered"] is moves_covered_by_scan(context, c) is True
    assert report["relations"] == C.dual_braid_relations(context)
    for s, t, tp in report["relations"]:
        assert C.mul(s, t) == C.mul(tp, s)
        assert tp in set(reflections(context))
        assert C.abs_le(context, C.mul(s, t), context.coxeter_element)


@pytest.mark.parametrize("family,rk", [("A", 6), ("B", 5), ("D", 5)])
def test_dual_braid_check_lists_no_factorization(family, rk, monkeypatch):
    # The orbit count and the move coverage are theorems at a Coxeter
    # element; only |Red_T(c)| is counted, on the walk over [1, c].
    def refuse(*args):
        raise AssertionError("the dual braid check listed factorizations")

    context = ctx(family, rk)
    for name in ("_reduced_descent", "red_t_factorizations", "hurwitz_orbits"):
        monkeypatch.setattr(C, name, refuse)
    report = C.dual_braid_relation_check(context)
    assert report["factorizations"] == chain_count(context, context.coxeter_element)
    assert report["orbits"] == 1 and report["moves_covered"] is True
    assert report["relations"] == C.dual_braid_relations(context)


def test_dual_braid_check_refuses_an_element_that_is_not_coxeter():
    context = ctx("A", 3)
    with pytest.raises(FormatError, match="not a Coxeter element"):
        C.dual_braid_relation_check(context, (2, 1, 3, 4))
    other = (3, 1, 4, 2)  # the 4-cycle 1 -> 3 -> 4 -> 2, not the c of the context
    assert C.is_coxeter_element(context, other) and other != context.coxeter_element
    assert C.dual_braid_relation_check(context, other)["factorizations"] == 16
