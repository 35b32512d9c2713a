"""Lattice NC(m): canonical forms, the crossing test, enumeration, meet and
join, Kreweras complementation and Mobius values, each checked against an
independent brute-force oracle."""

import doctest
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_set_partitions,
    blocks_refine,
    brute_join,
    brute_meet,
    first_block_count,
    first_block_interval_mobius,
    first_block_mobius,
    has_crossing_quadruple,
    interval,
    le_matrix,
    mobius_walk,
    nc_all,
    relabeled_nc_blocklists,
)
from noncross import cli
from noncross import partitions as P
from noncross.errors import (
    CrossingPartition,
    FormatError,
    GroundSetMismatch,
    NotComparable,
    ResourceCapExceeded,
)
from noncross.partitions import NCPartition, SetPartition

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_doctests_pass():
    assert doctest.testmod(P).failed == 0


def test_catalan_known_values():
    assert [P.catalan(n) for n in range(13)] == CATALAN


def test_set_partition_canonicalizes():
    p = SetPartition.of(5, [(4, 2), (5,), (3, 1)])
    assert p.blocks == ((1, 3), (2, 4), (5,))
    assert str(p) == "1 3|2 4|5"
    assert SetPartition.parse("2 4|5|3 1") == p
    assert p.n_blocks == 3
    assert p.index_map()[1:] == [0, 1, 0, 1, 2]


@pytest.mark.parametrize(
    "bad",
    ["", "1 2|2 3", "1 2|4", "0 1", "one|two", "1||2"],
)
def test_set_partition_rejects_malformed(bad):
    with pytest.raises(FormatError):
        SetPartition.parse(bad)


def test_nc_partition_rejects_crossing():
    # An NCPartition is a SetPartition whose checked constructors also
    # reject crossings; the two classes never compare equal.
    with pytest.raises(CrossingPartition):
        NCPartition.parse("1 3|2 4")
    with pytest.raises(CrossingPartition):
        NCPartition.of(4, [(1, 3), (2, 4)])
    with pytest.raises(CrossingPartition):
        NCPartition.of(6, [(1, 4), (2, 5), (3,), (6,)])
    crossing = SetPartition.parse("1 3|2 4")
    assert crossing.blocks == ((1, 3), (2, 4)) and type(crossing) is SetPartition
    assert crossing != NCPartition(4, crossing.blocks)
    nc, plain = NCPartition.parse("1 2|3"), SetPartition.parse("1 2|3")
    assert isinstance(nc, SetPartition) and nc.blocks == plain.blocks
    assert nc != plain and plain != nc


def test_value_classes_compare_hash_print_and_stay_frozen():
    from noncross.freeprob import CumulantSequence, MomentSequence
    from noncross.randmat import GinibreSpec

    p = NCPartition.parse("1 2|3")
    assert repr(p) == "NCPartition(m=3, blocks=((1, 2), (3,)))"
    assert repr(MomentSequence.of([1, 2])) == "MomentSequence(values=(Fraction(1, 1), Fraction(2, 1)))"
    assert MomentSequence.of([1]) != CumulantSequence.of([1])
    fields = {
        p: "blocks",
        SetPartition.parse("1 2|3"): "m",
        MomentSequence.of([1, 2]): "values",
        GinibreSpec(n=4, ell=1, kind="product", trials=2, seed=0): "seed",
    }
    values = list(fields)
    for value, field in fields.items():
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and hash(twin) == hash(value) and twin is not value
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert len(set(values + [NCPartition.parse("1 2|3")])) == len(values)


@pytest.mark.parametrize("m", range(1, 8))
def test_noncrossing_test_matches_quadruple_oracle(m):
    for blocks in all_set_partitions(m):
        p = SetPartition(m, blocks)
        assert P.is_noncrossing(p) == (not has_crossing_quadruple(blocks, m))


def test_noncrossing_test_matches_oracle_on_random_large_partitions():
    rng = random.Random(20260814)
    for m in (10, 12):
        for _ in range(200):
            labels = [0] + [rng.randrange(4) for _ in range(m - 1)]
            blocks = {}
            for i, lab in enumerate(labels, start=1):
                blocks.setdefault(lab, []).append(i)
            canon = tuple(tuple(b) for b in sorted(blocks.values()))
            p = SetPartition.of(m, canon)
            assert P.is_noncrossing(p) == (not has_crossing_quadruple(canon, m))


@pytest.mark.parametrize("m", range(0, 10))
def test_enumeration_count_is_catalan(m):
    assert len(nc_all(m)) == CATALAN[m]
    assert first_block_count(m) == P.catalan(m) == CATALAN[m]


@pytest.mark.parametrize("m", range(0, 11))
def test_count_matches_the_streamed_enumeration(m):
    assert first_block_count(m) == sum(1 for _ in P.iter_nc(m))


def test_count_generates_no_block_list(monkeypatch):
    def refuse(elems):
        raise AssertionError(f"nc count generated the block lists over {elems}")

    P._short_blocklists.cache_clear()
    monkeypatch.setattr(P, "_generate", refuse)
    for m in range(13):
        payload = cli.run(["nc", "count", "--m", str(m)]).payload
        assert payload["count"] == payload["catalan"] == first_block_count(m)


def nc_count_error(m: int) -> str:
    result = cli.run(["nc", "count", "--m", str(m)])
    return f"{result.exit_code} {result.payload['error']}"


def test_count_checks_m_then_the_cap(monkeypatch):
    for cap in ("-5", "not-a-number"):  # m < 0 is reported before any cap
        monkeypatch.setenv(P.ENUM_CAP_ENV, cap)
        assert nc_count_error(-1) == "2 m must be non-negative"
    assert nc_count_error(3).startswith(f"2 {P.ENUM_CAP_ENV} must be an integer")
    monkeypatch.setenv(P.ENUM_CAP_ENV, "5")
    assert cli.run(["nc", "count", "--m", "5"]).payload["count"] == first_block_count(5) == 42
    assert nc_count_error(6) == f"3 enumeration over NC(6) exceeds the cap 5; raise {P.ENUM_CAP_ENV}"
    monkeypatch.delenv(P.ENUM_CAP_ENV)
    assert nc_count_error(13).startswith("3 enumeration over NC(13) exceeds the cap 12")


@pytest.mark.parametrize("m", range(0, 12))
def test_enumeration_order_matches_the_relabeling_oracle(m):
    assert tuple(p.blocks for p in P.iter_nc(m)) == relabeled_nc_blocklists(m)


@pytest.mark.parametrize("m", range(0, 10))
def test_enumerated_partitions_are_valid_without_the_constructor_check(m):
    # iter_nc skips the crossing check of NCPartition; re-run it.
    parts = list(P.iter_nc(m))
    assert len(parts) == len(set(parts)) == CATALAN[m]
    for p in parts:
        assert sorted(x for b in p.blocks for x in b) == list(range(1, m + 1))
        assert P.is_noncrossing(p)
        assert p == NCPartition.of(m, p.blocks)


@pytest.mark.parametrize("m", range(0, 7))
def test_lattice_operations_return_noncrossing_partitions(m):
    # kreweras, rotate and meet_nc skip the crossing check of NCPartition;
    # re-run it on every result.
    parts = nc_all(m)
    for p in parts:
        assert P.is_noncrossing(P.kreweras(p))
        for k in range(-1, m + 1):
            assert P.is_noncrossing(P.rotate(p, k))
        for q in parts:
            assert P.is_noncrossing(P.meet_nc(p, q))


def test_empty_ground_set_has_one_partition():
    assert NCPartition.top(0) == NCPartition.bottom(0)
    assert NCPartition.top(0).blocks == ()
    assert P.mobius_nc(NCPartition.bottom(0), NCPartition.top(0)) == 1


@pytest.mark.parametrize("m", range(1, 8))
def test_enumeration_is_lexicographic_and_complete(m):
    got = [p.blocks for p in nc_all(m)]
    assert got == sorted(got)
    assert len(set(got)) == len(got)
    expected = {
        b for b in all_set_partitions(m) if not has_crossing_quadruple(b, m)
    }
    assert set(got) == expected
    assert got[0] == tuple((i,) for i in range(1, m + 1))


def test_rank_counts_merges():
    assert P.rank(NCPartition.bottom(6)) == 0
    assert P.rank(NCPartition.top(6)) == 5
    assert P.rank(NCPartition.parse("1 2|3 4|5|6")) == 2


def test_refine_le_matches_block_containment():
    for p in nc_all(5):
        for q in nc_all(5):
            assert P.refine_le(p, q) == blocks_refine(p.blocks, q.blocks)


def test_refine_le_rejects_mismatched_ground_sets():
    with pytest.raises(GroundSetMismatch):
        P.refine_le(NCPartition.bottom(3), NCPartition.bottom(4))


@pytest.mark.parametrize("m", range(1, 7))
def test_meet_and_join_match_brute_force(m):
    rng = random.Random(m)
    elems = nc_all(m)
    pairs = (
        [(p, q) for p in elems for q in elems]
        if m <= 4
        else [(rng.choice(elems), rng.choice(elems)) for _ in range(200)]
    )
    for p, q in pairs:
        assert P.meet_nc(p, q) == brute_meet(p, q)
        assert P.join_nc(p, q) == brute_join(p, q)


def test_meet_is_the_set_partition_meet():
    # NC(m) is closed under common refinement, so the lattice meet is the
    # plain blockwise intersection.
    for p in nc_all(5):
        for q in nc_all(5):
            w = P.meet_nc(p, q)
            pix, qix = p.index_map(), q.index_map()
            groups = {}
            for i in range(1, 6):
                groups.setdefault((pix[i], qix[i]), []).append(i)
            canon = tuple(tuple(b) for b in sorted(groups.values()))
            assert w.blocks == canon


def test_join_can_exceed_the_set_partition_join():
    p = NCPartition.parse("1 3|2|4")
    q = NCPartition.parse("1|2 4|3")
    assert P.join_nc(p, q) == NCPartition.top(4)
    # the set-partition join 1 3|2 4 is crossing, hence not in NC(4)
    assert not P.is_noncrossing(SetPartition.parse("1 3|2 4"))
    # and the rank identity of semimodular lattices fails on this pair
    ranks = P.rank(P.join_nc(p, q)) + P.rank(P.meet_nc(p, q))
    assert ranks > P.rank(p) + P.rank(q)


def test_kreweras_three_point_table():
    table = {
        "1|2|3": "1 2 3",
        "1 2 3": "1|2|3",
        "1 2|3": "1|2 3",
        "1|2 3": "1 3|2",
        "1 3|2": "1 2|3",
    }
    for src, dst in table.items():
        assert str(P.kreweras(NCPartition.parse(src))) == dst


def test_kreweras_eight_point_example():
    p = NCPartition.parse("1|2 6 7|3 5|4|8")
    assert str(P.kreweras(p)) == "1 7 8|2 5|3 4|6"


@pytest.mark.parametrize("m", range(1, 8))
def test_kreweras_is_a_rank_complementing_bijection(m):
    elems = nc_all(m)
    images = {P.kreweras(p) for p in elems}
    assert images == set(elems)
    for p in elems:
        assert P.rank(p) + P.rank(P.kreweras(p)) == m - 1
        assert P.kreweras(P.kreweras(p)) == P.rotate(p, -1)


@pytest.mark.parametrize("m", range(1, 6))
def test_kreweras_exchanges_meet_and_join(m):
    for p in nc_all(m):
        for q in nc_all(m):
            kp, kq = P.kreweras(p), P.kreweras(q)
            assert P.kreweras(P.join_nc(p, q)) == P.meet_nc(kp, kq)
            assert P.kreweras(P.meet_nc(p, q)) == P.join_nc(kp, kq)


def test_kreweras_reverses_order():
    for p in nc_all(5):
        for q in nc_all(5):
            if P.refine_le(p, q):
                assert P.refine_le(P.kreweras(q), P.kreweras(p))


@pytest.mark.parametrize("m", range(1, 7))
def test_rotate_is_a_cyclic_group_action(m):
    for p in nc_all(m):
        assert P.rotate(p, 0) == p
        assert P.rotate(p, m) == p
        assert P.rotate(P.rotate(p, 1), -1) == p
        step = P.rotate(p, 3)
        assert step == P.rotate(P.rotate(P.rotate(p, 1), 1), 1)


def test_blockwise_complement_sizes():
    p = NCPartition.bottom(4)
    q = NCPartition.top(4)
    assert P.blockwise_complement(p, q) == (4,)
    with pytest.raises(NotComparable):
        P.blockwise_complement(NCPartition.parse("1 2|3"), NCPartition.parse("1|2 3"))


@pytest.mark.parametrize("m", range(1, 9))
def test_full_interval_mobius_value(m):
    value = P.mobius_nc(NCPartition.bottom(m), NCPartition.top(m))
    assert value == (-1) ** (m - 1) * P.catalan(m - 1)


def test_first_block_recursion_is_the_signed_catalan_number(monkeypatch):
    monkeypatch.setenv(P.ENUM_CAP_ENV, "300")
    for s in range(1, 301):  # ascending, so each call recurses one level only
        closed = P.mobius_nc(NCPartition.bottom(s), NCPartition.top(s))
        assert first_block_mobius(s) == closed == (-1) ** (s - 1) * P.catalan(s - 1), s


@pytest.mark.parametrize("m", range(1, 6))
def test_mobius_recursion_matches_closed_form_on_all_intervals(m):
    for q in nc_all(m):
        for p in interval(NCPartition.bottom(m), q):
            assert P.mobius_nc(p, q) == first_block_interval_mobius(p, q) == mobius_walk(p, q)


def test_mobius_recursion_sums_to_zero_on_proper_intervals():
    q = NCPartition.top(5)
    p = NCPartition.bottom(5)
    total = sum(P.mobius_nc(p, w) for w in interval(p, q))
    assert total == 0


@pytest.mark.parametrize("m", range(1, 7))
def test_ideal_and_interval_match_filters(m):
    # every q, and every p <= q, against the refinement matrix
    elems = nc_all(m)
    le = le_matrix(elems)
    bottom = NCPartition.bottom(m)
    for j, q in enumerate(elems):
        ideal = [i for i in range(len(elems)) if le[i][j]]
        assert interval(bottom, q) == sorted(
            (elems[i] for i in ideal), key=lambda w: (P.rank(w), w.blocks)
        )
        for i in ideal:
            box = interval(elems[i], q)
            assert box == sorted(
                (elems[k] for k in ideal if le[i][k]),
                key=lambda w: (P.rank(w), w.blocks),
            )


def test_enumeration_cap_from_environment(monkeypatch):
    monkeypatch.setenv(P.ENUM_CAP_ENV, "4")
    with pytest.raises(ResourceCapExceeded):
        list(P.iter_nc(5))
    monkeypatch.setenv(P.ENUM_CAP_ENV, "5")
    assert len(P.enumerate_nc(5)) == 42


def test_enumeration_cap_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(P.ENUM_CAP_ENV, "not-a-number")
    with pytest.raises(FormatError):
        list(P.iter_nc(3))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_partition_string_roundtrip_and_json(data):
    m = data.draw(st.integers(min_value=1, max_value=8))
    p = data.draw(st.sampled_from(nc_all(m)))
    assert NCPartition.parse(str(p)) == p


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_laws_on_sampled_pairs(data):
    m = data.draw(st.integers(min_value=1, max_value=8))
    p = data.draw(st.sampled_from(nc_all(m)))
    q = data.draw(st.sampled_from(nc_all(m)))
    meet, join = P.meet_nc(p, q), P.join_nc(p, q)
    assert meet == P.meet_nc(q, p)
    assert join == P.join_nc(q, p)
    assert P.refine_le(meet, p) and P.refine_le(meet, q)
    assert P.refine_le(p, join) and P.refine_le(q, join)
    assert P.join_nc(p, meet) == p
    assert P.meet_nc(p, join) == p
