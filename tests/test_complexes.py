"""Order complexes of open intervals in NC(m), and the maximal-chain census.

Oracles: chains counted by brute force over vertex subsets and by a walk
over the listed interval, the reduced Euler characteristic compared with
the Mobius function on every interval, and the census compared with a path
count over the covers of the listed lattice, with the atom recursion and
with the minimal factorizations of the long cycle."""

import random
from itertools import combinations
from math import comb

import pytest

from helpers import (
    interval,
    le_matrix,
    merge_covers,
    mobius_table,
    mobius_walk,
    nc_all,
    scanned_covers,
    walked_chain_census,
    walked_f_vector,
)
from noncross import complexes as X
from noncross import coxeter as C
from noncross import partitions as P
from noncross.caps import ORDER_COMPLEX_M_CAP
from noncross.errors import FormatError, NotComparable, ResourceCapExceeded
from noncross.partitions import NCPartition


def brute_f_vector(elems):
    """Count chains of each size by testing all subsets for total order."""
    n = len(elems)
    f = []
    for size in range(1, n + 1):
        count = 0
        for combo in combinations(range(n), size):
            if all(
                P.refine_le(elems[combo[i]], elems[combo[i + 1]])
                and elems[combo[i]] != elems[combo[i + 1]]
                for i in range(size - 1)
            ):
                count += 1
        if count == 0:
            break
        f.append(count)
    return tuple(f)


def test_reduced_euler_characteristic_conventions():
    empty = X.SimplicialComplex(f_vector=())
    assert X.reduced_euler_characteristic(empty) == -1
    point = X.SimplicialComplex(f_vector=(1,))
    assert X.reduced_euler_characteristic(point) == 0
    segment = X.SimplicialComplex(f_vector=(2, 1))
    assert X.reduced_euler_characteristic(segment) == 0


def test_open_interval_requires_distinct_endpoints():
    p = NCPartition.bottom(3)
    with pytest.raises(NotComparable):
        X.order_complex_open_interval(p, p)


def test_open_interval_checks_its_endpoints_then_the_caps(monkeypatch):
    m = ORDER_COMPLEX_M_CAP + 1
    bottom, top = NCPartition.bottom(m), NCPartition.top(m)
    monkeypatch.setenv(P.ENUM_CAP_ENV, str(10 * m))  # the fixed cap holds above it
    for p, q in ((top, top), (top, bottom)):
        with pytest.raises(NotComparable):
            X.order_complex_open_interval(p, q)
    with pytest.raises(ResourceCapExceeded, match=rf"NC\({m}\) exceeds the fixed cap ORDER_COMPLEX_M_CAP"):
        X.order_complex_open_interval(bottom, top)
    monkeypatch.setenv(P.ENUM_CAP_ENV, "12")
    with pytest.raises(ResourceCapExceeded, match=P.ENUM_CAP_ENV):
        X.order_complex_open_interval(bottom, top)


def test_three_point_full_interval_is_three_isolated_atoms():
    k = X.order_complex_open_interval(NCPartition.bottom(3), NCPartition.top(3))
    assert k.f_vector == (3,)
    assert X.reduced_euler_characteristic(k) == 2


def test_cover_interval_gives_the_empty_complex():
    k = X.order_complex_open_interval(
        NCPartition.parse("1|2|3"), NCPartition.parse("1 2|3")
    )
    assert k.f_vector == ()
    assert X.reduced_euler_characteristic(k) == -1


@pytest.mark.parametrize("m", range(2, 6))
def test_f_vectors_match_brute_force_chains(m):
    bottom, top = NCPartition.bottom(m), NCPartition.top(m)
    elems = interval(bottom, top)[1:-1]
    k = X.order_complex_open_interval(bottom, top)
    assert k.f_vector == brute_f_vector(elems)


@pytest.mark.parametrize("m", range(2, 6))
def test_euler_characteristic_equals_mobius_on_every_interval(m):
    for q in nc_all(m):
        for p in interval(NCPartition.bottom(m), q):
            if p == q:
                continue
            k = X.order_complex_open_interval(p, q)
            assert X.reduced_euler_characteristic(k) == P.mobius_nc(p, q)


def test_factor_routes_match_the_interval_walk_on_random_pairs():
    # p at rank <= 1 and q at corank <= 1 make intervals of rank 4 to 7
    rng = random.Random(20261018)
    for _ in range(50):
        m = rng.choice((7, 8))
        p = rng.choice([w for w in nc_all(m) if P.rank(w) <= 1])
        q = rng.choice([w for w in nc_all(m) if P.rank(w) >= m - 2 and P.refine_le(p, w)])
        assert P.mobius_nc(p, q) == mobius_walk(p, q)
        assert X.order_complex_open_interval(p, q).f_vector == walked_f_vector(p, q)


@pytest.mark.parametrize("m,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296), (7, 16807)])
def test_maximal_chain_census(m, count):
    census = X.chain_census(m)
    assert census["m"] == m
    assert census["maximal_chains"] == count
    assert count == m ** (m - 2)
    assert census["graded"]
    assert census["rank_steps_ok"]
    assert census["all_elements_on_maximal_chains"]
    assert census["lengths"] == {m - 1: count}


@pytest.mark.parametrize("m", range(1, 10))
def test_chain_census_matches_the_cover_walk(m):
    census = X.chain_census(m)
    assert census == walked_chain_census(m)
    assert type(census["maximal_chains"]) is int  # 1 ** -1 would be a float


@pytest.mark.parametrize("m", range(2, 8))
def test_merge_covers_match_the_scanned_covers(m):
    elems = nc_all(m)
    assert [sorted(c) for c in merge_covers(elems)] == scanned_covers(elems)


def test_atom_recursion_counts_kreweras_number():
    # An atom of NC(s) joins two points k apart; its upper interval is
    # NC(k) x NC(s - k), whose maximal chains interleave the factors' chains
    # of lengths k - 1 and s - k - 1 in C(s - 2, k - 1) ways, and s - k atoms
    # join points k apart.
    chains = {1: 1}
    for s in range(2, 31):
        chains[s] = sum(
            (s - k) * comb(s - 2, k - 1) * chains[k] * chains[s - k] for k in range(1, s)
        )
        assert chains[s] == s ** (s - 2)


@pytest.mark.parametrize("m", range(2, 6))
def test_maximal_chains_count_the_minimal_factorizations_of_the_long_cycle(m):
    ctx = C.CoxeterContext("A", m - 1)
    factorizations = C.red_t_factorizations(ctx, ctx.coxeter_element)
    assert X.chain_census(m)["maximal_chains"] == len(factorizations)


def test_chain_census_generates_no_block_list(monkeypatch):
    def refuse(elems):
        raise AssertionError(f"chain_census generated the block lists over {elems}")

    P._short_blocklists.cache_clear()
    monkeypatch.setattr(P, "_generate", refuse)
    assert X.chain_census(12)["maximal_chains"] == 12**10


def test_chain_census_checks_m_then_the_cap(monkeypatch):
    monkeypatch.setenv(P.ENUM_CAP_ENV, "not-a-number")
    with pytest.raises(FormatError, match="m must be >= 1"):
        X.chain_census(0)
    with pytest.raises(FormatError, match=P.ENUM_CAP_ENV):
        X.chain_census(3)
    monkeypatch.setenv(P.ENUM_CAP_ENV, "5")
    with pytest.raises(ResourceCapExceeded, match=r"NC\(6\) exceeds the cap 5"):
        X.chain_census(6)


@pytest.mark.parametrize("m", range(2, 6))
def test_mobius_reversal_symmetry(m):
    # mu(u, v) in NC(m) equals mu(v, u) in the reversed order, both by the
    # bare recursion over the order matrix, and matches the library's mu
    elems = nc_all(m)
    le = le_matrix(elems)
    fwd = mobius_table(le)
    rev = mobius_table([list(col) for col in zip(*le)])
    assert fwd.keys() == {(v, u) for u, v in rev}
    for u, v in fwd:
        assert fwd[(u, v)] == rev[(v, u)] == P.mobius_nc(elems[u], elems[v])
