"""Order complexes of open intervals in NC(m).

Oracle: chains counted by brute force over vertex subsets, and the reduced
Euler characteristic compared with the Mobius function on every interval."""

from itertools import combinations

import pytest

from helpers import le_matrix, mobius_table, nc_all, scanned_covers
from noncross import complexes as X
from noncross import partitions as P
from noncross.errors import NotComparable
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
    empty = X.SimplicialComplex(vertices=(), f_vector=())
    assert X.reduced_euler_characteristic(empty) == -1
    point = X.SimplicialComplex(vertices=("x",), f_vector=(1,))
    assert X.reduced_euler_characteristic(point) == 0
    segment = X.SimplicialComplex(vertices=("x", "y"), f_vector=(2, 1))
    assert X.reduced_euler_characteristic(segment) == 0
    assert segment.dimension == 1


def test_open_interval_requires_distinct_endpoints():
    p = NCPartition.bottom(3)
    with pytest.raises(NotComparable):
        X.order_complex_open_interval(p, p)


def test_three_point_full_interval_is_three_isolated_atoms():
    k = X.order_complex_open_interval(NCPartition.bottom(3), NCPartition.top(3))
    assert k.f_vector == (3,)
    assert sorted(k.vertices) == ["1 2|3", "1 3|2", "1|2 3"]
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
    elems = P.interval(bottom, top)[1:-1]
    k = X.order_complex_open_interval(bottom, top)
    assert k.f_vector == brute_f_vector(elems)


@pytest.mark.parametrize("m", range(2, 6))
def test_euler_characteristic_equals_mobius_on_every_interval(m):
    for q in nc_all(m):
        for p in P.interval(NCPartition.bottom(m), q):
            if p == q:
                continue
            k = X.order_complex_open_interval(p, q)
            assert X.reduced_euler_characteristic(k) == P.mobius_nc(p, q)


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


@pytest.mark.parametrize("m", range(2, 8))
def test_merge_covers_match_the_scanned_covers(m):
    elems = nc_all(m)
    assert [sorted(c) for c in X._merge_covers(elems)] == scanned_covers(elems)


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
