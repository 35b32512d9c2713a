"""Order complexes of intervals in NC(m), Euler characteristics, chain census.

The order complex of a poset has the poset elements as vertices and its
chains (totally ordered subsets) as simplices.  The combinatorial content is
Hall's identity: the Mobius value of an interval equals the *reduced* Euler
characteristic of the order complex of its open part, where reduced means
the empty simplex is counted (f_{-1} = 1), so the empty complex carries -1
and a single point carries 0.

Chain statistics over the full lattice come from the cover relation, which
is structural: a cover of p merges two of its blocks, and it lies in NC(m)
exactly when the merged partition is non-crossing, i.e. found in an index of
the enumerated lattice.  The maximal-chain length census falls out of a path
count over the covers; gradedness, the rank steps and the reach of every
element are read off the same paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import FormatError, NotComparable
from .partitions import NCPartition, _Above, enumerate_nc, interval, rank


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex over labeled vertices, by its f-vector.

    ``f_vector[d]`` counts d-dimensional simplices (d+1 vertices); the empty
    simplex is not stored but always counted by the reduced Euler
    characteristic.
    """

    vertices: tuple[str, ...]
    f_vector: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.f_vector) - 1


def reduced_euler_characteristic(k: SimplicialComplex) -> int:
    """chi~ = -1 + f_0 - f_1 + f_2 - ... (the -1 is the empty simplex)."""
    total = -1
    for d, count in enumerate(k.f_vector):
        total += count if d % 2 == 0 else -count
    return total


def _chain_scan(above: list[list[int]]) -> list[int]:
    """The f-vector of the chains of a strict order on 0..n-1, given the
    elements above each one.

    Every chain is visited exactly once through its increasing enumeration.
    """
    f: list[int] = []

    def walk(i: int, depth: int) -> None:
        if depth == len(f):
            f.append(0)
        f[depth] += 1
        for j in above[i]:
            walk(j, depth + 1)

    for i in range(len(above)):
        walk(i, 0)
    return f


def order_complex_open_interval(p: NCPartition, q: NCPartition) -> SimplicialComplex:
    """The order complex of {w : p < w < q}, by its f-vector.

    The elements below each w come from [p, w], walked blockwise from p, so
    no pairwise comparison over the interval is needed.
    """
    if p == q:
        raise NotComparable("open interval needs p strictly below q")
    elems = interval(p, q)[1:-1]
    walk = _Above(p)
    index = {walk.key(w.blocks): i for i, w in enumerate(elems)}
    above: list[list[int]] = [[] for _ in elems]
    for j, w in enumerate(elems):
        for v in walk.interval_keys(w.blocks):
            i = index.get(v)
            if i is not None and i != j:
                above[i].append(j)
    return SimplicialComplex(
        vertices=tuple(str(w) for w in elems),
        f_vector=tuple(_chain_scan(above)),
    )


# ---------------------------------------------------------------------------
# Whole-lattice statistics.


def _merge_covers(elems: Sequence[NCPartition]) -> list[list[int]]:
    """covers[i] = indices j with elems[j] covering elems[i]: every merge of
    two blocks of elems[i] that is non-crossing, looked up by its blocks."""
    index = {p.blocks: i for i, p in enumerate(elems)}
    covers: list[list[int]] = []
    for p in elems:
        b = p.blocks
        up = []
        for i, j in combinations(range(len(b)), 2):
            merged = b[:i] + b[i + 1 : j] + b[j + 1 :] + (tuple(sorted(b[i] + b[j])),)
            k = index.get(tuple(sorted(merged)))
            if k is not None:
                up.append(k)
        covers.append(up)
    return covers


def chain_census(m: int) -> dict:
    """Maximal-chain statistics of NC(m) between bottom and top.

    Reports the number of maximal chains by length (edges along the cover
    relation), whether the lattice is graded with every maximal chain of
    length m - 1 and every element on one, and the rank consistency of the
    covers (each cover step raises the rank by exactly one).
    """
    if m < 1:
        raise FormatError("m must be >= 1")
    elems = enumerate_nc(m)
    n = len(elems)
    covers = _merge_covers(elems)
    bottom = next(i for i in range(n) if elems[i].n_blocks == m)
    top = next(i for i in range(n) if elems[i].n_blocks == 1)

    rank_steps_ok = all(
        rank(elems[j]) == rank(elems[i]) + 1 for i in range(n) for j in covers[i]
    )

    # paths bottom -> top in the cover relation, tallied by edge count
    order = sorted(range(n), key=lambda i: rank(elems[i]))
    counts: list[dict[int, int]] = [dict() for _ in range(n)]
    counts[bottom] = {0: 1}
    for i in order:
        for length, num in counts[i].items():
            for j in covers[i]:
                counts[j][length + 1] = counts[j].get(length + 1, 0) + num
    lengths = dict(sorted(counts[top].items()))

    up_reach = {bottom}
    stack = [bottom]
    while stack:
        i = stack.pop()
        for j in covers[i]:
            if j not in up_reach:
                up_reach.add(j)
                stack.append(j)
    down_reach = {top}
    stack = [top]
    parents = [[] for _ in range(n)]
    for i in range(n):
        for j in covers[i]:
            parents[j].append(i)
    while stack:
        j = stack.pop()
        for i in parents[j]:
            if i not in down_reach:
                down_reach.add(i)
                stack.append(i)
    all_on_chains = up_reach == set(range(n)) and down_reach == set(range(n))

    graded = rank_steps_ok and all_on_chains and set(lengths) == {m - 1}
    return {
        "m": m,
        "maximal_chains": sum(lengths.values()),
        "lengths": lengths,
        "graded": graded,
        "rank_steps_ok": rank_steps_ok,
        "all_elements_on_maximal_chains": all_on_chains,
    }
