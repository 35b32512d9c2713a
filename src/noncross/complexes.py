"""Order complexes of intervals in NC(m), Euler characteristics, chain census.

The order complex of a poset has the poset elements as vertices and its
chains (totally ordered subsets) as simplices.  The combinatorial content is
Hall's identity: the Mobius value of an interval equals the *reduced* Euler
characteristic of the order complex of its open part, where reduced means
the empty simplex is counted (f_{-1} = 1), so the empty complex carries -1
and a single point carries 0.

Chain statistics over the full lattice certify gradedness the honest way:
covers are found by checking for intermediate elements, not by trusting the
rank function, and the maximal-chain length census falls out of a path count
over the cover relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import FormatError, NotComparable
from .partitions import (
    NCPartition,
    enumerate_nc,
    interval,
    rank,
    refine_le,
)


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex over labeled vertices.

    ``simplices`` lists every chain as a tuple of vertex indices (ascending);
    it may be None when only the f-vector was requested.  ``f_vector[d]``
    counts d-dimensional simplices (d+1 vertices); the empty simplex is not
    stored but always counted by the reduced Euler characteristic.
    """

    vertices: tuple[str, ...]
    f_vector: tuple[int, ...]
    simplices: tuple[tuple[int, ...], ...] | None = None

    @property
    def dimension(self) -> int:
        return len(self.f_vector) - 1


def reduced_euler_characteristic(k: SimplicialComplex) -> int:
    """chi~ = -1 + f_0 - f_1 + f_2 - ... (the -1 is the empty simplex)."""
    total = -1
    for d, count in enumerate(k.f_vector):
        total += count if d % 2 == 0 else -count
    return total


def _chain_scan(
    n: int,
    lt: Callable[[int, int], bool],
    keep: bool,
) -> tuple[list[int], list[tuple[int, ...]] | None]:
    """Count (and optionally collect) all chains of a strict order on 0..n-1.

    Every chain is visited exactly once through its increasing enumeration,
    extending the f-vector on the fly.
    """
    above = [[j for j in range(n) if lt(i, j)] for i in range(n)]
    f: list[int] = []
    out: list[tuple[int, ...]] | None = [] if keep else None
    chain: list[int] = []

    def walk(i: int) -> None:
        chain.append(i)
        depth = len(chain) - 1
        if depth == len(f):
            f.append(0)
        f[depth] += 1
        if out is not None:
            out.append(tuple(chain))
        for j in above[i]:
            walk(j)
        chain.pop()

    for i in range(n):
        walk(i)
    return f, out


def order_complex_open_interval(
    p: NCPartition, q: NCPartition, with_simplices: bool = True
) -> SimplicialComplex:
    """The order complex of {w : p < w < q}.

    With ``with_simplices=False`` only the f-vector is accumulated during the
    chain scan, which is all the Euler characteristic needs.
    """
    if p == q:
        raise NotComparable("open interval needs p strictly below q")
    elems = interval(p, q)[1:-1]
    n = len(elems)
    le_matrix = [
        [i != j and refine_le(elems[i], elems[j]) for j in range(n)] for i in range(n)
    ]
    f, simplices = _chain_scan(n, lambda i, j: le_matrix[i][j], keep=with_simplices)
    return SimplicialComplex(
        vertices=tuple(str(w) for w in elems),
        f_vector=tuple(f),
        simplices=tuple(simplices) if simplices is not None else None,
    )


def export_text(k: SimplicialComplex) -> str:
    """Plain-text form: one ``v <index> <label>`` line per vertex, then one
    ``s <i1> <i2> ...`` line per simplex."""
    if k.simplices is None:
        raise NotComparable("complex was built without simplices")
    lines = [f"v {i} {label}" for i, label in enumerate(k.vertices)]
    lines += ["s " + " ".join(map(str, s)) for s in k.simplices]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Whole-lattice statistics.


def _le_matrix(elems: Sequence[NCPartition]) -> list[list[bool]]:
    return [[refine_le(u, v) for v in elems] for u in elems]


def _cover_matrix(elems: Sequence[NCPartition], le: list[list[bool]]) -> list[list[int]]:
    """covers[i] = indices j with elems[j] covering elems[i] (no intermediate)."""
    n = len(elems)
    covers: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or not le[i][j]:
                continue
            if any(
                k != i and k != j and le[i][k] and le[k][j] for k in range(n)
            ):
                continue
            covers[i].append(j)
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
    le = _le_matrix(elems)
    covers = _cover_matrix(elems, le)
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


def _mobius_table(n: int, le: list[list[bool]]) -> dict[tuple[int, int], int]:
    """mu for every comparable pair, by the defining recursion."""
    order = sorted(range(n), key=lambda i: sum(le[k][i] for k in range(n)))
    table: dict[tuple[int, int], int] = {}
    for u in range(n):
        table[(u, u)] = 1
        for v in order:
            if v == u or not le[u][v]:
                continue
            acc = 0
            for w in range(n):
                if w != v and le[u][w] and le[w][v]:
                    acc += table[(u, w)]
            table[(u, v)] = -acc
    return table


def mobius_order_reversal_check(m: int) -> bool:
    """Verify mu(u, v) in NC(m) equals mu(v, u) in the reversed order, for all
    comparable pairs (both computed by the bare recursion)."""
    elems = enumerate_nc(m)
    n = len(elems)
    le = _le_matrix(elems)
    ge = [[le[j][i] for j in range(n)] for i in range(n)]
    fwd = _mobius_table(n, le)
    rev = _mobius_table(n, ge)
    return all(
        fwd[(u, v)] == rev[(v, u)]
        for u in range(n)
        for v in range(n)
        if le[u][v]
    )
