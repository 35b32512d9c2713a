"""Order complexes of intervals in NC(m), Euler characteristics, chain census.

The order complex of a poset has the poset elements as vertices and its
chains (totally ordered subsets) as simplices.  The combinatorial content is
Hall's identity: the Mobius value of an interval equals the *reduced* Euler
characteristic of the order complex of its open part, where reduced means
the empty simplex is counted (f_{-1} = 1), so the empty complex carries -1
and a single point carries 0.

The f-vector of an open interval (p, q) is counted in closed form.  [p, q] is
the product of the full lattices NC(s) over the blockwise complement sizes
s (Kreweras 1972); NC(s) has C(ks, s - 1) / s multichains of k steps from
bottom to top (Edelman 1980), multichain counts multiply over a product, and
binomial inversion turns them into strict chains.

Chain statistics over the full lattice come from the cover relation, which
is structural: a cover of p merges two of its blocks, and it lies in NC(m)
exactly when the merged partition is non-crossing, i.e. found in an index of
the enumerated lattice.  The maximal-chain length census falls out of a path
count over the covers; gradedness and the rank steps are read off the same
paths, and whether every element lies on a maximal chain off the covers.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, prod
from typing import NamedTuple, Sequence

from .errors import FormatError, NotComparable
from .partitions import NCPartition, _check_cap, blockwise_complement, enumerate_nc, rank


class SimplicialComplex(NamedTuple):
    """An abstract simplicial complex by its f-vector.

    ``f_vector[d]`` counts d-dimensional simplices (d+1 vertices); the empty
    simplex is not stored but always counted by the reduced Euler
    characteristic.
    """

    f_vector: tuple[int, ...]


def reduced_euler_characteristic(k: SimplicialComplex) -> int:
    """chi~ = -1 + f_0 - f_1 + f_2 - ... (the -1 is the empty simplex)."""
    total = -1
    for d, count in enumerate(k.f_vector):
        total += count if d % 2 == 0 else -count
    return total


def order_complex_open_interval(p: NCPartition, q: NCPartition) -> SimplicialComplex:
    """The order complex of {w : p < w < q}, by its f-vector.

    Z(k), the product of C(ks, s - 1) / s over the factors NC(s), counts the
    multichains p = x_0 <= ... <= x_k = q.  A strict chain of j steps from p
    to q sits under C(k, j) of them (pick the steps that move), so the strict
    chain counts b_j solve Z(i) = sum of C(i, j) b_j over j <= i, and a
    strict chain of j steps has j - 1 interior elements: f_{j-2} = b_j.  The
    enumeration cap bounds m, as for :func:`partitions.mobius_nc`.
    """
    if p == q:
        raise NotComparable("open interval needs p strictly below q")
    sizes = blockwise_complement(p, q)
    _check_cap(q.m)
    chains: list[int] = []
    for i in range(rank(q) - rank(p) + 1):
        multichains = prod(comb(i * s, s - 1) // s for s in sizes)
        chains.append(multichains - sum(comb(i, j) * b for j, b in enumerate(chains)))
    return SimplicialComplex(f_vector=tuple(chains[2:]))


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

    # Every cover merges two blocks, so a walk down covers ends at an element
    # covering nothing and a walk up at one covered by nothing: every element
    # lies on a maximal chain iff only the bottom covers nothing and only the
    # top is covered by nothing.
    covered = {j for up in covers for j in up}
    all_on_chains = len(covered | {bottom}) == n and all(
        up or i == top for i, up in enumerate(covers)
    )

    graded = rank_steps_ok and all_on_chains and set(lengths) == {m - 1}
    return {
        "m": m,
        "maximal_chains": sum(lengths.values()),
        "lengths": lengths,
        "graded": graded,
        "rank_steps_ok": rank_steps_ok,
        "all_elements_on_maximal_chains": all_on_chains,
    }
