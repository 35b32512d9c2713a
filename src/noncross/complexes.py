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

The maximal-chain census of the full lattice is Kreweras's count m^(m - 2),
read off the theorem with nothing enumerated; the test oracles walk the
covers of the listed lattice and compare every field.
"""

from __future__ import annotations

from math import comb, prod
from typing import NamedTuple

from .caps import ORDER_COMPLEX_M_CAP
from .errors import FormatError, NotComparable, ResourceCapExceeded
from .partitions import NCPartition, _check_cap, blockwise_complement, rank


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


def _check_order_complex_m(m: int) -> None:
    """Refuse an order complex of an interval of NC(m) past the enumeration
    cap or past the fixed ``ORDER_COMPLEX_M_CAP``, in that order."""
    _check_cap(m)
    if m > ORDER_COMPLEX_M_CAP:
        raise ResourceCapExceeded(
            f"the order complex of an interval of NC({m}) exceeds the fixed cap "
            f"ORDER_COMPLEX_M_CAP = {ORDER_COMPLEX_M_CAP}"
        )


def order_complex_open_interval(p: NCPartition, q: NCPartition) -> SimplicialComplex:
    """The order complex of {w : p < w < q}, by its f-vector.

    Z(k), the product of C(ks, s - 1) / s over the factors NC(s), counts the
    multichains p = x_0 <= ... <= x_k = q.  A strict chain of j steps from p
    to q sits under C(k, j) of them (pick the steps that move), so the strict
    chain counts b_j solve Z(i) = sum of C(i, j) b_j over j <= i, and a
    strict chain of j steps has j - 1 interior elements: f_{j-2} = b_j.  The
    enumeration cap bounds m, as for :func:`partitions.mobius_nc`, and so does
    the fixed ``ORDER_COMPLEX_M_CAP`` even when the enumeration cap is raised
    above it: the inversion is O(rank^2) big-integer terms.
    """
    if p == q:
        raise NotComparable("open interval needs p strictly below q")
    sizes = blockwise_complement(p, q)
    _check_order_complex_m(q.m)
    chains: list[int] = []
    for i in range(rank(q) - rank(p) + 1):
        multichains = prod(comb(i * s, s - 1) // s for s in sizes)
        chains.append(multichains - sum(comb(i, j) * b for j, b in enumerate(chains)))
    return SimplicialComplex(f_vector=tuple(chains[2:]))


# ---------------------------------------------------------------------------
# Whole-lattice statistics.


def chain_census(m: int) -> dict:
    """Maximal-chain statistics of NC(m) between bottom and top.

    Reports the number of maximal chains by length (edges along the cover
    relation), whether the lattice is graded with every maximal chain of
    length m - 1 and every element on one, and the rank consistency of the
    covers (each cover step raises the rank by exactly one).  All follow
    from the theory: a cover merges two blocks, so it raises the rank by
    one, every element lies on a chain of merges from the singletons to the
    single block, and the maximal chains are the minimal factorizations of
    the long cycle of S_m into transpositions, m^(m - 2) of them (Kreweras
    1972).  The enumeration cap bounds m, as for :func:`partitions.iter_nc`.
    """
    if m < 1:
        raise FormatError("m must be >= 1")
    _check_cap(m)
    chains = m ** (m - 2) if m > 1 else 1  # 1 ** -1 is a float
    return {
        "m": m,
        "maximal_chains": chains,
        "lengths": {m - 1: chains},
        "graded": True,
        "rank_steps_ok": True,
        "all_elements_on_maximal_chains": True,
    }
