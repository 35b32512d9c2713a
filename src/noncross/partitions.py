"""Non-crossing set partitions of {1, ..., m} and the lattice NC(m).

A partition is stored canonically: every block is an ascending tuple and the
blocks are ordered by their minima.  A partition is *non-crossing* when there
are no four points a < b < c < d with a, c in one block and b, d in another
(the picture: chords drawn inside a disk with 1..m on the boundary never
cross).  Under refinement these partitions form a graded lattice NC(m) with
|NC(m)| the Catalan number C_m.  NC(m) inherits its meet from the full
partition lattice but *not* its join, which must be re-closed under crossings.

The Kreweras complement is computed through the cycle correspondence: send a
partition p to the permutation s_p that cycles each block upward; the blocks
of the complement are the orbits of s_p^{-1} composed with the long cycle
i -> i+1.  This matches the picture of dual points placed in the arcs
(i, i+1) and joined as coarsely as the chords of p allow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, product
from math import comb
from typing import Iterable, Iterator

from .errors import (
    CrossingPartition,
    FormatError,
    GroundSetMismatch,
    NotComparable,
    ResourceCapExceeded,
)

DEFAULT_ENUM_CAP = 12
ENUM_CAP_ENV = "NONCROSS_CAP"
# Largest truncation order of the exact series transforms in freeprob.
SERIES_ORDER_CAP = 60

Blocks = tuple[tuple[int, ...], ...]


def catalan(n: int) -> int:
    """The Catalan number C_n = binom(2n, n) / (n + 1).

    >>> [catalan(n) for n in range(8)]
    [1, 1, 2, 5, 14, 42, 132, 429]
    """
    return comb(2 * n, n) // (n + 1)


def enumeration_cap() -> int:
    """Largest m for which full enumerations are allowed.

    Defaults to 12; the NONCROSS_CAP environment variable overrides it.
    """
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None


def _check_cap(m: int, cap: int | None) -> None:
    limit = enumeration_cap() if cap is None else cap
    if m > limit:
        raise ResourceCapExceeded(
            f"enumeration over NC({m}) exceeds the cap {limit}; "
            f"raise {ENUM_CAP_ENV} or pass an explicit cap"
        )


@dataclass(frozen=True, slots=True)
class SetPartition:
    """A partition of {1, ..., m} in canonical block form.

    Build instances with :meth:`of` or :meth:`parse`; the raw constructor
    trusts its arguments.
    """

    m: int
    blocks: Blocks

    @staticmethod
    def of(m: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Canonicalize and validate a block family covering 1..m exactly once."""
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks if b))
        p = SetPartition(m, canon)
        p._validate()
        return p

    @staticmethod
    def parse(text: str) -> "SetPartition":
        """Parse the pipe format, e.g. ``"1|2 6 7|3 5|4|8"``.

        Blocks are separated by ``|`` and elements by whitespace; every
        element of 1..m must appear exactly once, with m inferred.
        """
        try:
            blocks = [[int(tok) for tok in part.split()] for part in text.split("|")]
        except ValueError:
            raise FormatError(f"cannot parse partition {text!r}") from None
        if any(not b for b in blocks):
            raise FormatError(f"partition {text!r} has an empty block")
        m = sum(len(b) for b in blocks)
        return SetPartition.of(m, blocks)

    def _validate(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise FormatError("empty block")
            seen.update(b)
        if len(seen) != sum(len(b) for b in self.blocks):
            raise FormatError(f"blocks of {self} overlap")
        if seen != set(range(1, self.m + 1)):
            raise FormatError(f"blocks of {self} do not cover 1..{self.m} exactly")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def index_map(self) -> list[int]:
        """List ix with ix[i] = index of the block containing i (ix[0] unused)."""
        ix = [0] * (self.m + 1)
        for k, b in enumerate(self.blocks):
            for e in b:
                ix[e] = k
        return ix

    def __str__(self) -> str:
        return "|".join(" ".join(map(str, b)) for b in self.blocks)

    def to_json(self) -> dict:
        return {"m": self.m, "blocks": [list(b) for b in self.blocks]}


def is_noncrossing(p: SetPartition) -> bool:
    """True when no a < b < c < d have a, c in one block and b, d in another.

    Scans left to right keeping a stack of open blocks; a return to a block
    that is not on top witnesses the forbidden alternation.

    >>> is_noncrossing(SetPartition.parse("1 3|2 4"))
    False
    >>> is_noncrossing(SetPartition.parse("1 2 3 4"))
    True
    """
    ix = p.index_map()
    last = [b[-1] for b in p.blocks]
    opened = [False] * len(p.blocks)
    stack: list[int] = []
    for i in range(1, p.m + 1):
        k = ix[i]
        if not opened[k]:
            opened[k] = True
            stack.append(k)
        elif stack[-1] != k:
            return False
        if last[k] == i:
            stack.pop()
    return True


@dataclass(frozen=True, slots=True)
class NCPartition:
    """A non-crossing partition; wraps a canonical :class:`SetPartition`."""

    underlying: SetPartition

    def __post_init__(self) -> None:
        if not is_noncrossing(self.underlying):
            raise CrossingPartition(f"partition {self.underlying} has a crossing")

    @staticmethod
    def of(m: int, blocks: Iterable[Iterable[int]]) -> "NCPartition":
        return NCPartition(SetPartition.of(m, blocks))

    @staticmethod
    def parse(text: str) -> "NCPartition":
        return NCPartition(SetPartition.parse(text))

    @staticmethod
    def bottom(m: int) -> "NCPartition":
        """The discrete partition into singletons."""
        return NCPartition(SetPartition(m, tuple((i,) for i in range(1, m + 1))))

    @staticmethod
    def top(m: int) -> "NCPartition":
        """The one-block partition (no blocks when m = 0, like the bottom)."""
        return NCPartition(SetPartition(m, (tuple(range(1, m + 1)),) if m else ()))

    @property
    def m(self) -> int:
        return self.underlying.m

    @property
    def blocks(self) -> Blocks:
        return self.underlying.blocks

    @property
    def n_blocks(self) -> int:
        return len(self.underlying.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __str__(self) -> str:
        return str(self.underlying)

    def to_json(self) -> dict:
        return self.underlying.to_json()


def _trusted(underlying: SetPartition) -> NCPartition:
    """Wrap a partition that is non-crossing by construction, skipping the
    check in ``NCPartition.__post_init__``."""
    p = object.__new__(NCPartition)
    object.__setattr__(p, "underlying", underlying)
    return p


def rank(p: NCPartition) -> int:
    """rk(p) = m - number of blocks: 0 at the singletons, m - 1 at one block."""
    return p.m - p.n_blocks


def _same_ground(p: NCPartition, q: NCPartition) -> None:
    if p.m != q.m:
        raise GroundSetMismatch(f"ground sets differ: {p.m} vs {q.m}")


def refine_le(p: NCPartition, q: NCPartition) -> bool:
    """The refinement order p <= q: every block of p sits inside a block of q."""
    _same_ground(p, q)
    qix = q.underlying.index_map()
    for b in p.blocks:
        k = qix[b[0]]
        for e in b[1:]:
            if qix[e] != k:
                return False
    return True


def meet_nc(p: NCPartition, q: NCPartition) -> NCPartition:
    """Greatest lower bound: blockwise intersection, inherited from set partitions."""
    _same_ground(p, q)
    pix = p.underlying.index_map()
    qix = q.underlying.index_map()
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(1, p.m + 1):
        groups.setdefault((pix[i], qix[i]), []).append(i)
    return _trusted(SetPartition(p.m, tuple(sorted(tuple(g) for g in groups.values()))))


def join_nc(p: NCPartition, q: NCPartition) -> NCPartition:
    """Least upper bound in NC(m), through Kreweras duality.

    The complement K reverses refinement bijectively (Kreweras 1972), so it
    turns joins into meets, and K^{-1} is K followed by a rotation up by
    one, since K applied twice rotates labels down by one.
    """
    return rotate(kreweras(meet_nc(kreweras(p), kreweras(q))), 1)


def _cycle_map(p: NCPartition) -> list[int]:
    """nxt[i] = successor of i when each block cycles upward (b1 -> b2 -> ... -> b1)."""
    nxt = [0] * (p.m + 1)
    for b in p.blocks:
        for a, s in zip(b, b[1:] + (b[0],)):
            nxt[a] = s
    return nxt


def kreweras(p: NCPartition) -> NCPartition:
    """The Kreweras complement of p.

    A dual point sits in each arc (i, i+1) (the one after i); the complement
    joins dual points as coarsely as the chords of p allow.  Concretely its
    blocks are the orbits of i -> s^{-1}(i+1) where s cycles each block of p
    upward.  It reverses refinement, and applying it twice rotates labels
    down by one.

    >>> str(kreweras(NCPartition.parse("1|2 6 7|3 5|4|8")))
    '1 7 8|2 5|3 4|6'
    >>> str(kreweras(NCPartition.parse("1 7 8|2 5|3 4|6")))
    '1 5 6|2 4|3|7|8'
    """
    m = p.m
    nxt = _cycle_map(p)
    inv = [0] * (m + 1)
    for i in range(1, m + 1):
        inv[nxt[i]] = i
    seen = [False] * (m + 1)
    blocks = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i = inv[i % m + 1]
        blocks.append(tuple(sorted(orbit)))
    return _trusted(SetPartition(m, tuple(sorted(blocks))))


def rotate(p: NCPartition, k: int = 1) -> NCPartition:
    """Relabel i -> i + k cyclically (values kept in 1..m)."""
    m = p.m
    blocks = tuple(
        sorted(tuple(sorted((e - 1 + k) % m + 1 for e in b)) for b in p.blocks)
    )
    return _trusted(SetPartition(m, blocks))


def blockwise_complement(p: NCPartition, q: NCPartition) -> tuple[int, ...]:
    """Block sizes of the Kreweras complement of p taken inside each block of q.

    Each block B of q carries the restriction of p, relabeled to 1..|B| by
    position; the complement block sizes, pooled over all B and sorted
    descending, describe the interval [p, q] as a product of full lattices
    NC(size).  Their (size - 1) values add up to rank(q) - rank(p).
    """
    if not refine_le(p, q):
        raise NotComparable(f"{p} is not a refinement of {q}")
    sizes: list[int] = []
    for B in q.blocks:
        pos = {e: i + 1 for i, e in enumerate(B)}
        sub_blocks = [tuple(pos[e] for e in pb) for pb in p.blocks if pb[0] in pos]
        sub = _trusted(SetPartition(len(B), tuple(sub_blocks)))
        sizes.extend(len(c) for c in kreweras(sub).blocks)
    return tuple(sorted(sizes, reverse=True))


def mobius_closed(p: NCPartition, q: NCPartition) -> int:
    """Mobius value through the interval decomposition.

    [p, q] factors as a product of full lattices NC(s) over the blockwise
    complement sizes s, and each full NC(s) contributes (-1)^(s-1) C_{s-1}.
    """
    out = 1
    for s in blockwise_complement(p, q):
        out *= (-1) ** (s - 1) * catalan(s - 1)
    return out


# ---------------------------------------------------------------------------
# Enumeration.
#
# NC(elems), for an ascending label tuple elems, is generated over its own
# labels in lexicographic order of canonical block tuples.  The block b1 of
# the smallest label takes each subset of the other labels in lex order; the
# rest fall into the gaps between consecutive members of b1, each gap a run
# of consecutive entries of elems with its own non-crossing partition.  The
# blocks of an earlier gap have smaller minima than those of a later one, so
# b1 then each gap's blocks in gap order is already canonical: no sort.  The
# first gap's lists are streamed outermost, and the later gaps' lists, held
# while b1 is fixed, run inside them in gap order, which is lex order.  Only
# label tuples of at most _SHORT labels keep their lists, at most C_7 = 429
# each, in a process-wide cache.  Its keys are sets of at most 7 labels from
# 1..m, m under the enumeration cap; over NC(m) they are runs of consecutive
# labels, at most 7m + 1 of them.

_SHORT = 7


def _index_subsets(lo: int, n: int) -> Iterator[tuple[int, ...]]:
    """Ascending tuples drawn from lo..n-1, in lexicographic order."""
    yield ()
    for i in range(lo, n):
        for tail in _index_subsets(i + 1, n):
            yield (i,) + tail


def _blocklists(elems: tuple[int, ...]) -> Iterable[Blocks]:
    """Canonical non-crossing block lists over elems, in lexicographic order:
    streamed for long tuples, cached for short ones."""
    return _generate(elems) if len(elems) > _SHORT else _short_blocklists(elems)


@cache
def _short_blocklists(elems: tuple[int, ...]) -> tuple[Blocks, ...]:
    return tuple(_generate(elems))


def _generate(elems: tuple[int, ...]) -> Iterator[Blocks]:
    n = len(elems)
    if not n:
        yield ()
        return
    for picks in _index_subsets(1, n):
        b1 = (elems[0], *[elems[i] for i in picks])
        cuts = (0, *picks, n)
        gaps = [elems[a + 1 : b] for a, b in zip(cuts, cuts[1:]) if b > a + 1] or [()]
        tails: list[Blocks] = [()]
        for gap in gaps[1:]:
            lists = tuple(_blocklists(gap))
            tails = [t + bl for t in tails for bl in lists]
        for bl in _blocklists(gaps[0]):
            yield from map((b1, *bl).__add__, tails)


def _nc_blocklists(m: int, cap: int | None) -> Iterable[Blocks]:
    if m < 0:
        raise FormatError("m must be non-negative")
    _check_cap(m, cap)
    return _blocklists(tuple(range(1, m + 1)))


def iter_nc(m: int, cap: int | None = None) -> Iterator[NCPartition]:
    """Stream NC(m) in lexicographic order of canonical block tuples."""
    for bl in _nc_blocklists(m, cap):
        yield _trusted(SetPartition(m, bl))


def enumerate_nc(m: int, cap: int | None = None) -> list[NCPartition]:
    """All of NC(m) as a list, in the documented lexicographic order."""
    return list(iter_nc(m, cap))


def count_nc(m: int, cap: int | None = None) -> int:
    """|NC(m)|, counted over the enumeration without building partitions."""
    return sum(1 for _ in _nc_blocklists(m, cap))


class _Above:
    """Walks intervals [p, w] upward from p, one block C of w at a time:
    p <= w holds blockwise, so [p, w] is the product of the members of NC(C)
    above p restricted to C.  A partition's key sums s * (m + 1)^i over each
    label i whose block goes on to s; the digits make keys distinct, and a
    product's key is the sum of its factors' keys, so no tuple is sorted."""

    def __init__(self, p: NCPartition):
        self._pix = p.underlying.index_map()
        power = [(p.m + 1) ** i for i in range(p.m + 1)]
        self._block_key = cache(lambda b: sum(s * power[a] for a, s in zip(b, b[1:])))
        self._keys: dict[tuple[int, ...], list[int]] = {}

    def coarsenings(self, C: tuple[int, ...]) -> Iterable[Blocks]:
        """Members of NC(C) above p restricted to C, C a union of p's blocks."""
        pix = self._pix
        parts = len({pix[e] for e in C})
        lists = _blocklists(C)
        if parts == len(C):
            return lists
        # above p iff no block of p meets two of its blocks
        return (bl for bl in lists if sum(len({pix[e] for e in b}) for b in bl) == parts)

    def key(self, blocks: Blocks) -> int:
        return sum(map(self._block_key, blocks))

    def interval_keys(self, blocks: Blocks) -> list[int]:
        """Keys of every v with p <= v <= w, for w given by its blocks."""
        out = [0]
        for C in blocks:
            keys = self._keys.get(C)
            if keys is None:
                keys = self._keys[C] = list(map(self.key, self.coarsenings(C)))
            out = [a + k for a in out for k in keys]
        return out


def interval(p: NCPartition, q: NCPartition) -> list[NCPartition]:
    """All w with p <= w <= q, sorted by rank then block tuples; the
    enumeration cap bounds m, as for :func:`iter_nc`."""
    if not refine_le(p, q):
        raise NotComparable(f"{p} is not a refinement of {q}")
    _check_cap(q.m, None)
    walk = _Above(p)
    elems = [
        _trusted(SetPartition(q.m, tuple(sorted(chain.from_iterable(combo)))))
        for combo in product(*[tuple(walk.coarsenings(B)) for B in q.blocks])
    ]
    elems.sort(key=lambda w: (rank(w), w.blocks))
    return elems


def mobius_nc(p: NCPartition, q: NCPartition) -> int:
    """Mobius value by the defining recursion: mu(p, p) = 1 and, for p < q,
    mu(p, q) = -sum of mu(p, v) over p <= v < q.

    Values mu(p, w) are accumulated upward in rank order; each step sums over
    [p, w], walked blockwise from p, so no comparability scan is needed.
    """
    walk = _Above(p)
    mu: dict[int, int] = {}
    for w in interval(p, q):
        k = walk.key(w.blocks)
        mu[k] = 0  # leaves w out of its own sum
        mu[k] = 1 if w == p else -sum(map(mu.__getitem__, walk.interval_keys(w.blocks)))
    return mu[walk.key(q.blocks)]
