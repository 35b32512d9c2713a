"""Shared oracles for the test suite, and the wall-clock budget that the
acceptance gate and the command tests run their checks under.

Every oracle here is deliberately written from first principles — slow,
literal implementations used to cross-check the fast library code.
"""

from __future__ import annotations

import ast
import io
import math
import time
import tokenize
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product

from noncross.coxeter import (
    _letter_pairs,
    _lowering,
    _reflection,
    _reflection_length,
    dual_braid_relations,
    hurwitz_act,
    identity,
    inv,
    mul,
)
from noncross.errors import FormatError
from noncross.freeprob import MomentSequence
from noncross.partitions import (
    NCPartition,
    blockwise_complement,
    catalan,
    enumerate_nc,
    kreweras,
    rank,
    refine_le,
)
from noncross.series import _inverse_coeffs

Blocks = tuple[tuple[int, ...], ...]


@contextmanager
def budget(criterion: str, seconds: float):
    """Fail the enclosing check when its body runs longer than seconds."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{criterion}: {elapsed:.1f}s exceeded {seconds}s budget"
    print(f"PASS {criterion} in {elapsed:.2f}s")


def all_set_partitions(m: int) -> list[Blocks]:
    """Every set partition of {1..m} in canonical form, via growth strings."""
    out: list[Blocks] = []

    def rec(i: int, labels: list[int], k: int) -> None:
        if i == m:
            blocks: list[list[int]] = [[] for _ in range(k)]
            for idx, lab in enumerate(labels, start=1):
                blocks[lab].append(idx)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for lab in range(k + 1):
            labels.append(lab)
            rec(i + 1, labels, max(k, lab + 1))
            labels.pop()

    rec(0, [], 0)
    return out


def has_crossing_quadruple(blocks: Blocks, m: int) -> bool:
    """Literal definition: a < b < c < d with {a, c} and {b, d} split across
    two distinct blocks."""
    owner = {}
    for bi, block in enumerate(blocks):
        for x in block:
            owner[x] = bi
    for a, b, c, d in combinations(range(1, m + 1), 4):
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
            return True
    return False


@cache
def nc_all(m: int) -> tuple[NCPartition, ...]:
    return tuple(enumerate_nc(m))


def blocks_refine(p: Blocks, q: Blocks) -> bool:
    """p <= q by the definition: every block of p sits inside a block of q."""
    qsets = [set(b) for b in q]
    return all(any(set(b) <= s for s in qsets) for b in p)


def brute_meet(p: NCPartition, q: NCPartition) -> NCPartition:
    lower = [
        w
        for w in nc_all(p.m)
        if blocks_refine(w.blocks, p.blocks) and blocks_refine(w.blocks, q.blocks)
    ]
    best = [w for w in lower if all(blocks_refine(x.blocks, w.blocks) for x in lower)]
    assert len(best) == 1, "meet must exist and be unique"
    return best[0]


def brute_join(p: NCPartition, q: NCPartition) -> NCPartition:
    upper = [
        w
        for w in nc_all(p.m)
        if blocks_refine(p.blocks, w.blocks) and blocks_refine(q.blocks, w.blocks)
    ]
    best = [w for w in upper if all(blocks_refine(w.blocks, x.blocks) for x in upper)]
    assert len(best) == 1, "join must exist and be unique"
    return best[0]


def random_fractions(rng, count: int, *, first_nonzero: bool = False) -> list[Fraction]:
    """Small random rationals for transform round trips."""
    out = []
    for i in range(count):
        num = rng.randrange(-6, 7)
        if first_nonzero and i == 0:
            while num == 0:
                num = rng.randrange(-6, 7)
        out.append(Fraction(num, rng.randrange(1, 5)))
    return out


# ---------------------------------------------------------------------------
# Oracles for the transform engine.  The library solves
# M(z) = 1 + sum_s k_s z^s M(z)^s degree by degree and sums the Kreweras
# pairs in closed form; these take independent routes: sums over the
# block-size profiles of NC(n), Mobius values, the O(n^4) triangular series
# inverse and the defining transform formulas.


def _sizes(p: NCPartition) -> tuple[int, ...]:
    return tuple(sorted((len(b) for b in p.blocks), reverse=True))


@cache
def nc_profiles(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Distinct (block sizes of p, block sizes of K(p), multiplicity) over
    NC(n), by enumerating NC(n) and taking every Kreweras complement."""
    counter = Counter((_sizes(p), _sizes(kreweras(p))) for p in nc_all(n))
    return tuple((a, b, k) for (a, b), k in sorted(counter.items()))


def product_over(sizes: tuple[int, ...], values: tuple[Fraction, ...]) -> Fraction:
    out = Fraction(1)
    for s in sizes:
        out *= values[s - 1]
    return out


def lattice_kreweras_cumulants(ka, kb) -> tuple[Fraction, ...]:
    """k_n(ab) = sum over p in NC(n) of k_p(a) k_{K(p)}(b), from the profile
    table."""
    ka, kb = tuple(ka), tuple(kb)
    return tuple(
        sum(
            (mult * product_over(sizes, ka) * product_over(csizes, kb) for sizes, csizes, mult in nc_profiles(n)),
            Fraction(0),
        )
        for n in range(1, len(ka) + 1)
    )


def lattice_free_mult(a, b) -> tuple[Fraction, ...]:
    """Moments of the product of free elements with moments a and b, all on
    the lattice: Mobius cumulants, the complement pairing, the moment sum."""
    return lattice_moments(lattice_kreweras_cumulants(mobius_cumulants(a), mobius_cumulants(b)))


def lattice_moments(kappa) -> tuple[Fraction, ...]:
    """m_n = sum over NC(n) of the product of k_{|B|}, from the profile table."""
    values = tuple(kappa)
    return tuple(
        sum((mult * product_over(sizes, values) for sizes, _c, mult in nc_profiles(n)), Fraction(0))
        for n in range(1, len(values) + 1)
    )


def _mobius_to_top(csizes: tuple[int, ...]) -> int:
    """mu(q, full block) given the block sizes of the complement of q."""
    out = 1
    for s in csizes:
        out *= (-1) ** (s - 1) * catalan(s - 1)
    return out


def mobius_cumulants(moments) -> tuple[Fraction, ...]:
    """k_n = sum over q in NC(n) of (product of m_{|B|}) mu(q, top)."""
    values = tuple(moments)
    return tuple(
        sum(
            (mult * product_over(sizes, values) * _mobius_to_top(csizes) for sizes, csizes, mult in nc_profiles(n)),
            Fraction(0),
        )
        for n in range(1, len(values) + 1)
    )


def triangular_cumulants(moments) -> tuple[Fraction, ...]:
    """Peel the one-block partition out of the moment sum and solve upward."""
    values = tuple(moments)
    kappa: list[Fraction] = []
    for n in range(1, len(values) + 1):
        padded = tuple(kappa) + (Fraction(0),) * n
        rest = sum(
            (mult * product_over(sizes, padded) for sizes, _c, mult in nc_profiles(n) if sizes != (n,)),
            Fraction(0),
        )
        kappa.append(values[n - 1] - rest)
    return tuple(kappa)


def lattice_clt_parts(kappa, n: int, N: int) -> tuple[Fraction, Fraction]:
    """Moment n of the rescaled free sum (a_1 + ... + a_N)/sqrt(N), split as
    whole + half * sqrt(N): a partition with b blocks carries N^(b - n/2)."""
    values = tuple(kappa)
    whole = half = Fraction(0)
    for sizes, _csizes, mult in nc_profiles(n):
        term = mult * product_over(sizes, values)
        e2 = 2 * len(sizes) - n  # twice the exponent of N
        if e2 % 2 == 0:
            whole += term * Fraction(N) ** (e2 // 2)
        else:
            half += term * Fraction(N) ** ((e2 - 1) // 2)
    return whole, half


def lattice_clt_moments(kappa, N: int) -> tuple[Fraction, ...] | None:
    """The rescaled moments, or None where a sqrt(N) survives irrationally."""
    root = math.isqrt(N)
    out = []
    for n in range(1, len(tuple(kappa)) + 1):
        whole, half = lattice_clt_parts(kappa, n, N)
        if half and root * root != N:
            return None
        out.append(whole + half * root)
    return tuple(out)


def lattice_clt_even_moments(kappa, N: int) -> tuple[Fraction, ...]:
    out = []
    for n in range(2, len(tuple(kappa)) + 1, 2):
        whole, half = lattice_clt_parts(kappa, n, N)
        assert half == 0, "even moments never carry sqrt(N)"
        out.append(whole)
    return tuple(out)


# Truncated series are coefficient tuples (c_0, ..., c_N) of one order N.


def series_product(f, g) -> tuple[Fraction, ...]:
    """The Cauchy product of f and g, truncated at their order."""
    return tuple(sum((f[i] * g[k - i] for i in range(k + 1)), Fraction(0)) for k in range(len(f)))


def reciprocal(f) -> tuple[Fraction, ...]:
    """1 / f for f with nonzero constant term."""
    out = [1 / Fraction(f[0])]
    for k in range(1, len(f)):
        out.append(-out[0] * sum(f[j] * out[k - j] for j in range(1, k + 1)))
    return tuple(out)


def compose(f, g) -> tuple[Fraction, ...]:
    """f(g) for g with zero constant term (Horner over truncated series)."""
    if g[0]:
        raise FormatError("composition needs inner constant term zero")
    out = (f[-1],) + (Fraction(0),) * (len(f) - 1)
    for c in reversed(f[:-1]):
        out = series_product(out, g)
        out = (out[0] + c,) + out[1:]
    return out


def triangular_inverse(f) -> tuple[Fraction, ...]:
    """f^(-1) one coefficient at a time, by a full composition per degree."""
    h = [Fraction(0)] * len(f)
    h[1] = 1 / Fraction(f[1])
    for k in range(2, len(f)):
        h[k] = -compose(f, h)[k] / f[1]
    return tuple(h)


def lagrange_inverse_coefficient(f, n: int) -> Fraction:
    """Lagrange inversion: n [z^n] f^(-1) = [z^(n-1)] (z / f(z))^n."""
    base = reciprocal(tuple(f[1:]) + (0,))
    power = (1,) + (0,) * (len(f) - 1)
    for _ in range(n):
        power = series_product(power, base)
    return power[n - 1] / n


def functional_r_transform(m: MomentSequence) -> tuple[Fraction, ...]:
    """R from its defining equation R(z M(z) + z) = M(z)."""
    M = (Fraction(0), *m.values)
    u = (Fraction(0), Fraction(1), *m.values[:-1])  # z M(z) + z
    return compose(M, triangular_inverse(u))


def s_transform_via_r(m: MomentSequence) -> tuple[Fraction, ...]:
    """S(z) = R^(-1)(z) / z, the other defining formula."""
    return triangular_inverse(functional_r_transform(m))[1:]


def bessel_by_inversion(ell: int, order: int) -> tuple[Fraction, ...]:
    """Free Bessel moments from the S-transform 1/(1+z)^ell: the
    compositional inverse of z/(1+z)^(ell+1), by the production kernel."""
    one_plus_z = (1, 1) + (0,) * (order - 2)
    denom = (1,) + (0,) * (order - 1)
    for _ in range(ell + 1):
        denom = series_product(denom, one_plus_z)
    return tuple(_inverse_coeffs(reciprocal(denom), order))


def nc_pair_count(n: int) -> int:
    """Number of non-crossing pair partitions of 1..n, by direct recursion
    over the partner of the first point."""
    if n < 0:
        raise FormatError("n must be >= 0")
    if n % 2:
        return 0
    return sum(nc_pair_count(inside) * nc_pair_count(n - 2 - inside) for inside in range(0, n - 1, 2)) if n else 1


# ---------------------------------------------------------------------------
# Second routes to |NC(m)| and to mu of NC(s), by the first-block
# decomposition that the library's generator walks, with nothing enumerated
# and no Catalan formula.  The library prints both from the closed forms.


def first_block_count(m: int) -> int:
    """|NC(m)| from the decomposition the generator walks.  The first block's
    members split the other labels into gaps, each filled by a smaller NC.
    With N(n) lists over n labels and G(r) the fillings of the r labels after
    a first-block member (one gap, or a gap of j labels then the next
    member): N(0) = 1, N(n) = G(n - 1) and G(r) = N(r) + sum of
    N(j) * G(r - 1 - j) over j < r.  O(m^2) integer work."""
    lists, fills = [1], []
    for r in range(m):
        fills.append(lists[r] + sum(lists[j] * fills[r - 1 - j] for j in range(r)))
        lists.append(fills[r])
    return lists[m]


@cache
def first_block_mobius(s: int) -> int:
    """mu(bottom, top) of NC(s) by the first-block recursion.

    mu(bottom, x) is the product of mu_|B| over the blocks B of x, and these
    sum to 0 over NC(s) for s >= 2.  Grouped by the block of 1, of size k,
    the partitions of each gap it leaves sum to 0 unless the gap holds at
    most one point, so mu_s = -sum of C(k, s - k) mu_k over s/2 <= k < s.
    Filling the cache in ascending s keeps each call one level deep.
    """
    if s == 1:
        return 1
    return -sum(math.comb(k, s - k) * first_block_mobius(k) for k in range(s - 1, (s - 1) // 2, -1))


def first_block_interval_mobius(p: NCPartition, q: NCPartition) -> int:
    """mu(p, q) as the product of :func:`first_block_mobius` over the factors
    NC(s) of [p, q]."""
    return math.prod(map(first_block_mobius, blockwise_complement(p, q)))


# ---------------------------------------------------------------------------
# Order oracle for the enumeration: the relabeling enumerator.  It builds the
# block lists of NC(k) over 1..k once per k, relabels them onto each gap and
# sorts every result, so it shares neither the streaming nor the canonical
# concatenation with the library's generator.


def _lex_subsets(elems: tuple[int, ...]):
    yield ()
    for i in range(len(elems)):
        for tail in _lex_subsets(elems[i + 1 :]):
            yield (elems[i],) + tail


@cache
def _relabeled_lists(k: int) -> tuple[Blocks, ...]:
    return tuple(_relabeled_build(tuple(range(1, k + 1))))


def _relabeled_build(elems: tuple[int, ...]):
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for sub in _lex_subsets(rest):
        in_sub = set(sub)
        gaps: list[list[int]] = [[] for _ in range(len(sub) + 1)]
        g = 0
        for e in rest:
            if e in in_sub:
                g += 1
            else:
                gaps[g].append(e)
        gap_lists = [
            [tuple(tuple(gap[i - 1] for i in b) for b in bl) for bl in _relabeled_lists(len(gap))]
            for gap in gaps
        ]
        for combo in product(*gap_lists):
            out = [(first,) + sub]
            for part in combo:
                out.extend(part)
            yield tuple(sorted(out))


def relabeled_nc_blocklists(m: int) -> tuple[Blocks, ...]:
    """NC(m) as canonical block tuples in lexicographic order."""
    return _relabeled_lists(m)


# ---------------------------------------------------------------------------
# Oracles for the order structure of NC(m): every comparable pair by
# refinement, covers by ruling out intermediate elements or by merging two
# blocks, the maximal-chain census by a path count over the covers, and
# Mobius values by the defining recursion over the order matrix.


def le_matrix(elems) -> list[list[bool]]:
    """le[i][j] = elems[i] refines elems[j]: each block of elems[i] meets
    exactly one block of elems[j], so the points carry as many distinct
    (block in i, block in j) pairs as elems[i] has blocks."""
    owners = [v.index_map()[1:] for v in elems]
    return [[len(set(zip(iu, iv))) == u.n_blocks for iv in owners] for u, iu in zip(elems, owners)]


def scanned_covers(elems) -> list[list[int]]:
    """covers[i] = indices j with elems[i] < elems[j] and nothing between."""
    le = le_matrix(elems)
    n = len(elems)
    above = [{j for j in range(n) if le[i][j] and j != i} for i in range(n)]
    below = [{i for i in range(n) if le[i][j] and i != j} for j in range(n)]
    return [sorted(j for j in above[i] if not above[i] & below[j]) for i in range(n)]


def merge_covers(elems) -> list[list[int]]:
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


def walked_chain_census(m: int) -> dict:
    """The fields of ``complexes.chain_census(m)`` read off the covers of the
    listed NC(m): paths from bottom to top tallied by edge count, the rank
    step of every cover, and whether every element lies on a maximal chain."""
    elems = nc_all(m)
    n = len(elems)
    covers = merge_covers(elems)
    bottom = next(i for i in range(n) if elems[i].n_blocks == m)
    top = next(i for i in range(n) if elems[i].n_blocks == 1)

    rank_steps_ok = all(rank(elems[j]) == rank(elems[i]) + 1 for i in range(n) for j in covers[i])

    counts: list[dict[int, int]] = [dict() for _ in range(n)]
    counts[bottom] = {0: 1}
    for i in sorted(range(n), key=lambda i: rank(elems[i])):
        for length, num in counts[i].items():
            for j in covers[i]:
                counts[j][length + 1] = counts[j].get(length + 1, 0) + num
    lengths = dict(sorted(counts[top].items()))

    # A walk down covers ends at an element covering nothing and a walk up at
    # one covered by nothing: every element lies on a maximal chain iff only
    # the bottom covers nothing and only the top is covered by nothing.
    covered = {j for up in covers for j in up}
    all_on_chains = len(covered | {bottom}) == n and all(up or i == top for i, up in enumerate(covers))

    return {
        "m": m,
        "maximal_chains": sum(lengths.values()),
        "lengths": lengths,
        "graded": rank_steps_ok and all_on_chains and set(lengths) == {m - 1},
        "rank_steps_ok": rank_steps_ok,
        "all_elements_on_maximal_chains": all_on_chains,
    }


def mobius_table(le: list[list[bool]]) -> dict[tuple[int, int], int]:
    """mu for every comparable pair of a finite poset given by its order matrix."""
    n = len(le)
    order = sorted(range(n), key=lambda i: sum(le[k][i] for k in range(n)))
    table: dict[tuple[int, int], int] = {}
    for u in range(n):
        table[(u, u)] = 1
        for v in order:
            if v != u and le[u][v]:
                table[(u, v)] = -sum(table[(u, w)] for w in range(n) if w != v and le[u][w] and le[w][v])
    return table


# ---------------------------------------------------------------------------
# Oracles for intervals [p, q] of NC(m), walked element by element.  The
# library reads mu and the f-vector off the sizes of the full lattices whose
# product is [p, q]; these list the interval, run the defining Mobius
# recursion over it and visit every chain of its open part.


class IntervalWalk:
    """Walks intervals [p, w] upward from p, one block C of w at a time:
    p <= w holds blockwise, so [p, w] is the product of the members of NC(C)
    above p restricted to C.  A partition's key sums s * (m + 1)^i over each
    label i whose block goes on to s; the digits make keys distinct, and a
    product's key is the sum of its factors' keys, so no tuple is sorted."""

    def __init__(self, p: NCPartition):
        self._pix = p.index_map()
        power = [(p.m + 1) ** i for i in range(p.m + 1)]
        self._block_key = cache(lambda b: sum(s * power[a] for a, s in zip(b, b[1:])))
        self._keys: dict[tuple[int, ...], list[int]] = {}

    def coarsenings(self, C: tuple[int, ...]) -> list[Blocks]:
        """Members of NC(C) above p restricted to C, C a union of p's blocks:
        NC(|C|) relabeled through C, which keeps the lexicographic order."""
        pix = self._pix
        parts = len({pix[e] for e in C})
        lists = (tuple(tuple(C[i - 1] for i in b) for b in w.blocks) for w in nc_all(len(C)))
        # above p iff no block of p meets two of its blocks
        return [bl for bl in lists if sum(len({pix[e] for e in b}) for b in bl) == parts]

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
    """All w with p <= w <= q, sorted by rank then block tuples."""
    assert refine_le(p, q), f"{p} is not a refinement of {q}"
    walk = IntervalWalk(p)
    elems = [
        NCPartition(q.m, tuple(sorted(chain.from_iterable(combo))))
        for combo in product(*[walk.coarsenings(B) for B in q.blocks])
    ]
    elems.sort(key=lambda w: (rank(w), w.blocks))
    return elems


def mobius_walk(p: NCPartition, q: NCPartition) -> int:
    """mu(p, q) by the defining recursion over the elements of [p, q]:
    mu(p, p) = 1 and mu(p, w) = -sum of mu(p, v) over p <= v < w, upward in
    rank order."""
    walk = IntervalWalk(p)
    mu: dict[int, int] = {}
    for w in interval(p, q):
        k = walk.key(w.blocks)
        mu[k] = 0  # leaves w out of its own sum
        mu[k] = 1 if w == p else -sum(map(mu.__getitem__, walk.interval_keys(w.blocks)))
    return mu[walk.key(q.blocks)]


def chain_scan(above: list[list[int]]) -> list[int]:
    """The f-vector of the chains of a strict order on 0..n-1, given the
    elements above each one; every chain is visited once through its
    increasing enumeration."""
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


def walked_f_vector(p: NCPartition, q: NCPartition) -> tuple[int, ...]:
    """The f-vector of the order complex of {w : p < w < q} by
    :func:`chain_scan` over the open interval."""
    elems = interval(p, q)[1:-1]
    walk = IntervalWalk(p)
    index = {walk.key(w.blocks): i for i, w in enumerate(elems)}
    above: list[list[int]] = [[] for _ in elems]
    for j, w in enumerate(elems):
        for v in walk.interval_keys(w.blocks):
            i = index.get(v)
            if i is not None and i != j:
                above[i].append(j)
    return tuple(chain_scan(above))


# ---------------------------------------------------------------------------
# Oracles for the Coxeter layer: whole-group scans, exact linear algebra and
# the defining properties that the library replaces by signed cycle types.


@cache
def name_of(ctx) -> dict:
    """Every reflection of ctx with its printed name, in reflection order:
    the table of T that the library no longer builds."""
    return {
        _reflection(ctx.n, i, j, sign): f"t({i + 1})" if j < 0 else f"t({i + 1},{j + 1},{'+-'[sign < 0]})"
        for i, j, sign in _letter_pairs(ctx.family, range(ctx.n))
    }


@cache
def reflections(ctx) -> tuple:
    """T in reflection order."""
    return tuple(name_of(ctx))


def ordered_product(ctx, factors) -> tuple:
    """t_1 t_2 ... t_k of a factor tuple, leftmost acting last."""
    out = identity(ctx.n)
    for t in factors:
        out = mul(out, t)
    return out


def generated_subgroup(ctx, gens) -> frozenset:
    """The subgroup the windows gens generate, by closing the identity under
    right multiplication by each of them."""
    seen = {identity(ctx.n)}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


@cache
def bfs_reflection_length(ctx) -> dict:
    """Graph distance from the identity in the Cayley graph over the full
    reflection set, for every element of the group."""
    start = identity(ctx.n)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for t in reflections(ctx):
                u = mul(w, t)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def nc_scan(ctx, c) -> list:
    """NC(W, c) by testing every element of W against c with the BFS
    lengths, sorted like `nc_set`."""
    dist = bfs_reflection_length(ctx)
    below = [u for u in ctx.elements if dist[u] + dist[mul(inv(u), c)] == dist[c]]
    return sorted(below, key=lambda u: (dist[u], u))


def lowering_by_filter(ctx, u) -> list:
    """The reflections t with l_T(t u) < l_T(u), by trying every t in T."""
    k = _reflection_length(u)
    return [t for t in reflections(ctx) if _reflection_length(mul(t, u)) < k]


def descent_by_filter(ctx, w):
    """Reduced factorizations of w, depth-first in reflection order, each
    step filtered over T."""
    lowering = lowering_by_filter(ctx, w)
    if not lowering:
        yield ()
    for t in lowering:
        for rest in descent_by_filter(ctx, mul(t, w)):
            yield (t, *rest)


def dual_braid_relations_by_scan(ctx, c) -> list:
    """(s, t, s t s) over every pair of distinct reflections with s t <= c."""
    lc = _reflection_length(c)
    return [
        (s, t, mul(mul(s, t), s))
        for s in reflections(ctx)
        for t in reflections(ctx)
        if s != t and 2 + _reflection_length(mul(inv(mul(s, t)), c)) == lc
    ]


def moves_covered_by_scan(ctx, c) -> bool:
    """Whether every braid move on the reduced factorizations of c rewrites
    by a dual braid relation: each adjacent pair (a, b) of each
    factorization, listed by the filtered descent, is an (s, t) of
    `dual_braid_relations(ctx, c)`."""
    pairs = {(s, t) for s, t, _ in dual_braid_relations(ctx, c)}
    return all(f[i : i + 2] in pairs for f in descent_by_filter(ctx, c) for i in range(len(f) - 1))


def hurwitz_act_inverse(f: tuple, i: int) -> tuple:
    """The inverse of the braid move at position i (0-based):
    (..., a, b, ...) -> (..., b, b a b^{-1}, ...)."""
    a, b = f[i], f[i + 1]
    return f[:i] + (b, mul(mul(b, a), b)) + f[i + 2 :]


def two_sided_hurwitz_orbits(factorizations) -> set[frozenset]:
    """The orbits of the braid moves and their inverses on a set of factor
    tuples closed under both, each as a frozenset of tuples."""
    pending, orbits = set(factorizations), set()
    while pending:
        todo = [pending.pop()]
        orbit = set(todo)
        while todo:
            f = todo.pop()
            for i in range(len(f) - 1):
                for g in (hurwitz_act(f, i), hurwitz_act_inverse(f, i)):
                    if g not in orbit:
                        orbit.add(g)
                        todo.append(g)
        pending -= orbit
        orbits.add(frozenset(orbit))
    return orbits


def pairwise_lattice_check(elems: list) -> bool:
    """Whether the absolute order on elems is a lattice, by the definition:
    some element lies above all, and for every pair the common lower bounds
    hold one that lies above the others."""
    lengths = [_reflection_length(u) for u in elems]
    le = [
        [
            u == v or lu < lv and lu + _reflection_length(mul(inv(u), v)) == lv
            for v, lv in zip(elems, lengths)
        ]
        for u, lu in zip(elems, lengths)
    ]
    n = len(elems)
    if not any(all(row[z] for row in le) for z in range(n)):
        return False
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if le[k][i] and le[k][j]]
            if not any(all(le[x][z] for x in lower) for z in lower):
                return False
    return True


def nc_lattice_check(ctx, elems: list) -> bool:
    """Whether elems, NC(W, c) as `nc_set` returns it or a subset of it, is a
    lattice under the absolute order: it has a top and every pair has a
    meet.  The CLI prints the flag as a theorem; this decides it.

    The ideal of v is the bitset of the u in elems with u <= v: v's own bit
    OR the ideals of the t v it covers, t in `_lowering(v)`, memoised over
    the down-sets of elems.  The common lower bounds of x and y are the AND
    of their ideals, and x and y have a meet z exactly when that AND is the
    ideal of z; likewise a top is an element whose ideal is everything.  In
    a finite poset with a top that suffices, since the join of x and y is
    the meet of their common upper bounds.
    """
    index = {u: k for k, u in enumerate(elems)}
    memo: dict = {}

    def ideal(v) -> int:
        if v not in memo:
            bits = 1 << index[v] if v in index else 0
            for t in _lowering(ctx, v):
                bits |= ideal(mul(t, v))
            memo[v] = bits
        return memo[v]

    ideals = [ideal(v) for v in elems]
    known = set(ideals)
    if (1 << len(elems)) - 1 not in known:
        return False
    return all(a & b in known for i, a in enumerate(ideals) for b in ideals[i + 1 :])


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """A basis of {v : rows v = 0}, by Gauss-Jordan elimination over Q."""
    rows = [r[:] for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(v)
    return basis


def fixed_space(ctx, w) -> list[list[Fraction]]:
    """A rational basis of {v : w v = v}, solving (w - 1) v = 0."""
    n = ctx.n
    rows = []
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] -= 1
        for i, wi in enumerate(w):
            if abs(wi) - 1 == j:
                row[i] += 1 if wi > 0 else -1
        rows.append(row)
    return kernel_basis(rows, n)


def root_of(t) -> tuple[int, ...]:
    """The root of a reflection window, read off the letters it moves:
    e_i for i -> -i, e_i - e_j for a swap, e_i + e_j for i -> -j."""
    i = next(k for k, x in enumerate(t, start=1) if x != k)
    root = [0] * len(t)
    root[i - 1] = 1
    j = t[i - 1]
    if j != -i:
        root[abs(j) - 1] = -1 if j > 0 else 1
    return tuple(root)


def apply_to_vector(w, v: list[Fraction]) -> list[Fraction]:
    """Push a coordinate vector through w: e_i goes to sign * e_{|w(i)|}."""
    out = [Fraction(0)] * len(v)
    for i, wi in enumerate(w):
        out[abs(wi) - 1] = v[i] if wi > 0 else -v[i]
    return out


def pointwise_stabilizer(ctx, vectors) -> frozenset:
    """All group elements fixing every given vector, by scanning the group."""
    return frozenset(g for g in ctx.elements if all(apply_to_vector(g, v) == v for v in vectors))


def conjugacy_class(ctx, w) -> frozenset:
    """The conjugacy class of w, by breadth-first search under reflections."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for t in reflections(ctx):
                y = mul(mul(t, x), t)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def reflection_by_name(ctx, name: str):
    """The reflection printed as name, by inverting `name_of`."""
    by_name = {n: t for t, n in name_of(ctx).items()}
    try:
        return by_name[name]
    except KeyError:
        raise FormatError(f"unknown reflection {name!r}") from None


def greedy_factorization(ctx, w) -> list:
    """A reduced reflection factorization of w, peeling off at each step the
    first reflection that shortens the BFS distance."""
    dist = bfs_reflection_length(ctx)
    factors, rest = [], w
    while dist[rest]:
        t = next(t for t in reflections(ctx) if dist[mul(t, rest)] == dist[rest] - 1)
        factors.append(t)
        rest = mul(t, rest)
    return factors


def generates_the_group(ctx, w) -> bool:
    """The quasi-Coxeter property by its definition: the reflections of a
    reduced factorization (the greedy one) generate W.  Braid moves keep the
    generated subgroup and act transitively on the factorizations of a
    quasi-Coxeter element, so one factorization decides it."""
    return generated_subgroup(ctx, greedy_factorization(ctx, w)) == frozenset(ctx.elements)


def closure_is_generated(ctx, w) -> bool:
    """The parabolic quasi-Coxeter property by its definition: a reduced
    factorization (the greedy one) generates the whole pointwise stabilizer
    of Fix(w)."""
    generated = generated_subgroup(ctx, greedy_factorization(ctx, w))
    return generated == pointwise_stabilizer(ctx, fixed_space(ctx, w))


# ---------------------------------------------------------------------------
# Oracle for the Monte Carlo kernel: W drawn as the README defines the
# variants, every power a, a^2, ..., a^k_max by repeated matrix products from
# the identity, each trace read off the diagonal.


def matmul_trial_moments(spec, k_max: int, trial: int):
    """tr(a^k) / n for k = 1..k_max by k_max full matrix products, with
    a = W W* and W the product of ell Ginibre matrices drawn in turn from the
    trial's substream, or the ell-th power of one."""
    import numpy as np

    from noncross.randmat import sample_ginibre, trial_rng

    rng = trial_rng(spec.seed, trial)

    def draw():
        return sample_ginibre(spec.n, rng, np.empty((spec.n, spec.n), dtype=complex), np.empty((spec.n, spec.n)))

    if spec.kind == "product":
        w = draw()
        for _ in range(spec.ell - 1):
            w = w @ draw()
    else:
        w = np.linalg.matrix_power(draw(), spec.ell)
    a = w @ w.conj().T
    out = np.empty(k_max)
    power = np.eye(spec.n, dtype=complex)
    for k in range(1, k_max + 1):
        power = power @ a
        out[k - 1] = np.trace(power).real / spec.n
    return out


# ---------------------------------------------------------------------------
# Size of the source: the code lines that the change log counts.


def code_lines(text: str) -> int:
    """The lines of Python source text that hold code: blank lines, comment
    lines and the lines of docstrings (the leading string of a module,
    class or function) are not counted."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)
