"""Shared oracles for the test suite.

Everything here is deliberately written from first principles — slow,
literal implementations used to cross-check the fast library code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from noncross.coxeter import generated_subgroup, identity, inv, mul
from noncross.errors import FormatError, OrderMismatch
from noncross.freeprob import MomentSequence, _nc_profiles, _product_over, moment_series
from noncross.partitions import NCPartition, catalan, enumerate_nc
from noncross.series import RationalSeries

Blocks = tuple[tuple[int, ...], ...]


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
# M(z) = 1 + sum_s k_s z^s M(z)^s degree by degree; these take independent
# routes: sums over the block-size profiles of NC(n), Mobius values, the
# O(n^4) triangular series inverse and the defining transform formulas.


def lattice_moments(kappa) -> tuple[Fraction, ...]:
    """m_n = sum over NC(n) of the product of k_{|B|}, from the profile table."""
    values = tuple(kappa)
    return tuple(
        sum((mult * _product_over(sizes, values) for sizes, _c, mult in _nc_profiles(n)), Fraction(0))
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
            (mult * _product_over(sizes, values) * _mobius_to_top(csizes) for sizes, csizes, mult in _nc_profiles(n)),
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
            (mult * _product_over(sizes, padded) for sizes, _c, mult in _nc_profiles(n) if sizes != (n,)),
            Fraction(0),
        )
        kappa.append(values[n - 1] - rest)
    return tuple(kappa)


def lattice_clt_parts(kappa, n: int, N: int) -> tuple[Fraction, Fraction]:
    """Moment n of the rescaled free sum (a_1 + ... + a_N)/sqrt(N), split as
    whole + half * sqrt(N): a partition with b blocks carries N^(b - n/2)."""
    values = tuple(kappa)
    whole = half = Fraction(0)
    for sizes, _csizes, mult in _nc_profiles(n):
        term = mult * _product_over(sizes, values)
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


def shift_up(f: RationalSeries) -> RationalSeries:
    """Multiply by z (same truncation order; the top coefficient drops off)."""
    return RationalSeries((Fraction(0),) + f.coeffs[:-1])


def compose(f: RationalSeries, g: RationalSeries) -> RationalSeries:
    """f(g) for g with zero constant term (Horner over truncated series)."""
    if f.order != g.order:
        raise OrderMismatch(f"series orders differ: {f.order} vs {g.order}")
    if g[0]:
        raise FormatError("composition needs inner constant term zero")
    out = RationalSeries.constant(f[f.order], f.order)
    for k in range(f.order - 1, -1, -1):
        out = out * g + RationalSeries.constant(f[k], f.order)
    return out


def triangular_inverse(f: RationalSeries) -> RationalSeries:
    """f^(-1) one coefficient at a time, by a full composition per degree."""
    n = f.order
    h = [Fraction(0)] * (n + 1)
    h[1] = 1 / f[1]
    for k in range(2, n + 1):
        h[k] = -compose(f, RationalSeries(tuple(h)))[k] / f[1]
    return RationalSeries(tuple(h))


def lagrange_inverse_coefficient(f: RationalSeries, n: int) -> Fraction:
    """Lagrange inversion: n [z^n] f^(-1) = [z^(n-1)] (z / f(z))^n."""
    base = RationalSeries(f.coeffs[1:] + (Fraction(0),)).reciprocal()
    power = RationalSeries.constant(1, f.order)
    for _ in range(n):
        power = power * base
    return power[n - 1] / n


def functional_r_transform(m: MomentSequence) -> RationalSeries:
    """R from its defining equation R(z M(z) + z) = M(z)."""
    M = moment_series(m)
    u = shift_up(M) + RationalSeries.identity(M.order)
    return compose(M, triangular_inverse(u))


def s_transform_via_r(m: MomentSequence) -> RationalSeries:
    """S(z) = R^(-1)(z) / z, the other defining formula."""
    return triangular_inverse(functional_r_transform(m)).shift_down()


def bessel_by_inversion(ell: int, order: int) -> tuple[Fraction, ...]:
    """Free Bessel moments from the S-transform 1/(1+z)^ell: the
    compositional inverse of z/(1+z)^(ell+1)."""
    one_plus_z = RationalSeries.constant(1, order) + RationalSeries.identity(order)
    denom = RationalSeries.constant(1, order)
    for _ in range(ell + 1):
        denom = denom * one_plus_z
    minv = RationalSeries.identity(order) * denom.reciprocal()
    return minv.compositional_inverse().coeffs[1:]


def nc_pair_count(n: int) -> int:
    """Number of non-crossing pair partitions of 1..n, by direct recursion
    over the partner of the first point."""
    if n < 0:
        raise FormatError("n must be >= 0")
    if n % 2:
        return 0
    return sum(nc_pair_count(inside) * nc_pair_count(n - 2 - inside) for inside in range(0, n - 1, 2)) if n else 1


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
# refinement, covers by ruling out intermediate elements, and Mobius values
# by the defining recursion over that matrix.


def le_matrix(elems) -> list[list[bool]]:
    """le[i][j] = elems[i] refines elems[j]: each block of elems[i] meets
    exactly one block of elems[j], so the points carry as many distinct
    (block in i, block in j) pairs as elems[i] has blocks."""
    owners = [v.underlying.index_map()[1:] for v in elems]
    return [[len(set(zip(iu, iv))) == u.n_blocks for iv in owners] for u, iu in zip(elems, owners)]


def scanned_covers(elems) -> list[list[int]]:
    """covers[i] = indices j with elems[i] < elems[j] and nothing between."""
    le = le_matrix(elems)
    n = len(elems)
    above = [{j for j in range(n) if le[i][j] and j != i} for i in range(n)]
    below = [{i for i in range(n) if le[i][j] and i != j} for j in range(n)]
    return [sorted(j for j in above[i] if not above[i] & below[j]) for i in range(n)]


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
# Oracles for the Coxeter layer: whole-group scans, exact linear algebra and
# the defining properties that the library replaces by signed cycle types.


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
            for t in ctx.reflections:
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
            for t in ctx.reflections:
                y = mul(mul(t, x), t)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def greedy_factorization(ctx, w) -> list:
    """A reduced reflection factorization of w, peeling off at each step the
    first reflection that shortens the BFS distance."""
    dist = bfs_reflection_length(ctx)
    factors, rest = [], w
    while dist[rest]:
        t = next(t for t in ctx.reflections if dist[mul(t, rest)] == dist[rest] - 1)
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
# Oracle for the Monte Carlo kernel: every power a, a^2, ..., a^k_max by
# repeated matrix products from the identity, each trace read off the
# diagonal.


def matmul_trial_moments(spec, k_max: int, trial: int):
    """tr(a^k) / n for k = 1..k_max, with a = W W* sampled as the kernel
    samples it, by k_max full matrix products."""
    import numpy as np

    from noncross.randmat import _gram

    a = _gram(spec, trial)
    out = np.empty(k_max)
    power = np.eye(spec.n, dtype=complex)
    for k in range(1, k_max + 1):
        power = power @ a
        out[k - 1] = np.trace(power).real / spec.n
    return out
