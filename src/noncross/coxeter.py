"""Dual Coxeter systems of types A, B, D on (signed) permutation windows.

Elements are windows: w = (w(1), ..., w(n)) with w(i) the signed image of
letter i; type A uses plain permutations (of rank + 1 letters), types B and D
signed ones, D restricted to an even number of sign changes.  The generating
set here is the full reflection set T, not just the simple reflections:
reflection length l_T, the absolute order u <= v iff
l_T(u) + l_T(u^{-1} v) = l_T(v), and the non-crossing set
NC(W, c) = {u : u <= c} below a Coxeter element c.

Reflection length is Carter's closed form l_T(w) = codim Fix(w): the letters
minus the cycles of |w| with an even number of sign changes.  NC(W, c) and the
reduced factorizations are walked down from c one reflection at a time, and
each step reads its lowering reflections off the signed cycle type (see
`_lowering_pairs`), trying only the reflections on the letters the element moves
instead of every t in T, so no query builds W or T.
One walk over the length levels of [1, w] (`_levels`) lists NC(W, c) and
counts the reduced factorizations of an arbitrary w, which bounds their
enumeration before it starts.  At a Coxeter element the numbers are
theorems read off the degrees of W (`invariants`): |NC(W, c)| = Cat(W) and
|Red_T(c)| = n! h^n / |W|, and NC(W, c) is a lattice (Bessis 2003, "The dual
braid monoid"; Brady and Watt 2008), so counting NC(W, c), its lattice flag
and the dual braid check walk nothing.  Only `abs_le`, which decides one
given pair, tests the length identity.

The signed cycle type also decides the remaining classes: Coxeter elements
(Carter 1972), quasi-Coxeter and parabolic quasi-Coxeter elements
(Baumeister, Gobet, Roberts and Wegener 2017), so no predicate needs roots
or linear algebra.  Reflections are windows named t(i,j,+) (swap i and j),
t(i,j,-) (i -> -j, j -> -i) and, in type B, t(i) (i -> -i).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import factorial, prod
from typing import Callable, Iterable, Iterator, NamedTuple

from . import partitions  # a lazy module: only the type A bridge runs it
from .caps import DEFAULT_RANK_CAP, FACTORIZATION_COUNT_CAP, NC_SET_COUNT_CAP, RANK_CAP_CEILING
from .errors import FormatError, NotBelowCoxeterElement, ResourceCapExceeded

Window = tuple[int, ...]


def mul(u: Window, v: Window) -> Window:
    """Compose windows: (u v)(i) = u(v(i)) (v acts first)."""
    return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in v])


def inv(w: Window) -> Window:
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        if x > 0:
            out[x - 1] = i
        else:
            out[-x - 1] = -i
    return tuple(out)


def identity(n: int) -> Window:
    return tuple(range(1, n + 1))


class CoxeterContext:
    """A reflection group of type A, B or D: its letters, the simple
    reflections and the default Coxeter element (product of the simple
    reflections in order), O(rank) windows in all.  A reflection is a rule
    over a pair of letters (`_letter_pairs`, `_reflection`), and its printed
    name is read off its window (`_name`), so nothing builds the table of T.
    Nothing of size |W| is built; `elements` closes the simples under
    multiplication on first use.
    No query reads `elements` or `order`, but they stay here: the
    benchmark's tracer reads them in its hooks on this constructor and on
    `nc_set`, so every traced `cox` run needs them.
    """

    def __init__(self, family: str, rank: int, rank_cap: int | None = None):
        family = family.upper()
        if family not in ("A", "B", "D"):
            raise FormatError(f"unknown family {family!r}; expected A, B or D")
        if rank < 1 or (family == "D" and rank < 2):
            raise FormatError(f"rank {rank} too small for family {family}")
        cap = DEFAULT_RANK_CAP[family] if rank_cap is None else rank_cap
        if rank > cap:
            raise ResourceCapExceeded(
                f"rank {rank} exceeds the cap {cap} for family {family}"
            )
        if rank > RANK_CAP_CEILING:  # before any reflection is built
            raise ResourceCapExceeded(f"rank {rank} exceeds the ceiling {RANK_CAP_CEILING} that no rank cap raises")
        self.family = family
        self.rank = rank
        self.n = n = rank + 1 if family == "A" else rank
        letters = range(1, n + 1)
        self._letters = frozenset(letters if family == "A" else [*letters, *(-i for i in letters)])

        # t(1) in B and t(1,2,-) in D ahead of the t(i,i+1,+).
        first = {"A": [], "B": [(0, -1, -1)], "D": [(0, 1, -1)]}[family]
        self.simples = tuple(_reflection(n, *t) for t in [*first, *((i, i + 1, 1) for i in range(n - 1))])
        self.coxeter_element = identity(n)
        for s in self.simples:
            self.coxeter_element = mul(self.coxeter_element, s)

    # -- basic queries -----------------------------------------------------

    @cached_property
    def elements(self) -> tuple[Window, ...]:
        """All of W, sorted."""
        return tuple(sorted(_closure([identity(self.n)], lambda x: (mul(x, s) for s in self.simples))))

    @property
    def order(self) -> int:
        return len(self.elements)

    def check_element(self, w: Window) -> Window:
        """w as a tuple if it is a window of this group (each letter once up
        to sign; no signs in type A, an even number in type D)."""
        w = tuple(w)
        if not (
            len(w) == self.n
            and set(w) <= self._letters
            and len({abs(x) for x in w}) == self.n
            and (self.family != "D" or sum(x < 0 for x in w) % 2 == 0)
        ):
            raise FormatError(f"{list(w)} is not an element of {self.family}_{self.rank}")
        return w

    def __repr__(self) -> str:
        return f"CoxeterContext({self.family}_{self.rank}, |T|={self.rank * invariants(self).coxeter_number // 2})"


def _closure(seeds: Iterable, step: Callable[[object], Iterable]) -> set:
    """The seeds and everything reachable from them through step."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for y in step(todo.pop()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _cycle_walk(w: Window) -> tuple[list[int], list[int], list[tuple[int, bool]]]:
    """One walk over the cycles of i -> |w(i)|: each letter's cycle number and
    sign potential eps (1 on the cycle's first letter, then
    eps(|w(i)|) = eps(i) sign w(i)), and each cycle's (length, negative); a
    cycle is negative when an odd number of its letters change sign."""
    cycle = [-1] * len(w)
    eps = [1] * len(w)
    cycles = []
    for start in range(len(w)):
        length, sign, i = 0, 1, start
        while cycle[i] < 0:
            cycle[i] = len(cycles)
            eps[i] = sign
            length += 1
            if w[i] < 0:
                sign = -sign
            i = abs(w[i]) - 1
        if length:
            cycles.append((length, sign < 0))
    return cycle, eps, cycles


def _reflection_length(w: Window) -> int:
    """Carter's l_T(w) = codim Fix(w) for a window known to be valid."""
    return len(w) - sum(not negative for _, negative in _cycle_walk(w)[2])


def _letter_pairs(family: str, letters: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """The reflections on the given 0-based letters, in reflection order, as
    (i, j, sign) with i < j: t(i, j, +) over the pairs, then t(i, j, -) in
    types B and D, then t(i) (as j = -1) in type B."""
    letters = list(letters)
    yield from ((i, j, 1) for i, j in combinations(letters, 2))
    if family != "A":
        yield from ((i, j, -1) for i, j in combinations(letters, 2))
    if family == "B":
        yield from ((i, -1, -1) for i in letters)


def _reflection(n: int, i: int, j: int, sign: int) -> Window:
    """The window of the reflection (i, j, sign) from `_letter_pairs`."""
    w = list(range(1, n + 1))
    w[i] = -(i + 1) if j < 0 else sign * (j + 1)
    if j >= 0:
        w[j] = sign * (i + 1)
    return tuple(w)


def _name(t: Window) -> str:
    """The printed name of the reflection t, read off its first moved letter
    i and the signed letter t sends i to: t(i) when t only negates i, else
    t(i,j,+) or t(i,j,-)."""
    i = next(i for i, x in enumerate(t, start=1) if x != i)
    j = t[i - 1]
    return f"t({i})" if j == -i else f"t({i},{abs(j)},{'+-'[j < 0]})"


def _lowering_pairs(family: str, u: Window) -> list[tuple[int, int, int]]:
    """The reflections t with l_T(t u) < l_T(u), in reflection order, as the
    (i, j, sign) of `_letter_pairs`; no window is built.

    t u joins the cycles of i and j, or splits their common cycle, and
    l_T = n - #(positive cycles), so one walk over u decides every t:
    t(i) lowers u iff i's cycle is negative; t(i, j, +-) with i and j in
    different cycles iff both cycles are negative; in one negative cycle
    both signs lower u, in one positive cycle only the sign eps(i) eps(j).
    A letter u fixes is a positive 1-cycle, so only reflections on the
    letters u moves are tried.
    """
    cycle, eps, cycles = _cycle_walk(u)
    negative = [neg for _, neg in cycles]
    out = []
    for i, j, sign in _letter_pairs(family, (i for i, x in enumerate(u) if x != i + 1)):
        a = cycle[i]
        if j < 0 or a != cycle[j]:
            lowers = negative[a] and (j < 0 or negative[cycle[j]])
        else:
            lowers = negative[a] or sign == eps[i] * eps[j]
        if lowers:
            out.append((i, j, sign))
    return out


def _lowering(ctx: CoxeterContext, u: Window) -> list[Window]:
    """The windows of the reflections that lower u (`_lowering_pairs`)."""
    return [_reflection(ctx.n, *t) for t in _lowering_pairs(ctx.family, u)]


def absolute_length(ctx: CoxeterContext, w: Window) -> int:
    """l_T(w): fewest reflections multiplying to w."""
    return _reflection_length(ctx.check_element(w))


def abs_le(ctx: CoxeterContext, u: Window, v: Window) -> bool:
    """Absolute order: u <= v iff l_T(u) + l_T(u^{-1} v) = l_T(v)."""
    u, v = ctx.check_element(u), ctx.check_element(v)
    return _reflection_length(u) + _reflection_length(mul(inv(u), v)) == _reflection_length(v)


def _levels(ctx: CoxeterContext, w: Window, cap: int | None = None) -> Iterator[dict[Window, int]]:
    """The length levels of [1, w] from w down, each as {u: number of
    maximal chains from w down to u}.

    The interval is graded by l_T and the elements covered by u are the t u
    for t in `_lowering(u)`, so walking those steps down from w reaches all
    of it, one length at a time; the last level is {identity: |Red_T(w)|}.
    Every element of [1, w] has a reduced factorization, so the chains
    counted into a level so far bound |Red_T(w)| from below, and the walk
    stops as soon as they pass cap.  Each level's steps are counted as
    letter triples (`_lowering_pairs`) before any of their windows is
    built, so a refused level builds none.
    """
    level = {w: 1}
    while level:
        yield level
        steps = []
        total = 0
        for u, chains in level.items():
            lowering = _lowering_pairs(ctx.family, u)
            total += chains * len(lowering)
            if cap is not None and total > cap:
                raise ResourceCapExceeded(
                    f"factorization enumeration capped at {cap} factorizations, "
                    f"element has at least {total}"
                )
            steps.append((u, chains, lowering))
        level = {}
        for u, chains, lowering in steps:
            for t in lowering:
                v = mul(_reflection(ctx.n, *t), u)
                level[v] = level.get(v, 0) + chains


class Invariants(NamedTuple):
    """Numbers of W read off its degrees (see `invariants`)."""

    coxeter_number: int  # h, the largest degree
    order: int  # |W|
    catalan: int  # Cat(W) = |NC(W, c)|
    red_t: int  # |Red_T(c)| at a Coxeter element c


def invariants(ctx: CoxeterContext) -> Invariants:
    """h, |W| = prod d_i, Cat(W) = prod (h + d_i) / d_i and n! h^n / |W| from
    the degrees d_1, ..., d_n of W: 2, ..., n + 1 in type A_n, 2, 4, ..., 2n
    in B_n, and 2, 4, ..., 2n - 2 and n in D_n.  Cat(W) is |NC(W, c)| and
    n! h^n / |W| is |Red_T(c)| for every Coxeter element c (Bessis 2003)."""
    n = ctx.rank
    degrees = {"A": range(2, n + 2), "B": range(2, 2 * n + 1, 2), "D": [*range(2, 2 * n - 1, 2), n]}[ctx.family]
    h, order = max(degrees), prod(degrees)
    return Invariants(h, order, prod(h + d for d in degrees) // order, factorial(n) * h**n // order)


def require_coxeter_element(ctx: CoxeterContext, c: Window | None = None) -> Window:
    """c, or the context's Coxeter element for None; FormatError unless it is
    a Coxeter element."""
    c = ctx.coxeter_element if c is None else ctx.check_element(c)
    if not is_coxeter_element(ctx, c):
        raise FormatError(f"{list(c)} is not a Coxeter element of {ctx.family}_{ctx.rank}")
    return c


def nc_set(ctx: CoxeterContext, c: Window | None = None) -> list[Window]:
    """NC(W, c) = {u : u <= c} at a Coxeter element c, sorted by (reflection
    length, window).  It holds Cat(W) elements, so past NC_SET_COUNT_CAP it
    is refused before the walk over [1, c] starts; any other c raises
    FormatError, since [1, w] can be larger (all 32,400 involutions of B8
    lie below -1, against Cat(B8) = 12,870)."""
    c = require_coxeter_element(ctx, c)
    count = invariants(ctx).catalan
    if count > NC_SET_COUNT_CAP:
        raise ResourceCapExceeded(f"interval enumeration capped at {NC_SET_COUNT_CAP} elements, NC(W, c) has {count}")
    levels = [sorted(level) for level in _levels(ctx, c)]
    return [u for lv in reversed(levels) for u in lv]


def duality(ctx: CoxeterContext, x: Window, c: Window | None = None) -> Window:
    """The complement map x -> x^{-1} c on NC(W, c); applied twice it
    conjugates by c."""
    c = ctx.coxeter_element if c is None else ctx.check_element(c)
    return mul(inv(ctx.check_element(x)), c)


def red_t_factorizations(ctx: CoxeterContext, w: Window) -> list[tuple[Window, ...]]:
    """All reduced reflection factorizations of w, each a tuple of reflection
    windows t_1, ..., t_k with t_1 ... t_k = w (leftmost acts last), listed
    depth-first in reflection order.

    The count walk over [1, w] refuses more than FACTORIZATION_COUNT_CAP of
    them before anything is enumerated.
    """
    w = ctx.check_element(w)
    _red_t_count(ctx, w)
    return list(_reduced_descent(ctx, w))


def _red_t_count(ctx: CoxeterContext, w: Window) -> int:
    """|Red_T(w)|, read off the last level of the count walk over [1, w],
    {identity: |Red_T(w)|}.  The walk refuses more than
    FACTORIZATION_COUNT_CAP factorizations, so every enumeration of an
    arbitrary w runs it first as its guard."""
    *_, last = _levels(ctx, w, FACTORIZATION_COUNT_CAP)
    return last[identity(ctx.n)]


def _reduced_descent(ctx: CoxeterContext, w: Window) -> Iterator[tuple[Window, ...]]:
    """Reduced factorizations of w, depth-first in reflection order, cap-free.

    Every prefix climbs the absolute order by one, so candidates at each step
    are the reflections `_lowering(w_rest)`; only the identity has none.
    Every such step can be completed, so the first item is the greedy
    factorization.
    """
    lowering = _lowering(ctx, w)
    if not lowering:
        yield ()
    for t in lowering:
        for rest in _reduced_descent(ctx, mul(t, w)):  # t^{-1} w; t is an involution
            yield (t, *rest)


def hurwitz_act(f: tuple[Window, ...], i: int) -> tuple[Window, ...]:
    """The braid move at position i (0-based) on a reflection tuple:
    (..., a, b, ...) -> (..., a^{-1} b a, a, ...).  It preserves the ordered
    product.
    """
    if not 0 <= i < len(f) - 1:
        raise FormatError(f"move position {i} outside 0..{len(f) - 2}")
    a, b = f[i], f[i + 1]
    return f[:i] + (mul(mul(a, b), a), a) + f[i + 2 :]


def hurwitz_orbits(ctx: CoxeterContext, w: Window) -> list[list[tuple[Window, ...]]]:
    """Orbits of the braid moves on the reduced factorizations of w, as
    lists of the factor tuples of `red_t_factorizations`.

    Returns the orbits sorted by size (largest first), each orbit sorted;
    the union is exactly red_t_factorizations(w), which checks w and
    refuses past its cap.  Only forward moves are taken: each braid
    generator permutes the finite set Red_T(w), so a set closed under it is
    closed under its inverse.
    """
    pending = set(red_t_factorizations(ctx, w))
    orbits = []
    while pending:
        orbit = _closure([next(iter(pending))], lambda f: (hurwitz_act(f, i) for i in range(len(f) - 1)))
        pending -= orbit
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda o: (-len(o), o[0]))
    return orbits


# ---------------------------------------------------------------------------
# Element classes read off the signed cycle type.


def _signed_cycle_type(w: Window) -> list[tuple[int, bool]]:
    """Sorted (length, negative) over the cycles of i -> |w(i)|."""
    return sorted(_cycle_walk(w)[2])


def is_coxeter_element(ctx: CoxeterContext, w: Window) -> bool:
    """Whether w is conjugate to the product of the simple reflections.

    For these families the diagram is a tree, so all products of all simples
    in any order land in one conjugacy class, as do the Coxeter elements of
    every other simple system.  The class is fixed by the signed cycle type:
    one n-cycle in type A, one negative n-cycle in type B, and a negative
    (n-1)-cycle beside a negative 1-cycle in type D.
    """
    n = ctx.n
    expected = {
        "A": [(n, False)],
        "B": [(n, True)],
        "D": [(1, True), (n - 1, True)],
    }[ctx.family]
    return _signed_cycle_type(ctx.check_element(w)) == expected


def is_quasi_coxeter(ctx: CoxeterContext, w: Window) -> bool:
    """Whether the reflections of some (equivalently every) reduced
    factorization of w generate W.

    By the classification of Baumeister, Gobet, Roberts and Wegener (2017,
    "On the Hurwitz action in finite Coxeter groups") these are the Coxeter
    elements in types A and B; in type D they are the elements with exactly
    two cycles, both negative (a negative (n-1)-cycle beside a negative
    1-cycle is a Coxeter element, the other splittings are proper
    quasi-Coxeter elements).
    """
    if ctx.family != "D":
        return is_coxeter_element(ctx, w)
    cycles = _signed_cycle_type(ctx.check_element(w))
    return len(cycles) == 2 and all(negative for _, negative in cycles)


def is_parabolic_quasi_coxeter(ctx: CoxeterContext, w: Window) -> bool:
    """Whether the reflections of a reduced factorization of w generate the
    pointwise stabilizer of the fixed space of w (the parabolic closure).

    By the classification of Baumeister, Gobet, Roberts and Wegener (2017)
    these are the elements with at most one negative cycle in types A and B
    and at most two in type D (where the count is always even).
    """
    negative = sum(neg for _, neg in _signed_cycle_type(ctx.check_element(w)))
    return negative <= (2 if ctx.family == "D" else 1)


# ---------------------------------------------------------------------------
# Type A bridge to non-crossing partitions.


def partition_to_permutation(p: partitions.NCPartition) -> Window:
    """The permutation cycling each block upward; orbits recover the blocks."""
    return tuple(partitions._cycle_map(p)[1:])


def permutation_to_partition(ctx: CoxeterContext, w: Window, c: Window | None = None) -> partitions.NCPartition:
    """Orbits of w as a non-crossing partition; requires type A and w <= c.

    With c the long cycle i -> i+1, the map is inverse to
    partition_to_permutation and sends the absolute order to refinement.
    """
    if ctx.family != "A":
        raise FormatError("partition correspondence needs a type A context")
    c = ctx.coxeter_element if c is None else ctx.check_element(c)
    w = ctx.check_element(w)
    if not abs_le(ctx, w, c):
        raise NotBelowCoxeterElement(
            f"{list(w)} is not below the reference Coxeter element"
        )
    orbits = {tuple(sorted(_closure([i], lambda x: [w[x - 1]]))) for i in range(1, ctx.n + 1)}
    return partitions.NCPartition.of(ctx.n, orbits)


# ---------------------------------------------------------------------------
# Dual braid relations.


def dual_braid_relations(ctx: CoxeterContext, c: Window | None = None) -> list[tuple[Window, Window, Window]]:
    """All relations s t = t' s with s, t distinct reflections, s t <= c and
    t' = s t s^{-1}, again a reflection since T is closed under conjugation.

    l_T(s t) = 2, so s t <= c iff l_T(t s c) = l_T(c) - 2: s lowers c and t
    lowers s c.  The tests check t' s = s t and t' in T for every relation.
    """
    c = ctx.coxeter_element if c is None else ctx.check_element(c)
    return [(s, t, mul(mul(s, t), s)) for s in _lowering(ctx, c) for t in _lowering(ctx, mul(s, c))]


def dual_braid_relation_check(ctx: CoxeterContext, c: Window | None = None) -> dict:
    """The dual braid relations at the Coxeter element c, with what the
    braid moves do on the reduced factorizations Red_T(c).

    Returns a report with the relations themselves, the factorization count,
    the orbit count (1 means the braid moves connect everything) and whether
    every move rewrites by one of the relations.  Only the relations are
    computed, after |Red_T(c)| = n! h^n / |W| (`invariants`) is checked
    against FACTORIZATION_COUNT_CAP; the other two fields are theorems, so
    nothing is enumerated or walked:
    - one orbit: the Hurwitz action on Red_T(c) is transitive for every
      Coxeter element c (Bessis 2003, "The dual braid monoid");
    - moves covered: if t_1 ... t_n = c is reduced, then
      x = t_1 ... t_{i-1} <= y = t_1 ... t_{i+1} <= c, and x <= y gives
      x^{-1} y <= y (its complement y^{-1} x y is a conjugate of x), so
      every adjacent pair has t_i t_{i+1} = x^{-1} y <= c and is one of
      the relations.
    The tests check the count against the walk over [1, c], and the two
    theorems against the orbit walk and the pairwise scan of
    tests/helpers.py.
    """
    c = require_coxeter_element(ctx, c)
    factorizations = invariants(ctx).red_t
    if factorizations > FACTORIZATION_COUNT_CAP:
        raise ResourceCapExceeded(
            f"factorization count capped at {FACTORIZATION_COUNT_CAP} factorizations, c has {factorizations}"
        )
    return {
        "relations": dual_braid_relations(ctx, c),
        "factorizations": factorizations,
        "orbits": 1,
        "moves_covered": True,
    }
