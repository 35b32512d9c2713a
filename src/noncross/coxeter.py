"""Dual Coxeter systems of types A, B, D on (signed) permutation windows.

Elements are windows: w = (w(1), ..., w(n)) with w(i) the signed image of
letter i; type A uses plain permutations (of rank + 1 letters), types B and D
signed ones, D restricted to an even number of sign changes.  The generating
set here is the full reflection set T, not just the simple reflections:
reflection length l_T, the absolute order u <= v iff
l_T(u) + l_T(u^{-1} v) = l_T(v), and the non-crossing set
NC(W, c) = {u : u <= c} below a Coxeter element c.

Reflection length is Carter's closed form l_T(w) = codim Fix(w): the letters
minus the cycles of |w| with an even number of sign changes.  NC(W, c) is
walked down from c, one reflection at a time, so no query builds W itself.

The signed cycle type also decides the remaining classes: Coxeter elements
(Carter 1972), quasi-Coxeter and parabolic quasi-Coxeter elements
(Baumeister, Gobet, Roberts and Wegener 2017), so no predicate needs roots
or linear algebra.  Reflections are windows named t(i,j,+) (swap i and j),
t(i,j,-) (i -> -j, j -> -i) and, in type B, t(i) (i -> -i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import (
    FormatError,
    NotBelowCoxeterElement,
    ResourceCapExceeded,
)
from .partitions import NCPartition, SetPartition, _cycle_map

Window = tuple[int, ...]

DEFAULT_RANK_CAP = {"A": 7, "B": 5, "D": 5}
DEFAULT_FACTORIZATION_LENGTH_CAP = 5
DEFAULT_FACTORIZATION_RANK_CAP = 4


def mul(u: Window, v: Window) -> Window:
    """Compose windows: (u v)(i) = u(v(i)) (v acts first)."""
    return tuple(u[x - 1] if x > 0 else -u[-x - 1] for x in v)


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
    """A reflection group of type A, B or D, described by its reflections.

    The context is immutable after construction: reflection set with
    names, the simple reflections and the default Coxeter element
    (product of the simple reflections in order).  Nothing of size |W| is
    built; `elements` generates the group from the simples on first use.
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
        self.family = family
        self.rank = rank
        self.n = rank + 1 if family == "A" else rank
        letters = range(1, self.n + 1)
        self._letters = frozenset(letters if family == "A" else [*letters, *(-i for i in letters)])

        self._build_reflections()
        self._build_simples()
        self.coxeter_element = identity(self.n)
        for s in self.simples:
            self.coxeter_element = mul(self.coxeter_element, s)

    # -- construction ------------------------------------------------------

    def _build_reflections(self) -> None:
        n = self.n
        refl: list[tuple[Window, str]] = []

        def add(images: dict[int, int], name: str) -> None:
            w = list(identity(n))
            for i, x in images.items():
                w[i - 1] = x
            refl.append((tuple(w), name))

        for i, j in combinations(range(1, n + 1), 2):
            add({i: j, j: i}, f"t({i},{j},+)")
        if self.family in ("B", "D"):
            for i, j in combinations(range(1, n + 1), 2):
                add({i: -j, j: -i}, f"t({i},{j},-)")
        if self.family == "B":
            for i in range(1, n + 1):
                add({i: -i}, f"t({i})")

        self.reflections: tuple[Window, ...] = tuple(r[0] for r in refl)
        self.name_of: dict[Window, str] = dict(refl)
        self._by_name = {r[1]: r[0] for r in refl}

    def _build_simples(self) -> None:
        n = self.n
        adjacent = [self._by_name[f"t({i},{i+1},+)"] for i in range(1, n)]
        if self.family == "A":
            self.simples = tuple(adjacent)
        elif self.family == "B":
            self.simples = (self._by_name["t(1)"], *adjacent)
        else:
            self.simples = (self._by_name["t(1,2,-)"], *adjacent)

    # -- basic queries -----------------------------------------------------

    @cached_property
    def elements(self) -> tuple[Window, ...]:
        """All of W, sorted; no query reads it."""
        return tuple(sorted(generated_subgroup(self, list(self.simples))))

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

    def reflection_name(self, t: Window) -> str:
        return self.name_of[t]

    def reflection_by_name(self, name: str) -> Window:
        try:
            return self._by_name[name]
        except KeyError:
            raise FormatError(f"unknown reflection {name!r}") from None

    def __repr__(self) -> str:
        return f"CoxeterContext({self.family}_{self.rank}, |T|={len(self.reflections)})"


@dataclass(frozen=True)
class ReflectionFactorization:
    """A tuple of reflections with their ordered product (leftmost acts last)."""

    ctx: CoxeterContext
    factors: tuple[Window, ...]

    def product(self) -> Window:
        out = identity(self.ctx.n)
        for t in self.factors:
            out = mul(out, t)
        return out

    def names(self) -> tuple[str, ...]:
        return tuple(self.ctx.name_of[t] for t in self.factors)


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


def _reflection_length(w: Window) -> int:
    """Carter's l_T(w) = codim Fix(w) for a window known to be valid."""
    return len(w) - sum(not negative for _, negative in _signed_cycle_type(w))


def _le(u: Window, v: Window) -> bool:
    return _reflection_length(u) + _reflection_length(mul(inv(u), v)) == _reflection_length(v)


def absolute_length(ctx: CoxeterContext, w: Window) -> int:
    """l_T(w): fewest reflections multiplying to w."""
    return _reflection_length(ctx.check_element(w))


def abs_le(ctx: CoxeterContext, u: Window, v: Window) -> bool:
    """Absolute order: u <= v iff l_T(u) + l_T(u^{-1} v) = l_T(v)."""
    return _le(ctx.check_element(u), ctx.check_element(v))


def nc_set(ctx: CoxeterContext, c: Window | None = None) -> list[Window]:
    """NC(W, c) = {u : u <= c}, sorted by (reflection length, window).

    The interval [1, c] is graded by l_T and the elements covered by u are
    the t u with l_T(t u) < l_T(u), so walking those steps down from c
    reaches all of it.
    """
    c = ctx.coxeter_element if c is None else ctx.check_element(c)

    def below(u: Window) -> Iterator[Window]:
        k = _reflection_length(u)
        return (tu for t in ctx.reflections if _reflection_length(tu := mul(t, u)) < k)

    return sorted(_closure([c], below), key=lambda u: (_reflection_length(u), u))


def duality(ctx: CoxeterContext, x: Window, c: Window | None = None) -> Window:
    """The complement map x -> x^{-1} c on NC(W, c); applied twice it
    conjugates by c."""
    c = ctx.coxeter_element if c is None else ctx.check_element(c)
    return mul(inv(ctx.check_element(x)), c)


def red_t_factorizations(
    ctx: CoxeterContext,
    w: Window,
    *,
    length_cap: int = DEFAULT_FACTORIZATION_LENGTH_CAP,
    rank_cap: int = DEFAULT_FACTORIZATION_RANK_CAP,
) -> list[ReflectionFactorization]:
    """All reduced reflection factorizations of w, depth-first in reflection order."""
    w = ctx.check_element(w)
    if ctx.rank > rank_cap:
        raise ResourceCapExceeded(
            f"factorization enumeration capped at rank {rank_cap}, context has {ctx.rank}"
        )
    length = _reflection_length(w)
    if length > length_cap:
        raise ResourceCapExceeded(
            f"factorization enumeration capped at length {length_cap}, "
            f"element has {length}"
        )
    return [ReflectionFactorization(ctx, f) for f in _reduced_descent(ctx, w)]


def _reduced_descent(ctx: CoxeterContext, w: Window) -> Iterator[tuple[Window, ...]]:
    """Reduced factorizations of w, depth-first in reflection order, cap-free.

    Every prefix climbs the absolute order by one, so candidates at each step
    are the reflections t with l_T(t w_rest) = l_T(w_rest) - 1.  Every such
    step can be completed, so the first item is the greedy factorization.
    """
    remaining = _reflection_length(w)
    if remaining == 0:
        yield ()
        return
    for t in ctx.reflections:
        tail = mul(t, w)  # t^{-1} w; reflections are involutions
        if _reflection_length(tail) == remaining - 1:
            for rest in _reduced_descent(ctx, tail):
                yield (t, *rest)


def hurwitz_act(
    f: tuple[Window, ...], i: int, inverse: bool = False
) -> tuple[Window, ...]:
    """The braid move at position i (0-based) on a reflection tuple.

    Forward: (..., a, b, ...) -> (..., a^{-1} b a, a, ...); the inverse move
    is (..., a, b, ...) -> (..., b, b a b^{-1}, ...).  Both preserve the
    ordered product.
    """
    if not 0 <= i < len(f) - 1:
        raise FormatError(f"move position {i} outside 0..{len(f) - 2}")
    a, b = f[i], f[i + 1]
    if inverse:
        pair = (b, mul(mul(b, a), b))
    else:
        pair = (mul(mul(a, b), a), a)
    return f[:i] + pair + f[i + 2 :]


def hurwitz_orbits(
    ctx: CoxeterContext,
    w: Window,
    *,
    length_cap: int = DEFAULT_FACTORIZATION_LENGTH_CAP,
    rank_cap: int = DEFAULT_FACTORIZATION_RANK_CAP,
) -> list[list[ReflectionFactorization]]:
    """Orbits of the braid moves on the reduced factorizations of w.

    Returns the orbits sorted by size (largest first), each orbit sorted;
    the union is exactly red_t_factorizations(w).
    """
    all_facts = red_t_factorizations(ctx, w, length_cap=length_cap, rank_cap=rank_cap)
    pending = {f.factors for f in all_facts}
    orbits: list[list[ReflectionFactorization]] = []

    def moves(f: tuple[Window, ...]) -> Iterator[tuple[Window, ...]]:
        for i in range(len(f) - 1):
            yield hurwitz_act(f, i)
            yield hurwitz_act(f, i, inverse=True)

    while pending:
        orbit = _closure([next(iter(pending))], moves)
        if not orbit <= pending:
            raise ArithmeticError("braid move left the reduced factorization set")
        pending -= orbit
        orbits.append([ReflectionFactorization(ctx, f) for f in sorted(orbit)])
    orbits.sort(key=lambda o: (-len(o), o[0].factors))
    return orbits


# ---------------------------------------------------------------------------
# Element classes read off the signed cycle type.


def _signed_cycle_type(w: Window) -> list[tuple[int, bool]]:
    """Sorted (length, negative) over the cycles of i -> |w(i)|; a cycle is
    negative when an odd number of its letters change sign."""
    seen = [False] * len(w)
    out = []
    for start in range(len(w)):
        length, negative, i = 0, False, start
        while not seen[i]:
            seen[i] = True
            length += 1
            negative ^= w[i] < 0
            i = abs(w[i]) - 1
        if length:
            out.append((length, negative))
    return sorted(out)


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


def generated_subgroup(ctx: CoxeterContext, gens: list[Window]) -> frozenset[Window]:
    return frozenset(_closure([identity(ctx.n), *gens], lambda x: (mul(x, g) for g in gens)))


def nc_lattice_check(elems: list[Window]) -> bool:
    """Exhaustively verify that NC(W, c), given as `nc_set` returns it, is a
    lattice: it has a top and every pair has a meet.

    In a finite poset with a top that suffices, since the join of x and y is
    the meet of their common upper bounds.
    """
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


# ---------------------------------------------------------------------------
# Type A bridge to non-crossing partitions.


def partition_to_permutation(p: NCPartition) -> Window:
    """The permutation cycling each block upward; orbits recover the blocks."""
    return tuple(_cycle_map(p)[1:])


def permutation_to_partition(ctx: CoxeterContext, w: Window, c: Window | None = None) -> NCPartition:
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
    return NCPartition(SetPartition(ctx.n, tuple(sorted(orbits))))


# ---------------------------------------------------------------------------
# Dual braid relations.


def dual_braid_relations(ctx: CoxeterContext, c: Window | None = None) -> list[tuple[Window, Window, Window]]:
    """All relations s t = t' s with s, t distinct reflections, s t <= c and
    t' = s t s^{-1} (again a reflection)."""
    c = ctx.coxeter_element if c is None else ctx.check_element(c)
    out = []
    for s in ctx.reflections:
        for t in ctx.reflections:
            if s == t:
                continue
            st = mul(s, t)
            if _le(st, c):
                tp = mul(mul(s, t), s)
                if tp not in ctx.name_of:
                    raise ArithmeticError("conjugate of a reflection must be a reflection")
                if mul(tp, s) != st:
                    raise ArithmeticError("dual braid relation failed to commute")
                out.append((s, t, tp))
    return out


def dual_braid_relation_check(ctx: CoxeterContext, c: Window | None = None) -> dict:
    """Verify the dual braid relations at c and that every braid move on the
    reduced factorizations of c only ever rewrites by one of them.

    Returns a report with the relations themselves, the factorization count,
    the orbit count (1 means the braid moves connect everything) and whether
    all moves stayed within the relation set.
    """
    c = ctx.coxeter_element if c is None else ctx.check_element(c)
    relations = dual_braid_relations(ctx, c)
    rel_pairs = {(s, t) for s, t, _ in relations}
    orbits = hurwitz_orbits(ctx, c)
    moves_covered = True
    for orbit in orbits:
        for f in orbit:
            for i in range(len(f.factors) - 1):
                a, b = f.factors[i], f.factors[i + 1]
                if (a, b) not in rel_pairs:
                    moves_covered = False
    return {
        "relations": relations,
        "factorizations": sum(len(o) for o in orbits),
        "orbits": len(orbits),
        "moves_covered": moves_covered,
    }
