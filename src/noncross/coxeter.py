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

Reflections carry integer root coordinates (type A: e_i - e_j inside the
sum-zero sublattice; B: e_i - e_j, e_i + e_j and short e_i; D: e_i +- e_j),
which drive the quasi-Coxeter tests: an element of full reflection length is
quasi-Coxeter exactly when the roots of one (equivalently any) reduced
factorization form a Z-basis of the root lattice and their coroots one of
the coroot lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
Vector = tuple[int, ...]

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

    The context is immutable after construction: reflection set with roots
    and names, the simple reflections and the default Coxeter element
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
        refl: list[tuple[Window, Vector, str]] = []

        def add(images: dict[int, int], root: dict[int, int], name: str) -> None:
            w, v = list(identity(n)), [0] * n
            for i, x in images.items():
                w[i - 1] = x
            for i, x in root.items():
                v[i - 1] = x
            refl.append((tuple(w), tuple(v), name))

        for i, j in combinations(range(1, n + 1), 2):
            add({i: j, j: i}, {i: 1, j: -1}, f"t({i},{j},+)")
        if self.family in ("B", "D"):
            for i, j in combinations(range(1, n + 1), 2):
                add({i: -j, j: -i}, {i: 1, j: 1}, f"t({i},{j},-)")
        if self.family == "B":
            for i in range(1, n + 1):
                add({i: -i}, {i: 1}, f"t({i})")

        self.reflections: tuple[Window, ...] = tuple(r[0] for r in refl)
        self.root_of: dict[Window, Vector] = {r[0]: r[1] for r in refl}
        self.name_of: dict[Window, str] = {r[0]: r[2] for r in refl}
        self._by_name = {r[2]: r[0] for r in refl}

    def _build_simples(self) -> None:
        n = self.n
        adjacent = [self._by_name[f"t({i},{i+1},+)"] for i in range(1, n)]
        if self.family == "A":
            self.simples = tuple(adjacent)
        elif self.family == "B":
            self.simples = (self._by_name["t(1)"], *adjacent)
        else:
            self.simples = (self._by_name["t(1,2,-)"], *adjacent)
        self.simple_roots = [self.root_of[s] for s in self.simples]
        self.simple_coroots = [coroot(r) for r in self.simple_roots]

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


def coroot(root: Vector) -> Vector:
    """The coroot 2a/(a,a) as an integer vector (root norms here are 1 or 2)."""
    norm = sum(x * x for x in root)
    if norm == 2:
        return root
    if norm == 1:
        return tuple(2 * x for x in root)
    raise FormatError(f"unexpected root norm {norm}")


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
# Exact linear algebra over the rationals (tiny dimensions).


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    rows = [r[:] for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
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
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    rref, pivots = _rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def _det(mat: list[list[Fraction]]) -> Fraction:
    n = len(mat)
    rows = [r[:] for r in mat]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        invp = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                factor = rows[i][c] * invp
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[c])]
    return det


def _coords_in_basis(basis: list[Vector], target: Vector) -> list[Fraction] | None:
    """Coefficients x with sum x_k basis_k = target, or None if outside the span."""
    ncols = len(basis)
    rows = [
        [Fraction(basis[k][d]) for k in range(ncols)] + [Fraction(target[d])]
        for d in range(len(target))
    ]
    rref, pivots = _rref(rows)
    if ncols in pivots:
        return None
    coords = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        coords[pc] = rref[r][ncols]
    return coords


def lattice_basis_index(basis: list[Vector], candidates: list[Vector]) -> Fraction | None:
    """|det| of the candidate vectors written in the given lattice basis.

    The candidates are a Z-basis of the lattice exactly when this equals 1
    (0 means they are dependent); None means some candidate falls outside
    the lattice, either non-integral in the basis or outside its span.
    """
    if len(candidates) != len(basis):
        return None
    coord_rows = []
    for c in candidates:
        coords = _coords_in_basis(basis, c)
        if coords is None or any(x.denominator != 1 for x in coords):
            return None
        coord_rows.append(coords)
    return abs(_det(coord_rows))


# ---------------------------------------------------------------------------
# Quasi-Coxeter and parabolic machinery.


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
    """True when some (equivalently any) reduced factorization of w has roots
    forming a Z-basis of the root lattice and coroots one of the coroot
    lattice.

    Elements of reflection length below the rank fix a subspace, so their
    reflections cannot generate the group; they are never quasi-Coxeter.
    """
    w = ctx.check_element(w)
    if _reflection_length(w) != ctx.rank:
        return False
    roots = [ctx.root_of[t] for t in next(_reduced_descent(ctx, w))]
    idx = lattice_basis_index(ctx.simple_roots, roots)
    if idx != 1:
        return False
    coidx = lattice_basis_index(ctx.simple_coroots, [coroot(r) for r in roots])
    return coidx == 1


def generated_subgroup(ctx: CoxeterContext, gens: list[Window]) -> frozenset[Window]:
    return frozenset(_closure([identity(ctx.n), *gens], lambda x: (mul(x, g) for g in gens)))


def fixed_space(ctx: CoxeterContext, w: Window) -> list[list[Fraction]]:
    """A rational basis of {v : w v = v}."""
    n = ctx.n
    rows = []
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] -= 1
        for i, wi in enumerate(w):
            if abs(wi) - 1 == j:
                row[i] += 1 if wi > 0 else -1
        rows.append(row)
    return _kernel_basis(rows, n)


def is_parabolic_quasi_coxeter(ctx: CoxeterContext, w: Window) -> bool:
    """True when the reflections of a reduced factorization of w generate the
    pointwise stabilizer of the fixed space of w (the parabolic closure).

    The closure is generated by the reflections it contains, those whose
    root is orthogonal to Fix(w) (Steinberg), and it contains the
    factorization's subgroup, so the two groups agree exactly when they hold
    the same reflections.  The reflections of a group generated by
    reflections are the conjugates of its generators, so closing the
    factors under conjugation by one another finds them.
    """
    w = ctx.check_element(w)
    factors = next(_reduced_descent(ctx, w))
    generated = _closure(factors, lambda t: (mul(mul(s, t), s) for s in factors))
    fixed = fixed_space(ctx, w)
    orthogonal = {
        t
        for t, root in ctx.root_of.items()
        if all(sum(r * x for r, x in zip(root, v)) == 0 for v in fixed)
    }
    return generated == orthogonal


def nc_lattice_check(ctx: CoxeterContext, c: Window | None = None) -> bool:
    """Exhaustively verify that NC(W, c) has a meet and join for every pair."""
    elems = nc_set(ctx, c)
    lengths = [_reflection_length(u) for u in elems]
    le = [
        [
            u == v or lu < lv and lu + _reflection_length(mul(inv(u), v)) == lv
            for v, lv in zip(elems, lengths)
        ]
        for u, lu in zip(elems, lengths)
    ]

    def unique_extreme(candidates: list[int], upper: bool) -> bool:
        for z in candidates:
            if all((le[x][z] if upper else le[z][x]) for x in candidates):
                return True
        return False

    n = len(elems)
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if le[k][i] and le[k][j]]
            if not unique_extreme(lower, upper=False):
                return False
            upper_b = [k for k in range(n) if le[i][k] and le[j][k]]
            if not unique_extreme(upper_b, upper=True):
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
                if tp not in ctx.root_of:
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
