"""Independent oracles for noncross output.

Closed forms and short first-principles routines, written without importing
the package, so a check never compares the program with itself.

Partitions are tuples of ascending blocks sorted by their minima, the same
canonical form the CLI prints as ``1|2 6 7|3 5|4|8``.  Group elements are
signed windows: ``w[i - 1]`` is the signed image of letter ``i``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

Blocks = tuple[tuple[int, ...], ...]
Window = tuple[int, ...]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def fuss_catalan(ell: int, k: int) -> Fraction:
    """Moment k of the free Bessel law with parameter ell."""
    return Fraction(comb((ell + 1) * k, k), ell * k + 1)


def narayana(n: int, blocks: int) -> int:
    """Partitions in NC(n) with the given number of blocks."""
    return comb(n, blocks) * comb(n, blocks - 1) // n


# ---------------------------------------------------------------------------
# Non-crossing partitions.


def canonical(blocks) -> Blocks:
    return tuple(sorted(tuple(sorted(b)) for b in blocks if b))


def parse_partition(text: str) -> Blocks:
    return canonical([int(t) for t in part.split()] for part in text.split("|"))


def format_partition(blocks: Blocks) -> str:
    return "|".join(" ".join(map(str, b)) for b in blocks)


def is_partition_of(blocks: Blocks, m: int) -> bool:
    return sorted(e for b in blocks for e in b) == list(range(1, m + 1))


def is_noncrossing(blocks: Blocks) -> bool:
    """No a < b < c < d with a, c in one block and b, d in another: reading
    left to right, a block may only be revisited while it is innermost."""
    owner = {e: k for k, b in enumerate(blocks) for e in b}
    last = [b[-1] for b in blocks]
    stack: list[int] = []
    for e in sorted(owner):
        k = owner[e]
        if not stack or stack[-1] != k:
            if k in stack:
                return False
            stack.append(k)
        if last[k] == e:
            stack.pop()
    return True


def kreweras(blocks: Blocks, m: int) -> Blocks:
    """Blocks of the Kreweras complement: the cycles of s^{-1} g, where s
    cycles each block upward and g is the long cycle i -> i + 1."""
    s_inv = {}
    for b in blocks:
        for a, nxt in zip(b, b[1:] + b[:1]):
            s_inv[nxt] = a
    step = {i: s_inv[i % m + 1] for i in range(1, m + 1)}
    seen: set[int] = set()
    cycles = []
    for start in range(1, m + 1):
        cycle = []
        i = start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = step[i]
        cycles.append(cycle)
    return canonical(cycles)


def meet(p: Blocks, q: Blocks) -> Blocks:
    return canonical(set(a) & set(b) for a in p for b in q)


def join(p: Blocks, q: Blocks) -> Blocks:
    """Merge blocks that share a point or cross until neither happens."""
    blocks = [set(b) for b in p + q]
    merged = True
    while merged:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                a, b = blocks[i], blocks[j]
                if a & b or not is_noncrossing(canonical([a, b])):
                    blocks[i] = a | b
                    del blocks[j]
                    merged = True
                    break
            if merged:
                break
    return canonical(blocks)


def rotate(p: Blocks, m: int, k: int) -> Blocks:
    return canonical([(e - 1 + k) % m + 1 for e in b] for b in p)


def mobius(p: Blocks, q: Blocks) -> int:
    """mu(p, q) in NC(m) for p <= q: [p, q] is a product of full lattices
    NC(s), one per block of the Kreweras complement of p inside each block of
    q, and a full NC(s) contributes (-1)^(s-1) C_(s-1)."""
    out = 1
    for big in q:
        pos = {e: i + 1 for i, e in enumerate(big)}
        inner = canonical([pos[e] for e in b] for b in p if b[0] in pos)
        for c in kreweras(inner, len(big)):
            out *= (-1) ** (len(c) - 1) * catalan(len(c) - 1)
    return out


def random_partition(rng, m: int, sizes: tuple[int, ...] | None = None) -> Blocks:
    """A non-crossing partition of 1..m drawn by rejection; ``sizes`` fixes
    the multiset of block sizes."""
    while True:
        if sizes is None:
            cuts = sorted(rng.sample(range(1, m), rng.randrange(m)))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        else:
            parts = list(sizes)
        points = list(range(1, m + 1))
        rng.shuffle(points)
        blocks, i = [], 0
        for size in parts:
            blocks.append(points[i : i + size])
            i += size
        blocks = canonical(blocks)
        if is_noncrossing(blocks):
            return blocks


# ---------------------------------------------------------------------------
# Free probability, through M(z) = 1 + sum_s k_s z^s M(z)^s.


def _power_coeff(m: list[Fraction], s: int, j: int) -> Fraction:
    """[z^j] M(z)^s for M = m[0] + m[1] z + ..., using m[0..j] only."""
    power = [Fraction(1)] + [Fraction(0)] * j
    for _ in range(s):
        power = [sum(power[a] * m[i - a] for a in range(i + 1)) for i in range(j + 1)]
    return power[j]


def cumulants_to_moments(kappa: list[Fraction]) -> list[Fraction]:
    m = [Fraction(1)]
    for n in range(1, len(kappa) + 1):
        m.append(sum(kappa[s - 1] * _power_coeff(m, s, n - s) for s in range(1, n + 1)))
    return m[1:]


def moments_to_cumulants(moments: list[Fraction]) -> list[Fraction]:
    m = [Fraction(1)] + list(moments)
    kappa: list[Fraction] = []
    for n in range(1, len(moments) + 1):
        rest = sum(kappa[s - 1] * _power_coeff(m, s, n - s) for s in range(1, n))
        kappa.append(m[n] - rest)
    return kappa


def clt_even_moments(kappa: list[Fraction], n_summands: int, root: int) -> list[Fraction]:
    """Even moments of (a_1 + ... + a_N)/sqrt(N) for N = root^2: free
    cumulants scale as k_j -> N^(1 - j/2) k_j = root^(2 - j) k_j."""
    if root * root != n_summands:
        raise ValueError(f"{n_summands} is not the square of {root}")
    scaled = [k * Fraction(root) ** (2 - j) for j, k in enumerate(kappa, start=1)]
    return cumulants_to_moments(scaled)[1::2]


# ---------------------------------------------------------------------------
# Reflection groups of types A, B, D on signed windows.


def mul(u: Window, v: Window) -> Window:
    """(u v)(i) = u(v(i)): v acts first."""
    return tuple(u[x - 1] if x > 0 else -u[-x - 1] for x in v)


def inverse(w: Window) -> Window:
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        out[abs(x) - 1] = i if x > 0 else -i
    return tuple(out)


def signed_cycles(w: Window) -> list[tuple[int, bool]]:
    """(length, negative) for each cycle of |w|; negative means an odd number
    of sign changes along the cycle."""
    seen: set[int] = set()
    out = []
    for start in range(1, len(w) + 1):
        i, length, signs = start, 0, 0
        while i not in seen:
            seen.add(i)
            length += 1
            signs += w[i - 1] < 0
            i = abs(w[i - 1])
        if length:
            out.append((length, signs % 2 == 1))
    return out


def reflection_length(w: Window) -> int:
    """l_T(w) = codim Fix(w) (Carter); the fixed space has one dimension per
    positive cycle.  In type A the window has rank + 1 letters and the
    sum-zero hyperplane removes one more, which the formula absorbs."""
    return len(w) - sum(1 for _, negative in signed_cycles(w) if not negative)


def coxeter_number(family: str, rank: int) -> int:
    return {"A": rank + 1, "B": 2 * rank, "D": 2 * rank - 2}[family]


def group_order(family: str, rank: int) -> int:
    if family == "A":
        return factorial(rank + 1)
    return 2**rank * factorial(rank) // (2 if family == "D" else 1)


def cat_w(family: str, rank: int) -> int:
    """|NC(W)|: C_(n+1) for A_n, binom(2n, n) for B_n and
    binom(2n, n) - binom(2n - 2, n - 1) for D_n."""
    if family == "A":
        return catalan(rank + 1)
    if family == "B":
        return comb(2 * rank, rank)
    return comb(2 * rank, rank) - comb(2 * rank - 2, rank - 1)


def red_t_count(family: str, rank: int) -> int:
    """Reduced reflection factorizations of a Coxeter element: n! h^n / |W|."""
    return factorial(rank) * coxeter_number(family, rank) ** rank // group_order(family, rank)


def reflections(family: str, n: int) -> list[Window]:
    """Every reflection of A_(n-1), B_n or D_n as a window on n letters."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(reflection(f"t({i},{j},+)", n))
            if family != "A":
                out.append(reflection(f"t({i},{j},-)", n))
        if family == "B":
            out.append(reflection(f"t({i})", n))
    return out


def count_factorizations(family: str, w: Window) -> int:
    """Tuples of l_T(w) reflections with product w, by brute force over the
    group: the number of reduced reflection factorizations of w."""
    counts = {tuple(range(1, len(w) + 1)): 1}
    for _ in range(reflection_length(w)):
        step: dict[Window, int] = {}
        for x, c in counts.items():
            for t in reflections(family, len(w)):
                y = mul(x, t)
                step[y] = step.get(y, 0) + c
        counts = step
    return counts.get(w, 0)


def reflection(name: str, n: int) -> Window:
    """Parse ``t(i,j,+)``, ``t(i,j,-)`` or ``t(i)`` into a window on n letters."""
    fields = name[2:-1].split(",")
    w = list(range(1, n + 1))
    if len(fields) == 1:
        i = int(fields[0])
        w[i - 1] = -i
    else:
        i, j, sign = int(fields[0]), int(fields[1]), fields[2]
        if sign == "+":
            w[i - 1], w[j - 1] = j, i
        else:
            w[i - 1], w[j - 1] = -j, -i
    return tuple(w)


def product(names: list[str], n: int) -> Window:
    out = tuple(range(1, n + 1))
    for name in names:
        out = mul(out, reflection(name, n))
    return out


def is_coxeter_type_b(w: Window) -> bool:
    """Coxeter elements of B_n are the negative n-cycles."""
    return signed_cycles(w) == [(len(w), True)]


def is_parabolic_coxeter_type_b(w: Window) -> bool:
    """In B_n an element is a Coxeter element of its parabolic closure exactly
    when at most one of its cycles is negative."""
    return sum(1 for _, negative in signed_cycles(w) if negative) <= 1


def random_signed_permutation(rng, n: int) -> Window:
    letters = list(range(1, n + 1))
    rng.shuffle(letters)
    return tuple(x if rng.random() < 0.5 else -x for x in letters)
