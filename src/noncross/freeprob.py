"""Moment/cumulant calculus over non-crossing partitions, in exact rationals.

The bridge between moments and free cumulants is the lattice NC(n): a moment
is the sum over all non-crossing partitions of products of cumulants, one
factor per block.  Its generating-function form M(z) = 1 + sum_s k_s z^s
M(z)^s gives the same rationals degree by degree in O(n^3), without
enumerating the lattice, and every transform here goes through it.
Additive free convolution adds cumulant sequences; multiplicative free
convolution multiplies S-transforms, or, on the Kreweras route, sums
cumulant products over complementary pairs (p, K(p)), a sum that the count
of minimal factorizations of the long cycle puts in closed form.  No
transform enumerates NC(n), and this module imports nothing from
``partitions``.  Everything here is Fraction arithmetic; no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from ._frozen import Frozen
from .caps import SERIES_ORDER_CAP
from .errors import (
    FormatError,
    IrrationalResult,
    OrderMismatch,
    ResourceCapExceeded,
    VanishingFirstMoment,
)
from .series import Rat, _frac, _inverse_coeffs, _power_columns, parse_rationals


class _Sequence(Frozen):
    """Values x_1..x_N of a moment or cumulant sequence, x_n at index n - 1."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls, values: Iterable[Rat]):
        values = tuple(_frac(v) for v in values)
        if not values:
            raise FormatError(f"a {cls.__name__} needs at least one value")
        return cls(values)

    @classmethod
    def parse(cls, text: str):
        return cls(parse_rationals(text))

    @property
    def order(self) -> int:
        return len(self.values)

    def _at(self, n: int, name: str) -> Fraction:
        if not 1 <= n <= self.order:
            raise OrderMismatch(f"{name} {n} outside 1..{self.order}")
        return self.values[n - 1]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __str__(self) -> str:
        return ", ".join(str(v) for v in self.values)


class MomentSequence(_Sequence):
    """Moments m_1..m_N of a (formal) distribution, m_n at index n - 1."""

    __slots__ = ()

    def moment(self, n: int) -> Fraction:
        """m_n for 1 <= n <= order."""
        return self._at(n, "moment")


class CumulantSequence(_Sequence):
    """Free cumulants k_1..k_N, k_n at index n - 1."""

    __slots__ = ()

    def cumulant(self, n: int) -> Fraction:
        """k_n for 1 <= n <= order."""
        return self._at(n, "cumulant")


def _check_order(order: int) -> None:
    if order > SERIES_ORDER_CAP:
        raise ResourceCapExceeded(
            f"series order {order} exceeds the cap {SERIES_ORDER_CAP}"
        )


def _solve_moment_cumulant(
    values: Iterable[Fraction], order: int, *, from_cumulants: bool
) -> Iterator[Fraction]:
    """Solve M(z) = 1 + sum_s k_s z^s M(z)^s for the unknown side.

    With u = z M(z), m_n = sum over s <= n of k_s [z^n] u^s, and the s = n
    term is k_n itself, so each degree yields one new moment or cumulant.
    The n-th given value is read only when degree n is solved, so solves
    chain lazily and a consumer can stop at any degree.
    """
    _check_order(order)
    given = iter(values)
    moments: list[Fraction] = []
    kappa: list[Fraction] = []
    u = [Fraction(0)] * (order + 1)  # u_1 = 1, u_{n+1} = m_n
    u[1] = Fraction(1)
    for n, column in enumerate(_power_columns(u), start=1):
        partial = kappa[0] * u[n] if n > 1 else Fraction(0)
        for s in range(2, n):
            if kappa[s - 1] and column[s - 2]:
                partial += kappa[s - 1] * column[s - 2]
        if from_cumulants:
            kappa.append(next(given))
            moments.append(partial + kappa[n - 1])
        else:
            moments.append(next(given))
            kappa.append(moments[n - 1] - partial)
        if n < order:
            u[n + 1] = moments[n - 1]
        yield moments[-1] if from_cumulants else kappa[-1]


def _check_orders(a: MomentSequence, b: MomentSequence) -> None:
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")


# Each transform below comes in two forms: iter_* yields the result one
# order at a time, so a consumer (the CLI printer) can stop at the first
# value it cannot use, and the plain form collects it into a sequence.


def iter_moments(kappa: CumulantSequence) -> Iterator[Fraction]:
    """m_1, m_2, ... from the cumulants, one order at a time."""
    yield from _solve_moment_cumulant(kappa.values, kappa.order, from_cumulants=True)


def iter_cumulants(m: MomentSequence) -> Iterator[Fraction]:
    """k_1, k_2, ... from the moments, one order at a time."""
    yield from _solve_moment_cumulant(m.values, m.order, from_cumulants=False)


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """m_n = sum over NC(n) of the product of k_{|B|} over blocks B."""
    return MomentSequence(tuple(iter_moments(kappa)))


def moments_to_cumulants(m: MomentSequence) -> CumulantSequence:
    """Free cumulants from moments: the moment formula solved for k_n."""
    return CumulantSequence(tuple(iter_cumulants(m)))


def iter_free_add(a: MomentSequence, b: MomentSequence) -> Iterator[Fraction]:
    """Moments of the sum of free elements, one order at a time: cumulant
    sequences add, and moment n solves each input only up to order n."""
    _check_orders(a, b)
    kappa = (x + y for x, y in zip(iter_cumulants(a), iter_cumulants(b)))
    yield from _solve_moment_cumulant(kappa, a.order, from_cumulants=True)


def free_add_convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the sum of free elements: cumulant sequences add."""
    return MomentSequence(tuple(iter_free_add(a, b)))


def _kreweras_cumulants(a: MomentSequence, b: MomentSequence) -> Iterator[Fraction]:
    """k_n(ab) = sum over p in NC(n) of k_p(a) k_{K(p)}(b), in closed form.

    NC(n) is the interval [1, c] of the symmetric group and K(p) is u^{-1} c,
    so the pairs (p, K(p)) are the minimal factorizations of the long cycle
    c.  Their count by cycle types (Goulden-Jackson 1992) makes the sum
    factor over the number k of blocks of p, with R = sum k_s z^s:

        k_n(ab) = n sum_{k=1..n} ([z^n] R_a^k / k) ([z^n] R_b^(n+1-k) / (n+1-k)).

    [z^n] R^j for j >= 2 reads only k_1..k_{n-1}, so k_n(a) and k_n(b) are
    read only when degree n is solved.
    """
    ka = [Fraction(0)] * (a.order + 1)
    kb = [Fraction(0)] * (a.order + 1)
    solves = zip(iter_cumulants(a), iter_cumulants(b), _power_columns(ka), _power_columns(kb))
    for n, (x, y, column_a, column_b) in enumerate(solves, start=1):
        ka[n], kb[n] = x, y
        powers_a, powers_b = [x, *column_a], [y, *column_b]  # [z^n] R^j at j - 1
        yield sum(
            (
                Fraction(n, k * (n + 1 - k)) * powers_a[k - 1] * powers_b[n - k]
                for k in range(1, n + 1)
                if powers_a[k - 1] and powers_b[n - k]
            ),
            Fraction(0),
        )


def iter_free_mult_kreweras(a: MomentSequence, b: MomentSequence) -> Iterator[Fraction]:
    """Moments of the product of free elements, by the complement pairing
    k_n(ab) = sum over p in NC(n) of k_p(a) k_{K(p)}(b), one order at a time.

    The sum is taken in closed form, without enumerating NC(n), so like the
    other transforms it is bounded by the series order cap alone, and unlike
    the S-transform route it needs no nonzero first moment.
    """
    _check_orders(a, b)
    yield from _solve_moment_cumulant(_kreweras_cumulants(a, b), a.order, from_cumulants=True)


def free_mult_convolve_kreweras(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the product of free elements by the lattice route."""
    return MomentSequence(tuple(iter_free_mult_kreweras(a, b)))


def _iter_s(m: MomentSequence) -> Iterator[Fraction]:
    """S_0, ..., S_{N-1} of S(z) = (1 + z) M^{(-1)}(z) / z: with M^{(-1)}(z)
    = h_1 z + h_2 z^2 + ..., S_k = h_{k+1} + h_k, one per inverse coefficient."""
    if not m.values[0]:
        raise VanishingFirstMoment("S-transform needs a nonzero first moment")
    _check_order(m.order)
    previous = Fraction(0)
    for h in _inverse_coeffs(m.values, m.order):
        yield h + previous
        previous = h


def iter_free_mult_stransform(a: MomentSequence, b: MomentSequence) -> Iterator[Fraction]:
    """Moments of the product of free elements via S_{ab} = S_a S_b, one
    order at a time: moment n reads S_a and S_b only up to order n - 1.

    S_{ab}(z) / (1 + z) = M^{(-1)}(z) / z, whose inverse holds the moments.
    """
    _check_orders(a, b)

    def minv_over_z() -> Iterator[Fraction]:
        # [z^k] of S_a S_b, less [z^(k-1)] of the quotient by 1 + z
        sa: list[Fraction] = []
        sb: list[Fraction] = []
        previous = Fraction(0)
        for x, y in zip(_iter_s(a), _iter_s(b)):
            sa.append(x)
            sb.append(y)
            s_ab = sum(p * q for p, q in zip(sa, reversed(sb)))
            previous = s_ab - previous
            yield previous

    yield from _inverse_coeffs(minv_over_z(), a.order)


def free_mult_convolve_stransform(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the product of free elements via S_{ab} = S_a S_b."""
    return MomentSequence(tuple(iter_free_mult_stransform(a, b)))


# ---------------------------------------------------------------------------
# Named laws.


def _check_law_order(order: int) -> None:
    if order < 1:
        raise FormatError("order must be >= 1")
    _check_order(order)


def _fuss_catalan(ell: int, k: int) -> Fraction:
    return Fraction(math.comb((ell + 1) * k, k), ell * k + 1)


def semicircle_moments(order: int) -> MomentSequence:
    """Standard semicircle: odd moments 0, m_{2k} = C_k (Fuss-Catalan at
    ell = 1); R(z) = z^2."""
    _check_law_order(order)
    return MomentSequence(
        tuple(Fraction(0) if n % 2 else _fuss_catalan(1, n // 2) for n in range(1, order + 1))
    )


def free_poisson_moments(order: int) -> MomentSequence:
    """Free Poisson (Marchenko-Pastur, rate 1): m_k = C_k, all cumulants 1.
    It is the free Bessel law at ell = 1."""
    return free_bessel_moments(1, order)


def free_bessel_moments(ell: int, order: int) -> MomentSequence:
    """Free Bessel family: the law with S(z) = 1/(1+z)^ell, the ell-fold
    multiplicative free convolution of free Poisson.

    Its moments are the Fuss-Catalan numbers binom((ell+1)k, k)/(ell k + 1)
    (Mlotkowski 2010).  ell = 0 is the point mass at 1, ell = 1 is free
    Poisson.
    """
    if ell < 0:
        raise FormatError("ell must be >= 0")
    _check_law_order(order)
    return MomentSequence(tuple(_fuss_catalan(ell, k) for k in range(1, order + 1)))


def _sum_moments(kappa: CumulantSequence, n_summands: int) -> Iterator[Fraction]:
    """Moments of the unnormalised sum a_1 + ... + a_N of free copies, one
    order at a time: its cumulants are N k_j."""
    if n_summands < 1:
        raise FormatError("need at least one summand")
    scaled = (n_summands * k for k in kappa.values)
    return _solve_moment_cumulant(scaled, kappa.order, from_cumulants=True)


def iter_clt_moments(kappa: CumulantSequence, n_summands: int) -> Iterator[Fraction]:
    """Exact moments of the rescaled sum (a_1 + ... + a_N)/sqrt(N) of free
    copies with the given cumulants, one order at a time.

    Moment n is that of the unnormalised sum divided by N^{n/2}.  For odd n
    a surviving sqrt(N) is irrational unless N is a perfect square, in
    which case it folds in exactly.  Otherwise this raises at that order
    rather than rounding.
    """
    N = n_summands
    moments = _sum_moments(kappa, N)
    root = math.isqrt(N)
    for n, value in enumerate(moments, start=1):
        scale = N ** (n // 2)
        if n % 2:
            if value and root * root != N:
                raise IrrationalResult(
                    f"moment {n} of the rescaled sum carries sqrt({N}); "
                    "use a perfect-square N or a base with vanishing odd terms"
                )
            scale *= root
        yield value / scale


def clt_moments(kappa: CumulantSequence, n_summands: int) -> MomentSequence:
    """The moments of :func:`iter_clt_moments` as a sequence."""
    return MomentSequence(tuple(iter_clt_moments(kappa, n_summands)))


def iter_clt_even_moments(kappa: CumulantSequence, n_summands: int) -> Iterator[Fraction]:
    """The even moments m_2, m_4, ... of the rescaled free sum, one at a time.

    N^{n/2} is an integer for even n, so these are exact rationals for
    every N — no perfect-square requirement.
    """
    for n, value in enumerate(_sum_moments(kappa, n_summands), start=1):
        if n % 2 == 0:
            yield value / n_summands ** (n // 2)


def clt_even_moments(kappa: CumulantSequence, n_summands: int) -> tuple[Fraction, ...]:
    """The even moments of :func:`iter_clt_even_moments` as a tuple."""
    return tuple(iter_clt_even_moments(kappa, n_summands))
