"""Moment/cumulant calculus over non-crossing partitions, in exact rationals.

The bridge between moments and free cumulants is the lattice NC(n): a moment
is the sum over all non-crossing partitions of products of cumulants, one
factor per block.  Its generating-function form M(z) = 1 + sum_s k_s z^s
M(z)^s gives the same rationals degree by degree in O(n^3), without
enumerating the lattice, and every transform here goes through it.
Additive free convolution adds cumulant sequences; multiplicative free
convolution multiplies S-transforms, or, on the lattice route, sums
cumulant products over complementary pairs (p, Kreweras complement of p).
Everything here is Fraction arithmetic; no floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator

from .errors import (
    FormatError,
    IrrationalResult,
    OrderMismatch,
    ResourceCapExceeded,
    VanishingFirstMoment,
)
from .partitions import SERIES_ORDER_CAP, _check_cap, catalan, iter_nc, kreweras
from .series import RationalSeries, Rat, _frac, _power_columns, parse_rationals


@dataclass(frozen=True, slots=True)
class _Sequence:
    """Values x_1..x_N of a moment or cumulant sequence, x_n at index n - 1."""

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable[Rat]):
        return cls(tuple(_frac(v) for v in values))

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

    def to_json(self) -> dict:
        return {"order": self.order, "values": [str(v) for v in self.values]}


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


Profile = tuple[tuple[int, ...], tuple[int, ...], int]


@cache
def _nc_profiles(n: int) -> tuple[Profile, ...]:
    """Distinct (block sizes of p, block sizes of complement, multiplicity).

    One streaming pass over NC(n), bounded by the enumeration cap; the
    grouped table is all the lattice route needs, since every summand
    depends only on block sizes.
    """
    counter: Counter[tuple[tuple[int, ...], tuple[int, ...]]] = Counter()
    for p in iter_nc(n):
        key = (
            tuple(sorted(p.block_sizes(), reverse=True)),
            tuple(sorted(kreweras(p).block_sizes(), reverse=True)),
        )
        counter[key] += 1
    return tuple((a, b, k) for (a, b), k in sorted(counter.items()))


def _product_over(sizes: tuple[int, ...], values: tuple[Fraction, ...]) -> Fraction:
    out = Fraction(1)
    for s in sizes:
        out *= values[s - 1]
    return out


def _check_order(order: int) -> None:
    if order > SERIES_ORDER_CAP:
        raise ResourceCapExceeded(
            f"series order {order} exceeds the cap {SERIES_ORDER_CAP}"
        )


def _solve_moment_cumulant(
    values: tuple[Fraction, ...], *, from_cumulants: bool
) -> tuple[Fraction, ...]:
    """Solve M(z) = 1 + sum_s k_s z^s M(z)^s for the unknown side.

    With u = z M(z), m_n = sum over s <= n of k_s [z^n] u^s, and the s = n
    term is k_n itself, so each degree yields one new moment or cumulant.
    """
    order = len(values)
    _check_order(order)
    moments = [] if from_cumulants else values
    kappa = values if from_cumulants else []
    u = [Fraction(0)] * (order + 1)  # u_1 = 1, u_{n+1} = m_n
    u[1] = Fraction(1)
    for n, column in enumerate(_power_columns(u), start=1):
        partial = kappa[0] * u[n] if n > 1 else Fraction(0)
        for s in range(2, n):
            if kappa[s - 1] and column[s - 2]:
                partial += kappa[s - 1] * column[s - 2]
        if from_cumulants:
            moments.append(partial + kappa[n - 1])
        else:
            kappa.append(moments[n - 1] - partial)
        if n < order:
            u[n + 1] = moments[n - 1]
    return tuple(moments if from_cumulants else kappa)


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """m_n = sum over NC(n) of the product of k_{|B|} over blocks B."""
    return MomentSequence(_solve_moment_cumulant(kappa.values, from_cumulants=True))


def moments_to_cumulants(m: MomentSequence) -> CumulantSequence:
    """Free cumulants from moments: the moment formula solved for k_n."""
    return CumulantSequence(_solve_moment_cumulant(m.values, from_cumulants=False))


def free_add_convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the sum of free elements: cumulant sequences add."""
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    ka = moments_to_cumulants(a)
    kb = moments_to_cumulants(b)
    return cumulants_to_moments(
        CumulantSequence(tuple(x + y for x, y in zip(ka.values, kb.values)))
    )


def free_mult_convolve_kreweras(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the product of free elements, by the complement pairing:
    k_n(ab) = sum over p in NC(n) of k_p(a) k_{complement(p)}(b).

    This is the lattice route: it enumerates NC(1..N), so the enumeration
    cap bounds its order, checked before the cached profile tables are read.
    """
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    _check_cap(a.order, None)
    ka = moments_to_cumulants(a)
    kb = moments_to_cumulants(b)
    out = []
    for n in range(1, a.order + 1):
        total = Fraction(0)
        for sizes, csizes, mult in _nc_profiles(n):
            total += (
                mult
                * _product_over(sizes, ka.values)
                * _product_over(csizes, kb.values)
            )
        out.append(total)
    return cumulants_to_moments(CumulantSequence(tuple(out)))


# ---------------------------------------------------------------------------
# Transform calculus.


def moment_series(m: MomentSequence) -> RationalSeries:
    """M(z) = sum m_n z^n as a truncated series (constant term 0)."""
    return RationalSeries((Fraction(0),) + m.values)


def r_transform(m: MomentSequence) -> RationalSeries:
    """R(z) = sum k_n z^n, the cumulant series; it solves R(z M(z) + z) = M(z)."""
    return RationalSeries((Fraction(0),) + moments_to_cumulants(m).values)


def s_transform(m: MomentSequence) -> RationalSeries:
    """S(z) = (1 + z)/z * M^{(-1)}(z).

    Needs m_1 != 0.  The result is truncated at order N - 1 (constant term
    1/m_1 included), which is exactly what order-N moments determine.
    """
    if not m.values[0]:
        raise VanishingFirstMoment("S-transform needs a nonzero first moment")
    _check_order(m.order)
    minv = moment_series(m).compositional_inverse().shift_down()  # M^{(-1)}(z) / z
    one_plus_z = RationalSeries.constant(1, minv.order) + RationalSeries.identity(minv.order)
    return one_plus_z * minv


def _moments_from_s(s: RationalSeries) -> MomentSequence:
    """Recover moments m_1..m_{N} from S truncated at order N - 1."""
    one_plus_z = RationalSeries.constant(1, s.order) + RationalSeries.identity(s.order)
    minv_over_z = s * one_plus_z.reciprocal()  # M^{(-1)}(z) / z
    minv = RationalSeries((Fraction(0),) + minv_over_z.coeffs)
    return MomentSequence(minv.compositional_inverse().coeffs[1:])


def free_mult_convolve_stransform(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the product of free elements via S_{ab} = S_a S_b."""
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    return _moments_from_s(s_transform(a) * s_transform(b))


# ---------------------------------------------------------------------------
# Named laws.


def _check_law_order(order: int) -> None:
    if order < 1:
        raise FormatError("order must be >= 1")
    _check_order(order)


def semicircle_moments(order: int) -> MomentSequence:
    """Standard semicircle: odd moments 0, m_{2k} = C_k; R(z) = z^2."""
    _check_law_order(order)
    return MomentSequence.of(
        [0 if n % 2 else catalan(n // 2) for n in range(1, order + 1)]
    )


def free_poisson_moments(order: int) -> MomentSequence:
    """Free Poisson (Marchenko-Pastur, rate 1): m_k = C_k, all cumulants 1."""
    _check_law_order(order)
    return MomentSequence.of([catalan(n) for n in range(1, order + 1)])


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
    return MomentSequence(
        tuple(
            Fraction(math.comb((ell + 1) * k, k), ell * k + 1)
            for k in range(1, order + 1)
        )
    )


def _sum_moments(kappa: CumulantSequence, n_summands: int) -> tuple[Fraction, ...]:
    """Moments of the unnormalised sum a_1 + ... + a_N of free copies: its
    cumulants are N k_j."""
    if n_summands < 1:
        raise FormatError("need at least one summand")
    scaled = CumulantSequence(tuple(n_summands * k for k in kappa.values))
    return cumulants_to_moments(scaled).values


def clt_moments(kappa: CumulantSequence, n_summands: int) -> MomentSequence:
    """Exact moments of the rescaled sum (a_1 + ... + a_N)/sqrt(N) of free
    copies with the given cumulants.

    Moment n is that of the unnormalised sum divided by N^{n/2}.  For odd n
    a surviving sqrt(N) is irrational unless N is a perfect square, in
    which case it folds in exactly.  Otherwise this raises rather than
    rounding.
    """
    N = n_summands
    moments = _sum_moments(kappa, N)
    root = math.isqrt(N)
    out = []
    for n, value in enumerate(moments, start=1):
        scale = N ** (n // 2)
        if n % 2:
            if value and root * root != N:
                raise IrrationalResult(
                    f"moment {n} of the rescaled sum carries sqrt({N}); "
                    "use a perfect-square N or a base with vanishing odd terms"
                )
            scale *= root
        out.append(value / scale)
    return MomentSequence(tuple(out))


def clt_even_moments(
    kappa: CumulantSequence, n_summands: int
) -> tuple[Fraction, ...]:
    """The even moments m_2, m_4, ... of the rescaled free sum.

    N^{n/2} is an integer for even n, so these are exact rationals for
    every N — no perfect-square requirement.
    """
    moments = _sum_moments(kappa, n_summands)
    return tuple(
        moments[n - 1] / n_summands ** (n // 2) for n in range(2, len(moments) + 1, 2)
    )
