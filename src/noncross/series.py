"""Truncated power series with exact rational coefficients.

A :class:`RationalSeries` holds coefficients c_0..c_N of a series truncated
at a fixed order N; all arithmetic stays inside ``fractions.Fraction``.  The
compositional inverse, like the moment-cumulant transforms built on this
module, is solved degree by degree over incrementally built powers of the
unknown series, in O(N^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import FormatError, OrderMismatch, VanishingFirstMoment

Rat = int | Fraction


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot parse rational {text!r}") from None


@dataclass(frozen=True, slots=True)
class RationalSeries:
    """Coefficients (c_0, ..., c_N) of a series truncated at order N."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[Rat]) -> "RationalSeries":
        return RationalSeries(tuple(_frac(v) for v in values))

    @staticmethod
    def zero(order: int) -> "RationalSeries":
        return RationalSeries((Fraction(0),) * (order + 1))

    @staticmethod
    def identity(order: int) -> "RationalSeries":
        """The series z."""
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return RationalSeries(tuple(c))

    @staticmethod
    def constant(value: Rat, order: int) -> "RationalSeries":
        c = [Fraction(0)] * (order + 1)
        c[0] = _frac(value)
        return RationalSeries(tuple(c))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _match(self, other: "RationalSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"series orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        self._match(other)
        return RationalSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        self._match(other)
        return RationalSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        self._match(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(tuple(out))

    def scale(self, factor: Rat) -> "RationalSeries":
        f = _frac(factor)
        return RationalSeries(tuple(f * a for a in self.coeffs))

    def shift_down(self) -> "RationalSeries":
        """Divide by z; requires zero constant term.  Order drops by one."""
        if self.coeffs[0]:
            raise FormatError("cannot divide by z: nonzero constant term")
        return RationalSeries(self.coeffs[1:])

    def reciprocal(self) -> "RationalSeries":
        """1 / f for f with nonzero constant term."""
        if not self.coeffs[0]:
            raise VanishingFirstMoment("reciprocal needs a nonzero constant term")
        n = self.order
        inv0 = 1 / self.coeffs[0]
        out = [Fraction(0)] * (n + 1)
        out[0] = inv0
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return RationalSeries(tuple(out))

    def compositional_inverse(self) -> "RationalSeries":
        """The series h with f(h(z)) = z, for f = c_1 z + ... with c_1 != 0.

        Solved degree by degree: [z^k] f(h) = c_1 h_k + sum over j >= 2 of
        c_j [z^k] h^j, and the powers h^j only need h_1..h_{k-1}.
        """
        c = self.coeffs
        if c[0]:
            raise FormatError("compositional inverse needs zero constant term")
        if not c[1]:
            raise VanishingFirstMoment("compositional inverse needs c_1 != 0")
        h = [Fraction(0)] * (self.order + 1)
        h[1] = 1 / c[1]
        columns = _power_columns(h)
        next(columns)  # degree 1 holds no power above the first
        for k, column in enumerate(columns, start=2):
            acc = Fraction(0)
            for j, power in enumerate(column, start=2):
                if c[j] and power:
                    acc += c[j] * power
            h[k] = -acc / c[1]
        return RationalSeries(tuple(h))

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def _power_columns(y: list[Fraction]) -> Iterator[list[Fraction]]:
    """Columns of the power table of y = y_1 z + y_2 z^2 + ..., for a series
    that the caller solves degree by degree in place.

    The k-th column (k = 1..len(y) - 1) holds [z^k] y^j for j = 2..k, at
    index j - 2.  It reads only y_1..y_{k-1}, so the caller may set y_k
    after reading it.  All columns together cost O(N^3) products.
    """
    n = len(y) - 1
    rows = [y]  # rows[j - 1][k] = [z^k] y^j
    for k in range(1, n + 1):
        column = []
        for j in range(2, k + 1):
            if len(rows) < j:
                rows.append([Fraction(0)] * (n + 1))
            lower = rows[j - 2]
            acc = Fraction(0)
            for i in range(1, k - j + 2):
                if y[i] and lower[k - i]:
                    acc += y[i] * lower[k - i]
            rows[j - 1][k] = acc
            column.append(acc)
        yield column


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of "p/q" rationals."""
    items = text.split(",")
    if any(not t.strip() for t in items):
        raise FormatError(f"cannot parse rational list {text!r}")
    return tuple(parse_fraction(t) for t in items)
