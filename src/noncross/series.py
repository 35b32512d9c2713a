"""The two power-series kernels of the free transforms, and the parsers of
the exact rationals they take.

``_power_columns`` yields the table [z^k] y^j of a series y that its caller
solves degree by degree, and ``_inverse_coeffs`` solves a compositional
inverse on that table.  Each takes O(N^3) products, and every transform in
``freeprob`` runs on them.  A series is the list of its coefficients; all
arithmetic stays inside ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import FormatError

Rat = int | Fraction


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "0.5" into an exact fraction.

    Exponent notation such as "1e20000" is rejected: it is the one form
    whose value is not bounded by its length.  Digit strings are bounded by
    Python's limit on int conversion (4,300 digits by default).
    """
    if "e" in text or "E" in text:
        raise FormatError(f"cannot parse rational {text!r}: exponent notation is not accepted")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot parse rational {text!r}") from None


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of "p/q" rationals."""
    items = text.split(",")
    if any(not t.strip() for t in items):
        raise FormatError(f"cannot parse rational list {text!r}")
    return tuple(parse_fraction(t) for t in items)


def _inverse_coeffs(f: Iterable[Fraction], order: int) -> Iterator[Fraction]:
    """h_1, ..., h_order of the compositional inverse h of f = c_1 z + c_2 z^2
    + ..., given c_1, c_2, ... with c_1 != 0.

    Solved degree by degree: [z^k] f(h) = c_1 h_k + sum over j >= 2 of
    c_j [z^k] h^j must be 1 for k = 1 and 0 after, and the powers h^j only
    need h_1..h_{k-1}.  c_k is read only when h_k is solved, so the
    coefficients may come from a lazy solve.
    """
    given = iter(f)
    c = [Fraction(0)]
    h = [Fraction(0)] * (order + 1)
    for k, column in enumerate(_power_columns(h), start=1):
        c.append(next(given))
        acc = Fraction(0)
        for j, power in enumerate(column, start=2):
            if c[j] and power:
                acc += c[j] * power
        h[k] = ((k == 1) - acc) / c[1]
        yield h[k]


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

