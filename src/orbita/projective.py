"""Canonical points of the projective line over Q and p-adic logarithmic distance.

Points are stored in canonical coprime integer coordinates [x:y] with y > 0,
or y = 0 and x = 1 for the point at infinity. With both points canonical the
distance reduces to the valuation of the cross term x1*y2 - x2*y1, and
distance_table reads every pairwise distance of a point list from one
factorization per cross term.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isinf

from .numtheory import (
    _QUOTED,
    FactorizationBudgetError,
    Rational,
    _excerpt,
    _split,
    _valuation,
    factor,
    is_prime,
)

__all__ = [
    "ProjectivePoint",
    "INFINITE_DISTANCE",
    "canonical_point",
    "from_pair",
    "parse_point",
    "log_distance",
    "distance_table",
]

# distance value for equal points; compares above every integer
INFINITE_DISTANCE = inf


@dataclass(frozen=True, order=False)
class ProjectivePoint:
    """Point [x:y] in canonical coprime coordinates."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ValueError("(0,0) is not a projective point")
        if gcd(abs(self.x), abs(self.y)) != 1:
            raise ValueError("coordinates must be coprime")
        if self.y < 0 or (self.y == 0 and self.x != 1):
            raise ValueError("coordinates must be sign-canonical")

    def __str__(self) -> str:
        return f"[{self.x}:{self.y}]"


def from_pair(x: Rational | int, y: Rational | int) -> ProjectivePoint:
    """Canonical point from any homogeneous pair of rationals, not both zero."""
    # [x:y] = [x * den(y) : y * den(x)] clears both denominators at once
    a = x.numerator * y.denominator
    b = y.numerator * x.denominator
    if a == 0 and b == 0:
        raise ValueError("(0,0) is not a projective point")
    g = gcd(a, b)
    a //= g
    b //= g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return ProjectivePoint(a, b)


def canonical_point(a) -> ProjectivePoint:
    """Affine-to-projective embedding: a -> [a:1], infinity -> [1:0].

    Accepts an exact rational (Fraction or int) or the infinity symbol
    (float("inf")); finite floats are rejected to keep arithmetic exact.
    """
    if isinstance(a, float):
        if isinf(a):
            return ProjectivePoint(1, 0)
        raise TypeError("finite floats are not exact; pass a Fraction")
    af = Fraction(a)
    return ProjectivePoint(af.numerator, af.denominator)


# the parts of a decimal literal with an exponent, underscores removed: the
# digits before and after the point, and the exponent
_EXPONENT_LITERAL = re.compile(r"\s*[-+]?(\d*)(?:\.(\d*))?[eE]([-+]?\d+)\s*")
_DIGIT_RUN = re.compile(r"\d+")


class _DigitLimitError(ValueError):
    """A literal that stands for more digits than the digit limit, refused before it is read."""


def _check_digits(digits: int) -> None:
    """Refuse a literal that stands for more digits than Python's int-string limit.

    With the limit off, its default of 4300 digits still holds, so the cost
    of a literal stays bounded.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if digits > limit:
        raise _DigitLimitError(f"the literal stands for {digits} digits, over the limit of {limit}")


def _longest_run(text: str) -> int:
    """The digits of the longest run of decimal digits in text, underscores removed."""
    return max(map(len, _DIGIT_RUN.findall(text.replace("_", ""))), default=0)


def _parsed(parse, text: str):
    """parse(text) with Python's own refusal, quoting only an excerpt of a long text."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        if len(text) <= _QUOTED:
            raise  # Python's message, which quotes text whole
        raise type(exc)(f"invalid literal for {parse.__name__}: {_excerpt(text)}") from None


def _read_int(text: str) -> int:
    """int(text), refused (_DigitLimitError) before any integer is formed when it is too long.

    The one reader of an integer from outside: point coordinates, map
    tokens, every integer flag and option value, and ORBITA_PRECISION.
    """
    _check_digits(_longest_run(text))
    return _parsed(int, text)


def _read_rational(text: str) -> Fraction:
    """Fraction(text), refused before any integer is formed when it stands for too many digits.

    Each run of digits is read as one integer. A literal w.f e k written out
    has len(w) + k digits before the point and len(f) - k after it. A run,
    or either count, past the digit limit raises _DigitLimitError.
    """
    _check_digits(_longest_run(text))
    match = _EXPONENT_LITERAL.fullmatch(text.replace("_", ""))
    if match:
        whole, fraction, exponent = match.groups("")
        k = int(exponent)
        _check_digits(max(len(whole) + k, len(fraction) - k))
    return _parsed(Fraction, text)


def parse_point(text: str) -> ProjectivePoint:
    """Point syntax: "a/b", an integer, "inf", or "[x:y]"."""
    t = text.strip()
    if t in ("inf", "Inf", "INF", "oo"):
        return ProjectivePoint(1, 0)
    if t.startswith("[") and t.endswith("]"):
        body = t[1:-1]
        parts = body.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad projective point syntax: {_excerpt(text)}")
        try:
            return from_pair(_read_int(parts[0]), _read_int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad projective point {_excerpt(text)}: {exc}") from None
    try:
        return canonical_point(_read_rational(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad point syntax {_excerpt(text)}: {exc}") from None


def cross_term(P: ProjectivePoint, Q: ProjectivePoint) -> int:
    return P.x * Q.y - Q.x * P.y


def log_distance(P: ProjectivePoint, Q: ProjectivePoint, p: int) -> int | float:
    """p-adic logarithmic distance; +infinity exactly when P = Q.

    In canonical coprime coordinates min(vp(x), vp(y)) vanishes for both
    points, so the distance is vp of the cross term. Always nonnegative.
    Raises ValueError when p is not prime, also for P = Q.
    """
    if not is_prime(p):
        raise ValueError(f"{_excerpt(p)} is not prime")
    c = cross_term(P, Q)
    return INFINITE_DISTANCE if c == 0 else _valuation(c, p)


def distance_table(
    points: tuple[ProjectivePoint, ...],
) -> dict[tuple[int, int], dict[int, int]]:
    """Positive distances {(i, j): {p: d_p(P_i, P_j)}} of distinct points, i < j.

    Each of the N(N-1)/2 cross terms is factored once. Pairs are visited in
    order of increasing gap j - i, and each cross term first has the primes
    already found divided out, so only the cofactor left over reaches factor.
    A prime absent from a pair's map has distance 0 for that pair. A budget
    error names the whole cross term and carries the exponents already found.
    """
    table: dict[tuple[int, int], dict[int, int]] = {}
    known: set[int] = set()
    for gap in range(1, len(points)):
        for i in range(len(points) - gap):
            c = cross_term(points[i], points[i + gap])
            if c == 0:
                raise ValueError("distance_table requires distinct points")
            found, m = _split(c, known)
            if m > 1:
                try:
                    found.update(factor(m))
                except FactorizationBudgetError as exc:
                    exc.n = c
                    exc.partial = dict(sorted((found | exc.partial).items()))
                    raise
            known.update(found)
            table[i, i + gap] = found
    return table
