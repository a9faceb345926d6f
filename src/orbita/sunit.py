"""Brute-force S-unit equation enumeration inside exponent boxes.

Everything here is certified only within the declared box |a_i| <= B of
exponent vectors (signs enumerated separately): reports say "within box",
never "all solutions". Counts are compared in log-space against the
corresponding subgroup-rank bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, log2

from . import bounds as _bounds
from .numtheory import BudgetError, PlaceSet, Rational

__all__ = [
    "UnitEquationReport",
    "TwoWaysReport",
    "ThreeTermReport",
    "WORK_CAP",
    "solve_unit_equation",
    "two_way_representations",
    "count_three_term",
]

# ceiling on candidates times the bit length of prod p^B, the size of the
# box's largest integer: a scan's time grows with both. The benchmark's
# largest box is about 1.8e6; the slowest box admitted, the three-term scan
# over 2, 3, 5, 7, 11, 13 at B = 1 (3.2e7, held by its 2.1e6 candidates),
# takes about 1 s on a 2-core x86-64 box. Long operands are charged more
# than their bits (_sized_box): with coefficients of 200 to 4300 digits, the
# slowest three-term box admitted takes 0.25 to 0.5 s
WORK_CAP = 50_000_000
# past about this many bits, a candidate's gcd, quadratic in its operands,
# outweighs the rest of its work
_GCD_BITS = 1 << 15


def _box_pairs(primes: tuple[int, ...], B: int):
    """Every box S-unit as a coprime integer pair (n, d), d > 0, in scan order.

    Exponent vectors run in itertools.product order over [-B, B]^rank (last
    prime fastest), and each one yields +u before -u. This is the one place
    the scan order is defined.
    """
    steps = [[(p**e, 1) if e >= 0 else (1, p**-e) for e in range(-B, B + 1)] for p in primes]
    *outer, last = steps or [[(1, 1)]]
    for head in product(*outer):
        n0 = d0 = 1
        for a, b in head:
            n0 *= a
            d0 *= b
        for a, b in last:
            n = n0 * a
            d = d0 * b
            yield n, d
            yield -n, d


def _smooth_set(primes: tuple[int, ...], B: int) -> set[int]:
    """The (B+1)^rank integers prod p^e with 0 <= e <= B.

    A reduced fraction n/d is a box S-unit exactly when |n| and d both lie
    in this set, since coprime n and d carry disjoint exponent vectors.
    """
    out = {1}
    for p in primes:
        out = {m * p**e for m in out for e in range(B + 1)}
    return out


def _sized_box(S: PlaceSet, B: int, power: int = 1, operand_bits: int = 0) -> set[int]:
    """The smooth set of the box |a_i| <= B, once its scan is sized within WORK_CAP.

    The box holds 2 (2B+1)^r S-units, r = len(S.finite_primes) the rank; a
    scan over pairs of them (power 2) has that count squared as candidates.
    Their work is the count times the bit length of prod p^B, taken from
    logs without forming the product, or times the charge for operand_bits,
    the bits of the rationals the scan multiplies in, when that is larger:
    a candidate's operands are about as long as both together. L operand
    bits are charged L + L^2 / 2^15, as a candidate's gcd grows with L^2.
    """
    if B < 1:
        raise ValueError("exponent bound must be positive")
    candidates = (2 * (2 * B + 1) ** len(S.finite_primes)) ** power
    # exact in B: a float product overflows for a B beyond float range
    box_bits = int(B * Fraction(sum(log2(p) for p in S.finite_primes))) + 1
    work = candidates * max(box_bits, operand_bits + operand_bits**2 // _GCD_BITS)
    if work > WORK_CAP:
        raise BudgetError(work, WORK_CAP, "box candidate bits")
    return _smooth_set(S.finite_primes, B)


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


class _BoundedCount:
    """A report whose solution count is held against its log-space bound ln_bound."""

    @property
    def bound_ok(self) -> bool:
        if self.count == 0:
            return True
        return _bounds.compare(self.count, self.ln_bound) == _bounds.SATISFIED


@dataclass(frozen=True)
class UnitEquationReport(_BoundedCount):
    """Solutions of u + v = 1 found within the box, with the rank-based bound."""

    solutions: tuple[tuple[Fraction, Fraction], ...]
    gamma_rank: int
    ln_bound: _bounds.BoundValue

    @property
    def count(self) -> int:
        return len(self.solutions)


def solve_unit_equation(S: PlaceSet, B: int, precision: int) -> UnitEquationReport:
    """All (u, v) with u + v = 1 and both coordinates S-units in the box.

    One-sided scan: enumerate u over the box and test v = 1 - u, which is
    exhaustive because every solution's u coordinate lies in the box. The
    reported bound is the power-of-two solution bound at subgroup rank
    r = 2(s-1), where pairs (u, v) range over the square of the unit group.
    """
    smooth = _sized_box(S, B)
    sols = []
    for n, d in _box_pairs(S.finite_primes, B):
        m = d - n  # v = 1 - n/d = (d - n)/d, already in lowest terms
        if m and abs(m) in smooth:
            sols.append((Fraction(n, d), Fraction(m, d)))
    sols.sort()
    r = 2 * (S.s - 1)
    bound = _bounds.BoundFormula.of("BeukersSchlickewei", r=r)
    return UnitEquationReport(
        solutions=tuple(sols),
        gamma_rank=r,
        ln_bound=_bounds.evaluate_bound(bound, precision),
    )


@dataclass(frozen=True)
class TwoWaysReport:
    """Unordered S-unit pairs summing to T within the box."""

    T: Fraction
    representations: tuple[tuple[Fraction, Fraction], ...]

    @property
    def two_ways(self) -> bool:
        """True when T splits in at least two essentially different ways."""
        return len(self.representations) >= 2


def two_way_representations(T: Rational, S: PlaceSet, B: int) -> TwoWaysReport:
    """All unordered pairs {u, v} of box S-units with u + v = T.

    Pairs are distinct as sets, so {u, v} and {v, u} count once; the
    "two essentially different ways" predicate is simply >= 2 pairs.
    """
    T = Fraction(T)
    smooth = _sized_box(S, B, 1, _bits(T))
    tn, td = T.numerator, T.denominator
    seen: set[tuple[Fraction, Fraction]] = set()
    for n, d in _box_pairs(S.finite_primes, B):
        # v = T - n/d = (tn d - n td) / (td d)
        num = tn * d - n * td
        if not num:
            continue
        den = td * d
        g = gcd(num, den)
        if abs(num) // g in smooth and den // g in smooth:
            u = Fraction(n, d)
            v = Fraction(num // g, den // g)
            seen.add((u, v) if u <= v else (v, u))
    return TwoWaysReport(T=T, representations=tuple(sorted(seen)))


@dataclass(frozen=True)
class ThreeTermReport(_BoundedCount):
    """Nondegenerate solution count of a1 x1 + a2 x2 + a3 x3 = 1 in the box."""

    coefficients: tuple[Fraction, Fraction, Fraction]
    count: int
    gamma_rank: int
    ln_bound: _bounds.BoundValue


def count_three_term(S: PlaceSet, a, B: int, precision: int) -> ThreeTermReport:
    """Count ordered box S-unit triples solving the three-term unit equation.

    A solution is nondegenerate when no proper subsum of a_i x_i vanishes;
    only those are counted, matching the hypothesis of the rank-based bound
    e^((6n)^(3n) (r+1)) at n = 3, r = 3(s-1), evaluated at `precision` digits.
    """
    coeffs = tuple(Fraction(c) for c in a)
    if len(coeffs) != 3 or any(c == 0 for c in coeffs):
        raise ValueError("need exactly three nonzero coefficients")
    smooth = _sized_box(S, B, 2, sum(map(_bits, coeffs)))
    units = list(_box_pairs(S.finite_primes, B))
    (p1, q1), (p2, q2), (p3, q3) = ((c.numerator, c.denominator) for c in coeffs)
    # t2 = a2 x2 = e/c with c > 0. t2 = 1 makes t1 + t3 = 1 - t2 vanish, so
    # those x2 never count.
    seconds = [(p2 * n, q2 * d) for n, d in units]
    seconds = [(e, c) for e, c in seconds if e != c]
    count = 0
    for n, d in units:
        b, a = p1 * n, q1 * d  # t1 = a1 x1 = b/a
        if b == a:
            continue  # t1 = 1 makes t2 + t3 vanish
        # t3 = 1 - t1 - t2 = ((a - b) c - e a) / (a c), and
        # x3 = t3 / a3 = q3 ((a - b) c - e a) / (p3 a c)
        k, aq, ap = q3 * (a - b), q3 * a, p3 * a
        for e, c in seconds:
            num = k * c - e * aq
            if not num:
                continue  # t3 = 0
            den = ap * c
            g = gcd(num, den)
            if abs(num) // g not in smooth or abs(den) // g not in smooth:
                continue
            if b * c + e * a == 0:
                continue  # t1 + t2 = 0
            count += 1
    r = 3 * (S.s - 1)
    return ThreeTermReport(
        coefficients=coeffs,
        count=count,
        gamma_rank=r,
        ln_bound=_bounds.evaluate_bound(_bounds.BoundFormula.of("ESS", n=3, r=r), precision),
    )
