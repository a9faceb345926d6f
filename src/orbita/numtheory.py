"""Exact integer/rational arithmetic: valuations, factoring, place sets, membership.

Every operation here is pure and exact. A factorization is a dict {p: e}
from each prime of |n| to its exponent, in increasing prime order. Factoring
is deterministic (fixed trial-division table, fixed-parameter Brent rho) and
refuses loudly when its budget runs out instead of returning a partial
answer; the refusal carries the primes found so far in the same {p: e} shape.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, prod

Rational = Fraction

__all__ = [
    "BudgetError",
    "FactorizationBudgetError",
    "PlaceSet",
    "is_prime",
    "factor",
    "vp",
    "s_membership",
    "ZERO",
    "S_UNIT",
    "S_INTEGER_NOT_UNIT",
    "NOT_S_INTEGER",
]

DEFAULT_FACTOR_BITS = 4096

# a message quotes a value from outside whole up to this many characters
_QUOTED = 100


def _excerpt(value: object) -> str:
    """How a message shows a value from outside: repr(value), bounded in length.

    Up to _QUOTED characters of str(value) that is repr(value), so a text is
    quoted and an integer shows its digits; past that, the first 40 of them
    and the full length, so a refusal never echoes an over-long input whole.
    """
    text = str(value)
    if len(text) <= _QUOTED:
        return repr(value)
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{head}... ({len(text)} characters)"


# s_membership classification labels
ZERO = "zero"
S_UNIT = "S-unit"
S_INTEGER_NOT_UNIT = "S-integer-not-unit"
NOT_S_INTEGER = "not-S-integer"


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return tuple(i for i in range(limit) if flags[i])


# read-only prime table and its derived constants
_TABLE_LIMIT = 3000
_SMALL_PRIMES = _sieve(_TABLE_LIMIT)
_PRIMORIAL = prod(_SMALL_PRIMES)
# an integer > 1 below this with no prime factor in the table is prime
_TABLE_SQUARE = _TABLE_LIMIT * _TABLE_LIMIT

# The first 13 primes. The strong pseudoprimes psi_k to all of the first k
# prime bases are known (Jaeschke, Math. Comp. 1993; Sorenson & Webster,
# Math. Comp. 2017): the first 4 bases decide n < psi_4 = 3215031751, the
# first 7 decide n < psi_7 = 341550071728321, and all 13 decide
# n < psi_13 = 3317044064679887385961981. From psi_13 on, a strong Lucas
# test follows the 13 rounds, and the two together are the BPSW test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases (fewer below psi_7), then strong Lucas.

    A proof of primality below psi_13 = 3 317 044 064 679 887 385 961 981.
    From psi_13 on, an n that passes the 13 rounds must also pass a strong
    Lucas test: together they are the Baillie-PSW probable-prime test, which
    no composite is known to pass and psi_13 fails. An n over
    DEFAULT_FACTOR_BITS bits is refused with BudgetError: at 4253 bits the
    13 rounds take about 2 s.
    """
    if n < 2:
        return False
    if n.bit_length() > DEFAULT_FACTOR_BITS:
        raise BudgetError(n.bit_length(), DEFAULT_FACTOR_BITS, "prime bits")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 3215031751:
        bases = _MR_BASES[:4]
    elif n < 341550071728321:
        bases = _MR_BASES[:7]
    else:
        bases = _MR_BASES
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1 (Baillie & Wagstaff, Math. Comp. 1980).

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    Jacobi (D/n) = -1, P = 1 and Q = (1 - D)/4; a perfect square, for which
    no such D exists, is composite. With n + 1 = d 2^s, n passes when
    U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # D shares a factor with n
            return abs(D) == n
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n for k = 1, then for the binary prefixes of d:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, and with P = 1
    # U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class BudgetError(Exception):
    """A size or an amount of work over its budget, refused before that work is done."""

    def __init__(self, observed: int, limit: int, what: str):
        self.observed = observed
        self.limit = limit
        # Decimal prints an integer past Python's int-to-str digit limit
        super().__init__(f"{what} {Decimal(observed)} exceeds budget {Decimal(limit)}")


class FactorizationBudgetError(BudgetError):
    """A refused factorization (bits or rho work): n, the cofactor left, the partial {p: e}."""

    def __init__(
        self, observed: int, limit: int, what: str, n: int, cofactor: int, partial: dict[int, int]
    ):
        super().__init__(observed, limit, what)
        self.n = n
        self.cofactor = cofactor
        self.partial = partial


def _brent_rho(n: int, c: int, max_iter: int) -> tuple[int | None, int]:
    """One Brent-cycle rho run with increment c: a proper factor or None, and the iterations spent.

    A round of 2r iterations that would take the run past max_iter is not
    started: the run returns None and the iterations it would have needed.
    """
    y, m = 2, 128
    g = r = q = 1
    x = ys = y
    spent = 0
    while g == 1:
        if spent + 2 * r > max_iter:
            return None, spent + 2 * r
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        spent += r
        k = 0
        while k < r and g == 1:
            ys = y
            step = min(m, r - k)
            for _ in range(step):
                y = (y * y + c) % n
                q = q * (x - y) % n
            spent += step
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # gcd batching overshot; replay the last window one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return (g if g != n else None), spent


# rho work of one factor call: iterations times 64-bit limbs of the operand,
# shared by every increment and cofactor. Operands below 2^64 get 2^21
# iterations, enough for factors up to about 2^40 (Brent, BIT 20, 1980)
RHO_WORK = 1 << 21


def _table_stage(m: int) -> tuple[dict[int, int], int]:
    """The primes of m > 0 below the table limit, with exponents, and the rest of m.

    One gcd with the primorial shows which table primes divide m.
    """
    found: dict[int, int] = {}
    shown = gcd(m, _PRIMORIAL)
    if shown > 1:
        for p in _SMALL_PRIMES:
            if shown % p == 0:
                found[p] = e = _valuation(m, p)
                m //= p**e
                shown //= p
                if shown == 1:
                    break
    return found, m


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r^k = m and k prime, or (m, 1), for an m with no prime below the table limit.

    Every prime of m exceeds 3000 > 2^11, so a k-th power has k <= bits/11.
    """
    bits = m.bit_length()
    for k in _SMALL_PRIMES:
        if 11 * k > bits:
            break
        # integer Newton from above: the iterates fall to the floor of the root
        r = 1 << -(-bits // k)
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r**k == m:
            return r, k
    return m, 1


def factor(n: int, max_bits: int = DEFAULT_FACTOR_BITS) -> dict[int, int]:
    """Complete deterministic factorization {p: e} of |n| for a nonzero n, primes increasing.

    Raises FactorizationBudgetError (never returns a partial answer) when
    |n| exceeds max_bits or the rho stage needs more than RHO_WORK work. A
    cofactor that is a perfect power has its root factored once, before rho.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    if m.bit_length() > max_bits:
        raise FactorizationBudgetError(m.bit_length(), max_bits, "factor input bits", n, m, {})
    found, m = _table_stage(m)
    # m is now 1 or has no prime factor below the table limit, and so has
    # every piece rho splits off it; each piece rides with its multiplicity
    stack = [(m, 1)] if m > 1 else []
    work = 0
    while stack:
        m, e = stack.pop()
        if m < _TABLE_SQUARE or is_prime(m):
            found[m] = found.get(m, 0) + e
            continue
        root, k = _perfect_power(m)
        if k > 1:
            stack.append((root, e * k))
            continue
        limbs = -(-m.bit_length() // 64)
        for c in count(1):
            g, spent = _brent_rho(m, c, (RHO_WORK - work) // limbs)
            work += spent * limbs
            if g is not None:
                break
            if work > RHO_WORK:
                partial = dict(sorted(found.items()))
                raise FactorizationBudgetError(work, RHO_WORK, "factorization work", n, m, partial)
        stack.append((g, e))
        stack.append((m // g, e))
    return dict(sorted(found.items()))


def _product_tree(xs: list[int]) -> int:
    """The product of xs, multiplied pairwise so that the operands grow together."""
    while len(xs) > 1:
        xs = [prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


# _PRIME_PRODUCTS[k] is the product of the primes in (3000, 2^k], built on
# first use (0.2 ms at k = 12 up to 14 ms at k = 17 on a 2-core x86-64 box);
# the only mutable state
_PRIME_PRODUCTS: dict[int, int] = {}
# _omega factors a rest above 2^51 = (2^17)^3, past the cube roots P_17 covers
_OMEGA_BITS = 51


def _omega(n: int) -> int:
    """The number of distinct primes of a nonzero n, len(factor(n)), mostly without rho.

    After the table stage, a rest m up to 2^51 with no prime up to its cube
    root is 1, p, p^2 or pq (Lehman, Math. Comp. 1974). Its primes up to the
    cube root are those of one gcd with the product of the primes in
    (3000, 2^k], 2^(3k) >= m (Bernstein, "How to find smooth parts of
    integers", 2004); they alone are factored. A larger rest is factored.
    """
    found, m = _table_stage(abs(n))
    if m == 1:
        return len(found)
    if m.bit_length() > _OMEGA_BITS:
        return len(found) + len(factor(m))
    if m < _TABLE_SQUARE or is_prime(m):
        return len(found) + 1
    k = -(-m.bit_length() // 3)
    if k not in _PRIME_PRODUCTS:
        _PRIME_PRODUCTS[k] = _product_tree([p for p in _sieve(1 << k) if p > _TABLE_LIMIT])
    small = factor(gcd(m, _PRIME_PRODUCTS[k] % m))
    m = _split(m, small)[1]
    # every prime left exceeds 2^k, whose cube is at least m: m is 1, p, p^2 or pq
    rest = 0 if m == 1 else 1 if is_prime(m) or isqrt(m) ** 2 == m else 2
    return len(found) + len(small) + rest


def vp(x: Rational | int, p: int) -> int:
    """p-adic valuation of a nonzero rational, normalized so vp(p) = 1."""
    if not is_prime(p):
        raise ValueError(f"{_excerpt(p)} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is undefined at this layer")
    return _valuation(x.numerator, p) - _valuation(x.denominator, p)


def _valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n, for a p already known to be prime."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _split(n: int, primes: Iterable[int]) -> tuple[dict[int, int], int]:
    """{p: v_p(n)} of the listed primes that divide n != 0, in list order, and |n| without them."""
    if n == 0:
        raise ValueError("cannot split 0")
    m = abs(n)
    found: dict[int, int] = {}
    for p in primes:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        if v:
            found[p] = v
    return found, m


@dataclass(frozen=True)
class PlaceSet:
    """Finite set of places of Q: the archimedean place plus listed primes."""

    finite_primes: tuple[int, ...]

    def __post_init__(self):
        ps = self.finite_primes
        if list(ps) != sorted(set(ps)):
            raise ValueError("finite primes must be sorted and duplicate-free")
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{_excerpt(p)} is not prime")

    @classmethod
    def of(cls, *primes: int) -> "PlaceSet":
        return cls(tuple(sorted(set(primes))))

    @property
    def s(self) -> int:
        """Cardinality of the place set (archimedean place counts)."""
        return 1 + len(self.finite_primes)

    def __contains__(self, p: int) -> bool:
        return p in self.finite_primes

    def __str__(self) -> str:
        inner = ",".join(["inf"] + [str(p) for p in self.finite_primes])
        return "{" + inner + "}"


def s_membership(x: Rational | int, S: PlaceSet) -> str:
    """Classify x as zero, S-unit, S-integer-not-unit, or not-S-integer.

    Needs no factorization: divide the S-primes out of numerator and
    denominator and look at what is left.
    """
    x = Fraction(x)
    if x == 0:
        return ZERO
    if _split(x.denominator, S.finite_primes)[1] != 1:
        return NOT_S_INTEGER
    if _split(x.numerator, S.finite_primes)[1] != 1:
        return S_INTEGER_NOT_UNIT
    return S_UNIT
