"""Known-answer families: rational cycles of z^2 + c whose orbits are known in advance.

Walde and Russo ("Rational periodic points of the quadratic function
Q_c(x) = x^2 + c", Amer. Math. Monthly 101, 1994) parametrize the rational
cycles of z^2 + c of period 2 and 3:

- period 3: for rational tau not in {0, -1},
  c = -(tau^6 + 2tau^5 + 4tau^4 + 8tau^3 + 9tau^2 + 4tau + 1) / (4tau^2 (tau+1)^2)
  has the 3-cycle through x_1 = (tau^3 + 2tau^2 + tau + 1) / (2tau(tau+1));
- period 2: c = -(3 + sigma^2)/4 has the 2-cycle (-1 +- sigma)/2.

In both, -x has the same image as the cycle point x, so it starts a tail of
length 1. The generator below computes each member's (m, n) with
fractions.Fraction and its bad primes, the primes of den(c), by trial
division of 2tau(tau+1) (or of 2 den(sigma)), never with orbita. The
denominator of c itself is never trial-divided: at 32 bits that takes
about a minute.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from orbita.maps import make_map
from orbita.numtheory import FactorizationBudgetError
from orbita.orbits import detect_orbit, run_certificate_checks
from orbita.projective import canonical_point


@dataclass(frozen=True)
class Member:
    """z^2 + c with a start whose orbit is known: tail m, period n, bad primes."""

    c: Fraction
    start: Fraction
    m: int
    n: int
    bad_primes: tuple[int, ...]

    @property
    def s(self) -> int:
        return 1 + len(self.bad_primes)


def _primes(n: int) -> set[int]:
    """The primes of |n| > 0, by trial division."""
    n = abs(n)
    found = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            found.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        found.add(n)
    return found


def _member(c: Fraction, x: Fraction, candidates: set[int]) -> Member:
    """The member of z^2 + c that starts at -x, for x on a cycle.

    The bad primes of z^2 + c are the primes of den(c). They are read from
    the candidate primes, which must cover them: each kept prime divides
    den(c), and dividing them all out must leave 1.
    """
    seen: dict[Fraction, int] = {}
    z = -x
    while z not in seen:
        assert len(seen) < 8, "not a short preperiodic orbit"
        seen[z] = len(seen)
        z = z * z + c
    bad = sorted(p for p in candidates if c.denominator % p == 0)
    rest = c.denominator
    for p in bad:
        while rest % p == 0:
            rest //= p
    assert rest == 1, "the candidate primes miss a prime of den(c)"
    return Member(c, -x, seen[z], len(seen) - seen[z], tuple(bad))


def period3(tau: Fraction) -> Member:
    t = Fraction(tau)
    assert t not in (0, -1)
    c = -(t**6 + 2 * t**5 + 4 * t**4 + 8 * t**3 + 9 * t**2 + 4 * t + 1) / (4 * t**2 * (t + 1) ** 2)
    x1 = (t**3 + 2 * t**2 + t + 1) / (2 * t * (t + 1))
    a, b = t.numerator, t.denominator
    # 2 tau (tau + 1) = 2 a (a + b) / b^2
    return _member(c, x1, _primes(2) | _primes(a) | _primes(a + b) | _primes(b))


def period2(sigma: Fraction) -> Member:
    s = Fraction(sigma)
    assert s not in (0, 1, -1)
    return _member(-(3 + s**2) / 4, (-1 + s) / 2, _primes(2 * s.denominator))


def draw(rng: random.Random, bits: int, integer: bool) -> Fraction:
    """A random rational of either sign, its numerator (and denominator) of `bits` bits."""
    a = rng.choice((1, -1)) * rng.randrange(1 << (bits - 1), 1 << bits)
    if integer:
        return Fraction(a)
    while True:
        b = rng.randrange(1 << (bits - 1), 1 << bits)
        if Fraction(a, b).denominator == b:
            return Fraction(a, b)


def quadratic(c: Fraction):
    """z^2 + c as orbita's map."""
    return make_map((c.denominator, 0, c.numerator), (0, 0, c.denominator))


def certify(member: Member):
    """orbita's certificate for the member, checked against what the family knows."""
    cert = detect_orbit(quadratic(member.c), canonical_point(member.start))
    assert all(run_certificate_checks(cert).values())
    assert (cert.tail_length, cert.period, cert.s) == (member.m, member.n, member.s)
    assert cert.bad_primes == member.bad_primes


def test_generator_gives_the_known_members():
    # tau = 1: z^2 - 29/16 and its 3-cycle 5/4 -> -1/4 -> -7/4
    assert period3(Fraction(1)) == Member(Fraction(-29, 16), Fraction(-5, 4), 1, 3, (2,))
    # sigma = 3: z^2 - 3 and its 2-cycle 1 -> -2, good reduction everywhere
    assert period2(Fraction(3)) == Member(Fraction(-3), Fraction(-1), 1, 2, ())
    # sigma = 2: z^2 - 7/4 and its 2-cycle 1/2 -> -3/2
    assert period2(Fraction(2)) == Member(Fraction(-7, 4), Fraction(-1, 2), 1, 2, (2,))


@pytest.mark.parametrize("bits", [4, 8, 12, 16, 20, 24])
def test_period3_integer_tau_certifies(bits):
    rng = random.Random(f"period3:{bits}")
    for _ in range(8):
        tau = draw(rng, bits, integer=True)
        member = period3(tau)
        assert (member.m, member.n) == (1, 3)
        # for an integer tau the numerator of c is coprime to 4 tau^2 (tau+1)^2
        assert member.s == 1 + len(_primes(2 * tau.numerator * (tau.numerator + 1)))
        certify(member)


@pytest.mark.parametrize("bits", [4, 8, 12])
def test_period3_fractional_tau_certifies(bits):
    rng = random.Random(f"period3-fraction:{bits}")
    for _ in range(3):
        member = period3(draw(rng, bits, integer=False))
        assert (member.m, member.n) == (1, 3)
        certify(member)


@pytest.mark.parametrize("bits", [4, 8, 12, 16, 20, 24])
def test_period2_certifies(bits):
    rng = random.Random(f"period2:{bits}")
    for _ in range(8):
        member = period2(draw(rng, bits, integer=False))
        assert (member.m, member.n) == (1, 2)
        certify(member)


# the refusals of known-finite 3-cycles at each size, by stage: Res is the
# model resultant den(c)^4, a perfect power, and a cross term is any other
# factorization. Each count is an upper bound; it may only fall.
REFUSALS = {
    28: {"res": 0, "cross term": 0},
    32: {"res": 0, "cross term": 0},
    40: {"res": 0, "cross term": 2},
    48: {"res": 0, "cross term": 1},
}


@pytest.mark.parametrize("bits", sorted(REFUSALS))
def test_period3_refusals_do_not_rise(bits):
    rng = random.Random(f"period3-refusals:{bits}")
    refused = {"res": 0, "cross term": 0}
    for _ in range(8):
        member = period3(draw(rng, bits, integer=True))
        try:
            certify(member)
        except FactorizationBudgetError as exc:
            refused["res" if exc.n == quadratic(member.c).res else "cross term"] += 1
    assert all(refused[stage] <= REFUSALS[bits][stage] for stage in refused), refused
