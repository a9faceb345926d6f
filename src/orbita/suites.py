"""Randomized and corpus-driven verification suites.

Each suite re-checks one structural property on generated or recorded data.
It is a case generator in _RUNNERS, yielding (comparisons, counterexample or
None) per case; run_suite, the one runner, folds the cases into a
deterministic SuiteReport: same name, same seed, same report, with no timing
or environment noise. The generators are engineered so that every cross term
that must be factored splits into tractable pieces even when the point
coordinates themselves are large. The remark suite reads its distances
from projective.distance_table. The triangle suite factors only the primes
that two cross terms share, where an inequality can fail, and counts the
others without splitting them (numtheory._omega). The non-expansion suite
takes the tail check's pair step. The triangle and non-expansion suites run
the same checks as the certificate (orbits._triangle_witness,
orbits._non_expansion_step); the remark suite runs orbits._check_remark,
which the certificate derives from those two instead of running.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd, lcm

from .maps import RationalMap, evaluate, make_map, parse_map
from .numtheory import BudgetError, _omega, _split, factor
from .orbits import (
    CertificateCheckError,
    OrbitCertificate,
    _check_remark,
    _non_expansion_step,
    _triangle_witness,
    check_tail_divisibility,
    detect_orbit,
    synthesize_map,
)
from .projective import ProjectivePoint, cross_term, distance_table, from_pair, parse_point

__all__ = [
    "SuiteReport",
    "SUITE_NAMES",
    "SUITE_DEFAULTS",
    "CORPUS",
    "corpus_certificates",
    "prop51_cases",
    "prop52_cases",
    "remark_cases",
    "divisibility_cases",
    "run_suite",
]

# preperiodic (map, start) regression corpus; every entry closes quickly
CORPUS: tuple[tuple[str, str], ...] = (
    ("z^2 - 1", "1"),
    ("z^2 - 29/16", "-1/4"),
    ("z^2 - 29/16", "7/4"),
    ("z^2 - 29/16", "3/4"),
    ("z", "5/7"),
    ("z^2", "0"),
    ("z^2", "-1"),
    ("1/z", "2"),
    ("(z^2 - 1)/z", "1"),
    ("-1/(z + 1)", "0"),
    ("z^2 - 3/4", "-1/2"),
    ("z^2 - 2", "0"),
    ("z^2 - 3", "1"),
    ("1/z^2", "-1"),
    ("-z^3", "1"),
    ("z^3", "-1"),
)

# an explicit iteration count asks at most prop51's default size of a suite:
# `verify --suite all --iterations 10000` takes 4-5 s in-process on a 2-core
# x86-64 box (prop51 1.2 s, prop52 0.4 s, divisibility 2.7-3.0 s)
MAX_ITERATIONS = 10000

SUITE_DEFAULTS = {
    "prop51": 10000,
    "prop52": 1000,
    "remark": len(CORPUS),
    "divisibility": 200,
}


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run; field values are reproducible byte for byte."""

    suite: str
    seed: int
    cases: int
    comparisons: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_dict(self) -> dict:
        # integers ride as strings, like every other JSON surface here
        return {
            "suite": self.suite,
            "seed": str(self.seed),
            "cases": str(self.cases),
            "comparisons": str(self.comparisons),
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def corpus_certificates() -> list[OrbitCertificate]:
    """Certificates for every corpus entry; all close within tiny budgets."""
    certs = []
    for expr, start in CORPUS:
        try:
            certs.append(detect_orbit(parse_map(expr), parse_point(start)))
        except BudgetError:
            raise CertificateCheckError(f"corpus entry {expr!r} does not close") from None
    return certs


def _random_point(rng: random.Random, bits: int) -> ProjectivePoint:
    bound = 1 << bits
    while True:
        x = rng.randint(-bound, bound)
        y = rng.randint(-bound, bound)
        if x or y:
            return from_pair(x, y)


def _triangle_triple(
    rng: random.Random, i: int
) -> tuple[ProjectivePoint, ProjectivePoint, ProjectivePoint]:
    """Alternate small random triples with wide linear-combination triples.

    In the wide family R = a*P + b*Q coordinate-wise, so its coordinates
    reach 64 bits while each cross term factors as a multiplier times the
    small cross term of (P, Q): with g the common factor, sign included,
    that from_pair divides out of R, g*cross(P, R) = b*cross(P, Q) and
    g*cross(Q, R) = -a*cross(P, Q).
    """
    if i % 2 == 0:
        while True:
            P = _random_point(rng, 24)
            Q = _random_point(rng, 24)
            R = _random_point(rng, 24)
            if P != Q and Q != R and P != R:
                return P, Q, R
    while True:
        P = _random_point(rng, 16)
        Q = _random_point(rng, 16)
        if P == Q:
            continue
        a = rng.randint(1, 1 << 46) * rng.choice((1, -1))
        b = rng.randint(1, 1 << 46) * rng.choice((1, -1))
        R = from_pair(a * P.x + b * Q.x, a * P.y + b * Q.y)
        if R != P and R != Q:
            return P, Q, R


def _triangle_case(
    pq: int, qr: int, pr: int
) -> tuple[int, tuple[int, tuple[int, int, int]] | None]:
    """_triangle_witness on the cross terms of (P, Q), (Q, R) and (P, R), splitting what can fail.

    A prime of one cross term alone has two distances 0, and its three
    comparisons hold. So only the shared primes, those of the lcm of the
    pairwise gcds, are factored and compared (for three points they divide
    all three cross terms, which the check does not assume); every other
    prime adds 3, counted by numtheory._omega. A failing triple is compared
    again on its whole factored cross terms, so the count up to the failure
    is exact.
    """
    terms = (pq, qr, pr)
    shared = factor(lcm(gcd(pq, qr), gcd(qr, pr), gcd(pq, pr)))
    splits = [_split(c, shared) for c in terms]
    count, failure = _triangle_witness(*(found for found, _ in splits))
    if failure:
        return _triangle_witness(*(factor(c) for c in terms))
    return count + sum(3 * _omega(rest) for _, rest in splits), None


def prop51_cases(rng: random.Random, n: int) -> Iterator[tuple[int, str | None]]:
    """Ultrametric triangle inequality on n random point triples.

    For each triple and every prime dividing any pairwise cross term, checks
    d(P, R) >= min(d(P, Q), d(Q, R)) for all three choices of middle point
    (orbits._triangle_witness). Only the primes shared by two cross terms can
    fail, and only they are split; the others are counted (_triangle_case).
    """
    for i in range(n):
        P, Q, R = triple = _triangle_triple(rng, i)
        count, failure = _triangle_case(cross_term(P, Q), cross_term(Q, R), cross_term(P, R))
        if failure:
            p, order = failure
            P1, P2, P3 = (triple[t] for t in order)
            yield count, f"p={p}: d({P1},{P3}) < min over middle {P2}"
        else:
            yield count, None


def _random_map(rng: random.Random) -> RationalMap:
    while True:
        d = rng.randint(1, 3)
        F = tuple(rng.randint(-31, 31) for _ in range(d + 1))
        G = tuple(rng.randint(-31, 31) for _ in range(d + 1))
        try:
            return make_map(F, G)
        except ValueError:
            continue


def prop52_cases(rng: random.Random, n: int) -> Iterator[tuple[int, str | None]]:
    """Non-expansion at good primes on n random maps: d(f(P), f(Q)) >= d(P, Q).

    Only primes dividing the cross term of (P, Q) matter (elsewhere the right
    side is zero), so the one factored integer stays small by construction.
    The images' distances are valuations of their cross term at those primes;
    the step is the tail check's (orbits._non_expansion_step).
    """
    for _ in range(n):
        m = _random_map(rng)
        while True:
            P = _random_point(rng, 8)
            Q = _random_point(rng, 8)
            if P != Q:
                break
        image = cross_term(evaluate(m, P), evaluate(m, Q))
        count, failure = _non_expansion_step(m.res, cross_term(P, Q), image)
        yield count, f"map {m}, p={failure[0]}, points {P},{Q}" if failure else None


def remark_cases(rng: random.Random, n: int) -> Iterator[tuple[int, str | None]]:
    """Repeated-difference divisibility along the orbits of the first n corpus entries.

    Corpus-driven: the rng is not consumed, so the seed is recorded only.
    A failing entry's comparisons are not counted.
    """
    for cert in corpus_certificates()[:n]:
        try:
            yield _check_remark(cert, distance_table(cert.points)), None
        except CertificateCheckError as exc:
            yield 0, f"{cert.map}: {exc}"


_DIVISIBILITY_PRIMES = (2, 3, 5, 7, 11, 13)


def _unit_mod(rng: random.Random, p: int, lo: int = 1, hi: int = 60) -> int:
    while True:
        a = rng.randint(lo, hi)
        if a % p != 0:
            return a


def divisibility_cases(rng: random.Random, n: int) -> Iterator[tuple[int, str | None]]:
    """Monotone tail valuations on n synthesized fixed-point orbits.

    Builds degree-2 maps realizing a prescribed tail into the fixed point
    [0:1], with x-coordinates carrying increasing powers of a chosen prime so
    the comparisons are not vacuous, then checks every good prime's
    valuations along the tail. Only successful syntheses are cases; a
    failing tail's comparisons are not counted.
    """
    successes = 0
    attempts = 0
    origin = ProjectivePoint(0, 1)
    while successes < n:
        attempts += 1
        if attempts > 60 * n:
            raise CertificateCheckError("map synthesis success rate collapsed")
        p = rng.choice(_DIVISIBILITY_PRIMES)
        depth = 3 if attempts % 4 == 0 else 2
        # v_p of the x-coordinate climbs 1, 2, ... toward the fixed point,
        # so the monotonicity comparisons at p are not vacuous
        chain = []
        for level in range(1, depth + 1):
            num = p**level * _unit_mod(rng, p)
            den = _unit_mod(rng, p, 1, 200)
            chain.append(from_pair(num, den))
        chain.append(origin)
        pairs = list(zip(chain, chain[1:])) + [(origin, origin)]
        m2 = synthesize_map(pairs, 2)
        if m2 is None:
            continue
        successes += 1
        try:
            yield check_tail_divisibility(m2, chain), None
        except CertificateCheckError as exc:
            yield 0, f"map {m2}, tail {[str(P) for P in chain]}: {exc}"


_RUNNERS = {
    "prop51": prop51_cases,
    "prop52": prop52_cases,
    "remark": remark_cases,
    "divisibility": divisibility_cases,
}

SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, iterations: int | None = None, seed: int = 0) -> list[SuiteReport]:
    """Run one suite, or all of them, at per-suite default sizes.

    An explicit iteration count overrides the default for the random suites;
    the corpus-driven remark suite always covers the whole corpus. A suite
    stops at its first counterexample, which counts as a case.
    """
    if name == "all":
        return [r for suite in SUITE_NAMES for r in run_suite(suite, iterations, seed)]
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if iterations is None or name == "remark":
        n = SUITE_DEFAULTS[name]
    elif iterations < 1:
        raise ValueError("iterations must be positive")
    elif iterations > MAX_ITERATIONS:
        raise BudgetError(iterations, MAX_ITERATIONS, "suite iterations")
    else:
        n = iterations
    cases = comparisons = 0
    counterexample = None
    # string seeding hashes via sha512, so streams are stable across platforms
    rng = random.Random(f"{name}:{seed}")
    for count, counterexample in _RUNNERS[name](rng, n):
        cases += 1
        comparisons += count
        if counterexample is not None:
            break
    return [SuiteReport(name, seed, cases, comparisons, counterexample)]
