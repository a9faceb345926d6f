"""Orbit detection, certification, and the fixed-point normalization pipeline.

detect_orbit iterates a map with exact arithmetic until the orbit closes, or
raises BudgetError when a budget runs out. A closed orbit becomes an
OrbitCertificate whose invariants are re-verified at every construction
(including deserialization). collapse_to_fixed_point reduces a certificate to
a tail into a fixed point Q_0 of the period-fold composite, and
check_tail_divisibility checks on it, in place, that the distance to Q_0
never shrinks at a good prime. normalize_orbit conjugates such a tail so that
Q_0 becomes [0:1], where verify_np_conditions checks the normalized-orbit
conditions and the tail bound. run_certificate_checks re-verifies the
distance propositions (triangle, non-expansion) on the certificate's own
points, both read from one distance_table of the orbit, and the tail check on
its collapsed tail, without normalizing it; the repeated-difference remark
follows from the first two on that table, so it is reported, not re-decided.
A failed check raises CertificateCheckError, whose message names the check
and its witnesses; check_tail_divisibility returns its comparison count, and
verify_np_conditions the tail bound's display line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import lcm

from . import bounds as _bounds
from .forms import Form
from .maps import (
    RationalMap,
    bad_primes,
    conjugate,
    evaluate,
    iterate_map,
    make_map,
)
from .numtheory import (
    S_UNIT,
    BudgetError,
    PlaceSet,
    _excerpt,
    _split,
    factor,
    is_prime,
    s_membership,
)
from .projective import INFINITE_DISTANCE, ProjectivePoint, cross_term, distance_table

__all__ = [
    "OrbitCertificate",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_MAX_BITS",
    "CertificateCheckError",
    "detect_orbit",
    "collapse_to_fixed_point",
    "normalize_orbit",
    "verify_np_conditions",
    "check_tail_divisibility",
    "synthesize_map",
    "run_certificate_checks",
    "certificate_to_json",
    "certificate_from_json",
]

# the orbit budgets, fixed so that every orbit ends within seconds: 10000
# points and 4096 bits per coordinate
DEFAULT_MAX_STEPS = 10000
DEFAULT_MAX_BITS = 4096

SCHEMA_TAG = "orbita/1"


@dataclass(frozen=True)
class OrbitCertificate:
    """A verified finite orbit: tail of length m entering a cycle of period n.

    The start point, the period and s = |S| (the archimedean place plus the
    bad primes) are derived from the fields, never stored beside them.
    """

    map: RationalMap
    tail_length: int
    points: tuple[ProjectivePoint, ...]
    bad_primes: tuple[int, ...]

    def __post_init__(self):
        m = self.tail_length
        if m < 0 or len(self.points) <= m:
            raise ValueError("need tail_length >= 0 and period >= 1")
        if len(set(self.points)) != len(self.points):
            raise ValueError("orbit points must be pairwise distinct")
        for i in range(len(self.points) - 1):
            if evaluate(self.map, self.points[i]) != self.points[i + 1]:
                raise ValueError(f"orbit breaks at step {i}")
        if evaluate(self.map, self.points[-1]) != self.points[m]:
            raise ValueError("orbit does not close into the cycle")
        if list(self.bad_primes) != sorted(set(self.bad_primes)):
            raise ValueError("bad primes must be sorted and duplicate-free")
        # the primes of res, derived without factoring it again: each listed
        # prime divides res, and dividing them all out leaves +-1
        res = self.map.res
        for p in self.bad_primes:
            if not is_prime(p):
                raise ValueError(f"bad prime {p} is not prime")
            if res % p:
                raise ValueError(f"bad prime {p} does not divide the model resultant")
        if _split(res, self.bad_primes)[1] != 1:
            raise ValueError("bad primes miss a prime factor of the model resultant")

    @property
    def start(self) -> ProjectivePoint:
        return self.points[0]

    @property
    def period(self) -> int:
        return len(self.points) - self.tail_length

    @property
    def s(self) -> int:
        """|S|: the archimedean place plus the bad primes."""
        return 1 + len(self.bad_primes)

    @property
    def length(self) -> int:
        return len(self.points)


def _coord_bits(P: ProjectivePoint) -> int:
    return max(abs(P.x).bit_length(), abs(P.y).bit_length())


def detect_orbit(m: RationalMap, start: ProjectivePoint) -> OrbitCertificate:
    """Iterate from start until the orbit closes, or raise BudgetError.

    The budgets are DEFAULT_MAX_STEPS points and DEFAULT_MAX_BITS bits per
    coordinate; a BudgetError is never a claim that the orbit is infinite.
    Cycle detection keys on canonical coordinates, so the first repeat pins
    both the exact tail length and the minimal period.
    """
    seen: dict[tuple[int, int], int] = {}
    pts: list[ProjectivePoint] = []
    P = start
    while True:
        key = (P.x, P.y)
        if key in seen:
            return OrbitCertificate(
                map=m,
                tail_length=seen[key],
                points=tuple(pts),
                bad_primes=tuple(bad_primes(m)),
            )
        if _coord_bits(P) > DEFAULT_MAX_BITS:
            raise BudgetError(_coord_bits(P), DEFAULT_MAX_BITS, "orbit coordinate bits")
        if len(pts) >= DEFAULT_MAX_STEPS:
            raise BudgetError(len(pts) + 1, DEFAULT_MAX_STEPS, "orbit points")
        seen[key] = len(pts)
        pts.append(P)
        P = evaluate(m, P)


def collapse_to_fixed_point(
    cert: OrbitCertificate,
) -> tuple[RationalMap, list[ProjectivePoint]]:
    """The period-fold composite and the tail points it walks into its fixed point.

    Returns (composite, [Q_(-kn), ..., Q_(-n), Q_0]) with k = floor(m/n); the
    composite fixes Q_0 because Q_0 is periodic of period n for the base map.
    """
    n = cert.period
    composite = iterate_map(cert.map, n)
    k = cert.tail_length // n
    tail = [cert.points[cert.tail_length - i * n] for i in range(k, -1, -1)]
    for P, Q in zip(tail, tail[1:] + tail[-1:]):
        if evaluate(composite, P) != Q:
            raise CertificateCheckError(f"composite does not walk {P} along the tail")
    return composite, tail


def normalize_orbit(
    m: RationalMap, tail: list[ProjectivePoint]
) -> tuple[RationalMap, list[ProjectivePoint], RationalMap]:
    """Conjugate so the terminal fixed point becomes [0:1].

    The conjugating degree-1 map is built from an extended-gcd relation on
    the fixed point's coprime coordinates and has resultant (determinant) 1,
    so the conjugate's derived resultant equals the model's and the bad-prime
    set is preserved.
    """
    if not tail:
        raise ValueError("tail must be nonempty")
    q0 = tail[-1]
    if evaluate(m, q0) != q0:
        raise ValueError("last tail point must be fixed by the map")
    x0, y0 = q0.x, q0.y
    if y0 == 0:
        r, s = 1, 0
    else:
        r = pow(x0, -1, y0)  # 0 <= r < y0, exists since gcd(x0, y0) = 1
        s = (1 - r * x0) // y0
    A = make_map((y0, -x0), (r, s))
    if A.res != 1:
        raise CertificateCheckError(f"normalizing map has resultant {A.res}")
    map2 = conjugate(m, A)
    tail2 = [evaluate(A, P) for P in tail]
    if tail2[-1] != ProjectivePoint(0, 1) or evaluate(map2, tail2[-1]) != tail2[-1]:
        raise CertificateCheckError("normalization must fix [0:1] at the tail's end")
    return map2, tail2, A


class CertificateCheckError(Exception):
    """A certificate-level structural check failed; means an arithmetic bug.

    The message names the failed check and its witnesses.
    """


def verify_np_conditions(
    map2: RationalMap, tail2: list[ProjectivePoint], S: PlaceSet, precision: int
) -> str:
    """Check the normalized-orbit conditions and the log-space tail bound.

    (1) the terminal point is [0:1]; (2) each point's coordinate gcd is an
    S-unit, which holds by construction since ProjectivePoint keeps coprime
    coordinates; (3) all pairwise coordinate cross terms are nonzero. The tail
    bound is m <= NpTail(s) = e^(10^12 s) - 2 at `precision` digits, compared in
    log space by bounds.compare; m = 0 satisfies it. Returns the bound's display
    line, and raises CertificateCheckError naming the condition and its indices.
    """
    if not tail2:
        raise ValueError("tail must be nonempty")
    if s_membership(map2.res, S) != S_UNIT:
        raise ValueError(f"S = {S} must contain the bad primes: the resultant is not an S-unit")
    if tail2[-1] != ProjectivePoint(0, 1):
        raise CertificateCheckError(
            f"condition (1) failed at ({len(tail2) - 1},): terminal point is not [0:1]"
        )
    for i, j in combinations(range(len(tail2)), 2):
        if cross_term(tail2[i], tail2[j]) == 0:
            raise CertificateCheckError(
                f"condition (3) failed at ({i}, {j}): zero cross term (equal points)"
            )
    m = len(tail2) - 1
    b = _bounds.evaluate_bound(_bounds.BoundFormula.of("NpTail", s=S.s), precision)
    display = f"m = {m} <= {b.exact_form}, ln <= {b.ln_upper_str}"
    if m and _bounds.compare(m, b) != _bounds.SATISFIED:
        raise CertificateCheckError(f"tail bound failed: {display}")
    return display


def check_tail_divisibility(m: RationalMap, tail: list[ProjectivePoint]) -> int:
    """Along a tail into a fixed point Q of m, v_p(x_i) is nondecreasing for every good prime p.

    x_i is the cross term of tail[i] with Q, so v_p(x_i) = d_p(tail[i], Q)
    in canonical coordinates (when Q = [0:1], x_i is the x-coordinate): the
    distance to Q never shrinks, which is exactly non-expansion at
    good-reduction primes. The primes of x_i that divide m's resultant are
    skipped. Returns the comparison count; a violation raises
    CertificateCheckError naming the step, the prime and both valuations.
    Raises ValueError when the last point is not fixed by m, or an earlier
    point is that fixed point.
    """
    if not tail or evaluate(m, tail[-1]) != tail[-1]:
        raise ValueError("last tail point must be fixed by the map")
    x = [cross_term(P, tail[-1]) for P in tail]
    if 0 in x[:-1]:
        raise ValueError(f"tail reaches its fixed point at step {x.index(0)}, before its end")
    comparisons = 0
    for i in range(len(tail) - 1):
        count, failure = _non_expansion_step(m.res, x[i], x[i + 1])
        comparisons += count
        if failure:
            p, v_here, v_next = failure
            raise CertificateCheckError(
                f"v_{p}(x_{i}) = {v_here} > v_{p}(x_{i + 1}) = {v_next}"
            )
    return comparisons


def _rref_nullspace(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Basis of the nullspace of the row system, by exact Gauss-Jordan."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -mat[row_idx][fc]
        basis.append(v)
    return basis


def synthesize_map(
    pairs: list[tuple[ProjectivePoint, ProjectivePoint]], d: int
) -> RationalMap | None:
    """A degree-d map realizing the prescribed point images, or None.

    Solves the homogeneous linear system on the 2d+2 coefficients, then
    searches nullspace lines (basis vectors first, then small combinations,
    in a fixed order, each formed only when reached) for one with nonzero
    resultant.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if len(pairs) > 2 * d + 1:
        raise ValueError("too many constraints for the coefficient space")
    width = 2 * d + 2
    rows = []
    for P, Q in pairs:
        monomials = [P.x ** (d - i) * P.y**i for i in range(d + 1)]
        row = [Fraction(mono * Q.y) for mono in monomials]
        row += [Fraction(-mono * Q.x) for mono in monomials]
        rows.append(row)
    basis = _rref_nullspace(rows, width)
    candidates = chain(
        basis,
        ([a + b for a, b in zip(u, v)] for u, v in combinations(basis, 2)),
        ([a - b for a, b in zip(u, v)] for u, v in permutations(basis, 2)),
        ([a + 2 * b for a, b in zip(u, v)] for u, v in permutations(basis, 2)),
    )
    for vec in candidates:
        scale = lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        F: Form = tuple(ints[: d + 1])
        G: Form = tuple(ints[d + 1 :])
        try:
            candidate = make_map(F, G)
        except ValueError:
            continue
        if all(evaluate(candidate, P) == Q for P, Q in pairs):
            return candidate
    return None


def _triangle_witness(
    dpq: dict[int, int], dqr: dict[int, int], dpr: dict[int, int]
) -> tuple[int, tuple[int, tuple[int, int, int]] | None]:
    """Ultrametric inequality on a triple (P, Q, R), for all three middle points.

    Takes the positive distances {p: d_p} of (P, Q), (Q, R) and (P, R); a
    prime absent from a map has distance 0 there. For every prime in
    ascending order it checks d(A, C) >= min(d(A, B), d(B, C)) with middle B
    = Q, then R, then P. Returns the comparison count and the first failure
    as (p, (a, b, c)), the triple's indices of A, B and C, or None.
    """
    comparisons = 0
    for p in sorted(dpq.keys() | dqr.keys() | dpr.keys()):
        pq, qr, pr = dpq.get(p, 0), dqr.get(p, 0), dpr.get(p, 0)
        for lhs, rhs, order in (
            (pr, min(pq, qr), (0, 1, 2)),
            (pq, min(pr, qr), (0, 2, 1)),
            (qr, min(pq, pr), (1, 0, 2)),
        ):
            comparisons += 1
            if lhs < rhs:
                return comparisons, (p, order)
    return comparisons, None


def _non_expansion_witness(
    before: dict[int, int], after: dict[int, int] | None, skip
) -> tuple[int, tuple[int, int, int] | None]:
    """Non-expansion on a pair and its image pair: d_p(F P, F Q) >= d_p(P, Q).

    Takes the pair's positive distances {p: d_p}, the image pair's distances
    (a prime absent there has distance 0), or None when the images coincide,
    which puts them at infinite distance, and the primes to skip. Walks the
    pair's primes in the order given and returns the comparison count and the
    first failure as (p, before, after), or None.
    """
    comparisons = 0
    for p, v in before.items():
        if p in skip:
            continue
        comparisons += 1
        w = INFINITE_DISTANCE if after is None else after.get(p, 0)
        if w < v:
            return comparisons, (p, v, w)
    return comparisons, None


def _non_expansion_step(res: int, c: int, image: int) -> tuple[int, tuple[int, int, int] | None]:
    """Non-expansion from a pair to its image pair, read from their cross terms.

    Factors the pair's cross term c, reads the image cross term's valuations
    at those primes (none when the image cross term is 0: the images
    coincide), skips the primes that divide the resultant res, and returns
    what _non_expansion_witness returns.
    """
    before = factor(c)
    after = None if image == 0 else _split(image, before)[0]
    return _non_expansion_witness(before, after, {p for p in before if res % p == 0})


def _check_triangle(points: tuple[ProjectivePoint, ...], table: dict) -> None:
    for i, j, k in combinations(range(len(points)), 3):
        _, failure = _triangle_witness(table[i, j], table[j, k], table[i, k])
        if failure:
            p, order = failure
            triple = (points[i], points[j], points[k])
            P1, P2, P3 = (triple[t] for t in order)
            raise CertificateCheckError(
                f"triangle inequality fails at p={p} for {P1},{P2},{P3}"
            )


def _check_non_expansion(cert: OrbitCertificate, table: dict) -> None:
    bad = set(cert.bad_primes)
    # point i maps to point i + 1, and the last one back to point m, the cycle's entry
    image = [*range(1, cert.length), cert.tail_length]
    for (i, j), before in table.items():
        # no entry when the images coincide: infinite distance
        after = table.get(tuple(sorted((image[i], image[j]))))
        _, failure = _non_expansion_witness(before, after, bad)
        if failure:
            raise CertificateCheckError(
                f"non-expansion fails at p={failure[0]} for points {i},{j}"
            )


def _check_remark(cert: OrbitCertificate, table: dict) -> int:
    m, n = cert.tail_length, cert.period
    bad = set(cert.bad_primes)
    comparisons = 0
    for a in range(-m, n):
        for b in range(1, m + n):
            for k in range(2, m + n):
                if not -m <= a + k * b < n:
                    continue
                near = table[m + a, m + a + b]
                far = table[m + a, m + a + k * b]
                for p in near.keys() | far.keys():
                    if p in bad:
                        continue
                    comparisons += 1
                    if far.get(p, 0) < near.get(p, 0):
                        raise CertificateCheckError(
                            f"remark fails at p={p}, a={a}, b={b}, k={k}"
                        )
    return comparisons


def _check_divisibility(cert: OrbitCertificate) -> int:
    return check_tail_divisibility(*collapse_to_fixed_point(cert))


def run_certificate_checks(cert: OrbitCertificate) -> dict[str, bool]:
    """Re-verify the structural propositions on the certificate's own points.

    Raises CertificateCheckError on any violation; with exact arithmetic a
    violation can only mean an implementation bug, never new mathematics.

    The repeated-difference remark ("remark") is derived, not checked: it
    follows from the triangle and non-expansion checks on the same table,
    whether or not the table is right. Take u = m + a and a step b with
    u + kb <= m + n - 1, so no index wraps. Non-expansion on the pair
    (P_u+i, P_u+b+i), for i = 0, ..., jb - 1, gives d(P_u+jb, P_u+(j+1)b) >=
    d(P_u, P_u+b) at every good prime. The triangle check on (P_u,
    P_u+(j-1)b, P_u+jb) then gives d(P_u, P_u+jb) >= min(d(P_u, P_u+(j-1)b),
    d(P_u+(j-1)b, P_u+jb)) >= d(P_u, P_u+b) by induction on j up to k, which
    is the remark. So once both checks pass, _check_remark cannot raise on
    the table; it stays for the remark suite.
    """
    table = distance_table(cert.points)
    _check_triangle(cert.points, table)
    _check_non_expansion(cert, table)
    _check_divisibility(cert)
    return {"prop51": True, "prop52": True, "remark": True, "divisibility": True}


# (s, precision) -> CanciC(s) and MortonSilverman(s - 1), each with its ln_upper_str.
# Both bounds depend on nothing else, so each process evaluates them once.
_CERTIFICATE_BOUNDS: dict[tuple[int, int], tuple] = {}


def _bounds_block(cert: OrbitCertificate, precision: int) -> dict:
    key = (cert.s, precision)
    cached = _CERTIFICATE_BOUNDS.get(key)
    if cached is None:
        c = _bounds.evaluate_bound(_bounds.BoundFormula.of("CanciC", s=cert.s), precision)
        ms = _bounds.evaluate_bound(
            _bounds.BoundFormula.of("MortonSilverman", t=len(cert.bad_primes), D=1), precision
        )
        cached = _CERTIFICATE_BOUNDS[key] = (c, c.ln_upper_str, ms, ms.ln_upper_str)
    c, ln_c, ms, ln_ms = cached
    ok_total = _bounds.compare(cert.length, c) == _bounds.SATISFIED
    ok_period = _bounds.compare(cert.period, ms) == _bounds.SATISFIED
    return {
        "ln_c_s": ln_c,
        "ln_ms": ln_ms,
        "satisfied": bool(ok_total and ok_period),
    }


def certificate_to_json(cert: OrbitCertificate, precision: int) -> dict:
    """Schema "orbita/1" document, its bounds at `precision` digits; every integer is a string."""
    checks = run_certificate_checks(cert)
    return {
        "schema": SCHEMA_TAG,
        "map": {
            "F": [str(c) for c in cert.map.F],
            "G": [str(c) for c in cert.map.G],
        },
        "start": [str(cert.start.x), str(cert.start.y)],
        "tail_length": str(cert.tail_length),
        "period": str(cert.period),
        "points": [[str(P.x), str(P.y)] for P in cert.points],
        "bad_primes": [str(p) for p in cert.bad_primes],
        "s": str(cert.s),
        "checks": checks,
        "bounds": _bounds_block(cert, precision),
    }


def certificate_from_json(doc: dict) -> OrbitCertificate:
    """Rebuild and fully re-verify a certificate from its JSON document.

    The document's "start", "period" and "s" must equal the values the
    certificate derives from its points, tail length and bad primes.
    """
    if doc.get("schema") != SCHEMA_TAG:
        raise ValueError(f"unsupported schema {_excerpt(doc.get('schema'))}")
    m = RationalMap(
        tuple(int(c) for c in doc["map"]["F"]),
        tuple(int(c) for c in doc["map"]["G"]),
    )
    cert = OrbitCertificate(
        map=m,
        tail_length=int(doc["tail_length"]),
        points=tuple(ProjectivePoint(int(x), int(y)) for x, y in doc["points"]),
        bad_primes=tuple(int(p) for p in doc["bad_primes"]),
    )
    if ProjectivePoint(int(doc["start"][0]), int(doc["start"][1])) != cert.start:
        raise ValueError("start must be points[0]")
    if int(doc["period"]) != cert.period:
        raise ValueError("period must be len(points) - tail_length")
    if int(doc["s"]) != cert.s:
        raise ValueError("s must be 1 + |bad_primes|")
    return cert
