import dataclasses
import functools
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from orbita import bounds, maps, numtheory, orbits, projective
from orbita.maps import bad_primes, conjugate, evaluate, make_map, parse_map
from orbita.numtheory import BudgetError, FactorizationBudgetError, PlaceSet, factor
from orbita.orbits import (
    DEFAULT_MAX_BITS,
    DEFAULT_MAX_STEPS,
    CertificateCheckError,
    OrbitCertificate,
    _check_non_expansion,
    _check_remark,
    _check_triangle,
    _non_expansion_step,
    _non_expansion_witness,
    certificate_from_json,
    certificate_to_json,
    check_tail_divisibility,
    collapse_to_fixed_point,
    detect_orbit,
    normalize_orbit,
    run_certificate_checks,
    synthesize_map,
    verify_np_conditions,
)
from orbita.projective import (
    ProjectivePoint,
    canonical_point,
    cross_term,
    distance_table,
    log_distance,
    parse_point,
)
from orbita.suites import CORPUS, corpus_certificates

O = ProjectivePoint(0, 1)


def _affine(*values):
    return [canonical_point(Fraction(v)) for v in values]


@functools.cache
def _corpus_and_conjugates() -> tuple[OrbitCertificate, ...]:
    """Every corpus certificate and 200 seeded conjugates A o f o A^-1 of corpus
    maps, A a small integer matrix with 1 <= |det A| <= 3."""
    rng = random.Random("tail-in-place")
    pool = [
        (a, b, c, d)
        for a, b, c, d in product(range(-2, 3), repeat=4)
        if 1 <= abs(a * d - b * c) <= 3 and gcd(gcd(a, b), gcd(c, d)) == 1
    ]
    certs = corpus_certificates()
    for _ in range(200):
        expr, start = rng.choice(CORPUS)
        a, b, c, d = rng.choice(pool)
        A = make_map((a, b), (c, d))
        m = conjugate(parse_map(expr), A)
        certs.append(detect_orbit(m, evaluate(A, parse_point(start))))
    return tuple(certs)


class TestDetect:
    @pytest.mark.parametrize(
        "expr,start,m,n",
        [
            ("z^2 - 1", "1", 1, 2),
            ("z^2 - 29/16", "-1/4", 0, 3),
            ("z^2 - 29/16", "7/4", 1, 3),
            ("z^2 - 2", "0", 2, 1),
            ("1/z", "2", 0, 2),
            ("z", "5/7", 0, 1),
            ("-1/(z + 1)", "0", 0, 3),
            ("(z^2 - 1)/z", "1", 2, 1),
            ("1/z^2", "-1", 1, 1),
            ("z^2", "-1", 1, 1),
            ("z^2 - 3", "1", 0, 2),
            ("z^2 - 3/4", "-1/2", 0, 1),
        ],
    )
    def test_known_orbits(self, expr, start, m, n):
        cert = detect_orbit(parse_map(expr), parse_point(start))
        assert isinstance(cert, OrbitCertificate)
        assert (cert.tail_length, cert.period) == (m, n)

    def test_certificate_contents(self):
        cert = detect_orbit(parse_map("z^2 - 1"), parse_point("1"))
        assert cert.points == tuple(_affine(1, 0, -1))
        assert cert.start == canonical_point(1)
        assert (cert.tail_length, cert.period) == (1, 2)
        assert cert.bad_primes == ()
        assert cert.s == 1
        assert cert.length == 3

    def test_orbit_through_infinity(self):
        cert = detect_orbit(parse_map("-1/(z + 1)"), parse_point("0"))
        assert cert.points == (O, canonical_point(Fraction(-1)), ProjectivePoint(1, 0))

    def test_steps_budget(self):
        # the orbit needs a 10001st point, one over the budget
        with pytest.raises(BudgetError) as info:
            detect_orbit(parse_map("z + 1"), parse_point("0"))
        assert (info.value.observed, info.value.limit) == (10001, DEFAULT_MAX_STEPS)
        assert DEFAULT_MAX_STEPS == 10000
        assert str(info.value) == "orbit points 10001 exceeds budget 10000"

    def test_bits_budget(self):
        with pytest.raises(BudgetError) as info:
            detect_orbit(parse_map("z^2 + 1"), parse_point("1"))
        assert info.value.observed > DEFAULT_MAX_BITS == info.value.limit == 4096
        assert str(info.value).startswith("orbit coordinate bits ")

    def test_orbit_indexing(self):
        # Q_i, -m <= i <= n-1, is points[m + i]; Q_0 is the first cycle point
        cert = detect_orbit(parse_map("z^2 - 29/16"), parse_point("7/4"))
        assert (cert.tail_length, cert.period) == (1, 3)
        assert cert.points[cert.tail_length - 1] == canonical_point(Fraction(7, 4))
        assert cert.points[cert.tail_length] == canonical_point(Fraction(5, 4))
        assert cert.points[cert.tail_length + 2] == canonical_point(Fraction(-7, 4))

    def test_conjugation_equivariance(self):
        m = parse_map("z^2 - 29/16")
        A = make_map((2, 1), (1, 1))
        from orbita.maps import conjugate

        cert = detect_orbit(m, parse_point("7/4"))
        cert2 = detect_orbit(conjugate(m, A), evaluate(A, cert.start))
        assert (cert2.tail_length, cert2.period) == (cert.tail_length, cert.period)
        assert cert2.points == tuple(evaluate(A, P) for P in cert.points)


class TestCertificateValidation:
    @pytest.fixture
    def cert(self):
        return detect_orbit(parse_map("z^2 - 1"), parse_point("1"))

    def test_tampered_period(self, cert):
        # tail 0 over the same three points claims period 3
        with pytest.raises(ValueError):
            dataclasses.replace(cert, tail_length=0)

    def test_tampered_points(self, cert):
        pts = (cert.points[0], canonical_point(5), cert.points[2])
        with pytest.raises(ValueError):
            dataclasses.replace(cert, points=pts)

    def test_duplicate_points(self, cert):
        with pytest.raises(ValueError):
            dataclasses.replace(cert, points=cert.points[:2] + (cert.points[0],))

    def test_wrong_bad_primes(self, cert):
        with pytest.raises(ValueError):
            dataclasses.replace(cert, bad_primes=(3,))

    @pytest.mark.parametrize(
        "listed,message",
        [
            ((2,), "miss a prime factor"),  # 3 divides the resultant too
            ((2, 3, 5), "does not divide"),
            ((2, 3, 6), "not prime"),
            ((3, 4), "not prime"),
        ],
    )
    def test_bad_primes_derived_from_the_resultant(self, listed, message):
        # Res = 2916 = 2^2 * 3^6: the listed primes must divide it and leave +-1
        cert = detect_orbit(parse_map("3/2*z^2 - 2/3"), parse_point("2/3"))
        assert cert.map.res == 2916 and cert.bad_primes == (2, 3)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cert, bad_primes=listed)

    def test_nonminimal_period_rejected(self):
        # points of a genuine 2-cycle declared with doubled period
        m = parse_map("z^2 - 3")
        with pytest.raises(ValueError):
            OrbitCertificate(
                map=m,
                tail_length=0,
                points=tuple(_affine(1, -2, 1, -2)),
                bad_primes=(),
            )


class TestCollapse:
    def test_collapse_period_one(self):
        cert = detect_orbit(parse_map("z^2 - 2"), parse_point("0"))
        composite, tail = collapse_to_fixed_point(cert)
        assert composite == cert.map
        assert tail == _affine(0, -2, 2)

    def test_collapse_period_two(self):
        cert = detect_orbit(parse_map("z^2 - 1"), parse_point("1"))
        composite, tail = collapse_to_fixed_point(cert)
        assert composite == parse_map("(z^2 - 1)^2 - 1")
        assert tail == _affine(0)  # floor(1/2) = 0, only the fixed point
        assert evaluate(composite, tail[0]) == tail[0]

    def test_collapse_long_tail(self):
        # build a degree-2 map walking 4 -> 3 -> 2 -> 2 so m = 2, n = 1
        pts = _affine(4, 3, 2)
        pairs = list(zip(pts, pts[1:])) + [(pts[-1], pts[-1])]
        m = synthesize_map(pairs, 2)
        assert m is not None
        cert = detect_orbit(m, pts[0])
        assert (cert.tail_length, cert.period) == (2, 1)
        composite, tail = collapse_to_fixed_point(cert)
        assert tail == pts


class TestNormalize:
    def test_affine_fixed_point(self):
        cert = detect_orbit(parse_map("z^2 - 2"), parse_point("0"))
        composite, tail = collapse_to_fixed_point(cert)
        map2, tail2, A = normalize_orbit(composite, tail)
        assert A.res == 1
        assert map2 == parse_map("z^2 + 4*z")
        assert [P.x for P in tail2] == [-2, -4, 0]
        assert tail2[-1] == O
        assert abs(map2.res) == abs(composite.res)

    def test_fixed_point_at_infinity(self):
        cert = detect_orbit(parse_map("(z^2 - 1)/z"), parse_point("1"))
        composite, tail = collapse_to_fixed_point(cert)
        assert tail[-1] == ProjectivePoint(1, 0)
        map2, tail2, A = normalize_orbit(composite, tail)
        assert tail2[-1] == O
        assert evaluate(map2, O) == O
        assert A.res == 1

    def test_rejects_unfixed_terminal(self):
        m = parse_map("z^2 - 1")
        with pytest.raises(ValueError):
            normalize_orbit(m, _affine(1, 0))  # 0 is not fixed
        with pytest.raises(ValueError):
            normalize_orbit(m, [])

    def test_bad_prime_set_preserved(self):
        cert = detect_orbit(parse_map("z^2 - 29/16"), parse_point("7/4"))
        composite, tail = collapse_to_fixed_point(cert)
        map2, _, _ = normalize_orbit(composite, tail)
        assert set(bad_primes(map2)) == set(bad_primes(composite))


class TestNpConditions:
    def _pipeline(self, expr, start):
        cert = detect_orbit(parse_map(expr), parse_point(start))
        composite, tail = collapse_to_fixed_point(cert)
        map2, tail2, _ = normalize_orbit(composite, tail)
        S = PlaceSet(tuple(sorted(set(cert.bad_primes) | set(bad_primes(map2)))))
        return map2, tail2, S

    def test_happy_path(self):
        map2, tail2, S = self._pipeline("z^2 - 2", "0")
        display = verify_np_conditions(map2, tail2, S, 60)
        assert display == "m = 2 <= e^(10^12 s) - 2 with s=1, ln <= 1000000000000.0"
        assert "10^12" in display

    def test_empty_tail_satisfies_the_bound(self):
        display = verify_np_conditions(parse_map("z^2"), [O], PlaceSet.of(), 60)
        assert display.startswith("m = 0 <= ") and "with s=1," in display

    def test_condition1_failure(self):
        map2, tail2, S = self._pipeline("z^2 - 2", "0")
        with pytest.raises(CertificateCheckError) as info:
            verify_np_conditions(map2, tail2[:-1], S, 60)
        assert str(info.value) == "condition (1) failed at (1,): terminal point is not [0:1]"

    def test_condition3_failure_on_duplicated_point(self):
        map2, tail2, S = self._pipeline("z^2 - 2", "0")
        with pytest.raises(CertificateCheckError) as info:
            verify_np_conditions(map2, [tail2[0], tail2[-1], tail2[0], tail2[-1]], S, 60)
        assert str(info.value) == "condition (3) failed at (0, 2): zero cross term (equal points)"

    def test_tail_bound_not_satisfied_raises(self, monkeypatch):
        # no real tail reaches e^(10^12 s); an inconclusive comparison is not a pass
        map2, tail2, S = self._pipeline("z^2 - 2", "0")
        monkeypatch.setattr(bounds, "compare", lambda m, b: bounds.INCONCLUSIVE)
        with pytest.raises(CertificateCheckError) as info:
            verify_np_conditions(map2, tail2, S, 60)
        assert str(info.value) == (
            "tail bound failed: m = 2 <= e^(10^12 s) - 2 with s=1, ln <= 1000000000000.0"
        )
        # m = 0 is never compared
        assert verify_np_conditions(map2, tail2[-1:], S, 60).startswith("m = 0 <= ")

    def test_requires_covering_place_set(self):
        map2, tail2, _ = self._pipeline("z^2 - 29/16", "7/4")
        with pytest.raises(ValueError):
            verify_np_conditions(map2, tail2, PlaceSet.of(), 60)


class TestTailDivisibility:
    def test_happy_path(self):
        cert = detect_orbit(parse_map("z^2 - 2"), parse_point("0"))
        composite, tail = collapse_to_fixed_point(cert)
        map2, tail2, _ = normalize_orbit(composite, tail)
        # x-coordinates -2, -4, 0: one comparison at p=2 per step
        assert [P.x for P in tail2] == [-2, -4, 0]
        assert check_tail_divisibility(map2, tail2) == 2

    def test_flags_fabricated_decreasing_valuations(self):
        # the identity map has good reduction everywhere and fixes [0:1];
        # a tail with shrinking 2-valuation is not a real orbit and must fail:
        # the message names the step, the prime and both valuations
        ident = parse_map("z")
        tail = _affine(4, 2) + [O]
        with pytest.raises(CertificateCheckError) as info:
            check_tail_divisibility(ident, tail)
        assert str(info.value) == "v_2(x_0) = 2 > v_2(x_1) = 1"

    def test_names_the_failing_step(self):
        # step 0 holds (v_3 climbs from 1 to 2); step 1 drops it from 2 to 1
        tail = _affine(3, 9, 3) + [O]
        with pytest.raises(CertificateCheckError) as info:
            check_tail_divisibility(parse_map("z"), tail)
        assert str(info.value) == "v_3(x_1) = 2 > v_3(x_2) = 1"

    def test_rejects_tail_leaving_origin(self):
        ident = parse_map("z")
        with pytest.raises(ValueError):
            check_tail_divisibility(ident, [O, canonical_point(1), O])

    def test_requires_fixed_terminal_point(self):
        # z^2 sends 2 to 4: the tail does not end at a fixed point
        with pytest.raises(ValueError):
            check_tail_divisibility(parse_map("z^2"), _affine(1, 2))
        with pytest.raises(ValueError):
            check_tail_divisibility(parse_map("z"), [])

    def test_tail_into_infinity_reads_y_valuations(self):
        # the cross term of [x:y] with [1:0] is -y: d_p(P, inf) = v_p(y)
        inf = ProjectivePoint(1, 0)
        growing = [ProjectivePoint(1, 2), ProjectivePoint(1, 12), inf]
        assert check_tail_divisibility(parse_map("z"), growing) == 3
        shrinking = [ProjectivePoint(1, 4), ProjectivePoint(3, 2), inf]
        with pytest.raises(CertificateCheckError) as info:
            check_tail_divisibility(parse_map("z"), shrinking)
        assert str(info.value) == "v_2(x_0) = 2 > v_2(x_1) = 1"

    def test_collapsed_tail_checked_in_place(self):
        # z^2 - 2 from 0: tail 0, -2 into the fixed point 2, cross terms -2, -4
        cert = detect_orbit(parse_map("z^2 - 2"), parse_point("0"))
        composite, tail = collapse_to_fixed_point(cert)
        assert tail[-1] == canonical_point(2)
        assert check_tail_divisibility(composite, tail) == 2

    def test_unit_coordinates_skip_cleanly(self):
        ident = parse_map("z")
        assert check_tail_divisibility(ident, _affine(1, -1) + [O]) == 0

    def test_skips_exactly_the_primes_of_the_resultant(self):
        # v_2 falls from 2 to 1: skipped where 2 divides the resultant (2 z,
        # Res = 2), compared and refused where it does not (3 z, Res = 3)
        tail = _affine(4, 2) + [O]
        assert check_tail_divisibility(parse_map("2*z"), tail) == 0
        with pytest.raises(CertificateCheckError) as info:
            check_tail_divisibility(parse_map("3*z"), tail)
        assert str(info.value) == "v_2(x_0) = 2 > v_2(x_1) = 1"
        # 12 = 2^2 * 3 before 6 = 2 * 3: 3 is compared under 2 z, 2 under 3 z
        tail = _affine(12, 6) + [O]
        assert check_tail_divisibility(parse_map("2*z"), tail) == 2
        with pytest.raises(CertificateCheckError) as info:
            check_tail_divisibility(parse_map("3*z"), tail)
        assert str(info.value) == "v_2(x_0) = 2 > v_2(x_1) = 1"

    def test_same_count_as_after_normalization(self):
        total = 0
        for cert in _corpus_and_conjugates():
            composite, tail = collapse_to_fixed_point(cert)
            count = check_tail_divisibility(composite, tail)
            assert count == check_tail_divisibility(*normalize_orbit(composite, tail)[:2])
            total += count
        assert total > 0

    def test_tail_factors_are_distance_table_entries(self, monkeypatch):
        # the tail check factors x_j = cross(Q_(-jn), Q_0) for j = k, ..., 1,
        # each the orbit's distance_table entry for that pair; the collapsed
        # tail is [Q_0] alone, with nothing to factor, exactly when m < n
        calls = []

        def recording_factor(n):
            calls.append(factor(n))
            return calls[-1]

        monkeypatch.setattr(orbits, "factor", recording_factor)
        total = 0
        for cert in _corpus_and_conjugates():
            m, n = cert.tail_length, cert.period
            composite, tail = collapse_to_fixed_point(cert)
            assert (tail == [cert.points[m]]) == (m < n), str(cert.map)
            calls.clear()
            check_tail_divisibility(composite, tail)
            table = distance_table(cert.points)
            assert calls == [table[m - j * n, m] for j in range(len(tail) - 1, 0, -1)]
            total += len(calls)
        assert total > 0

    def test_bad_primes_of_normalized_composite_are_the_certificates(self):
        # Res(f^n) divides a power of Res(f) and det-1 conjugation keeps |Res|
        for cert in corpus_certificates():
            map2, _, _ = normalize_orbit(*collapse_to_fixed_point(cert))
            assert set(bad_primes(map2)) <= set(cert.bad_primes), str(cert.map)


class TestNonExpansionWitness:
    def test_counts_unskipped_primes_in_order(self):
        assert _non_expansion_witness({2: 1, 7: 2, 3: 1}, {2: 1, 7: 5, 3: 4}, {7}) == (2, None)

    def test_first_failure_in_given_order(self):
        before = {5: 2, 2: 3, 3: 1}
        assert _non_expansion_witness(before, {5: 2, 3: 0}, ()) == (2, (2, 3, 0))
        assert _non_expansion_witness(before, {5: 2, 3: 0}, {2}) == (2, (3, 1, 0))

    def test_coinciding_images_never_fail(self):
        assert _non_expansion_witness({2: 9, 3: 1}, None, {3}) == (1, None)

    def test_step_refuses_as_the_two_point_table(self, monkeypatch):
        # the pair step factors the cross term itself: a refusal carries the
        # n, cofactor and partial that distance_table((P, Q)) gives
        monkeypatch.setattr(numtheory, "RHO_WORK", 1 << 10)
        P, Q = canonical_point(-(2**3 * 3 * 1000000007 * 2147483647)), canonical_point(0)

        def refusal(step, *args):
            with pytest.raises(FactorizationBudgetError) as info:
                step(*args)
            exc = info.value
            return str(exc), exc.n, exc.cofactor, list(exc.partial.items())

        c = cross_term(P, Q)
        refused = refusal(_non_expansion_step, 1, c, 1)
        assert refused == refusal(distance_table, (P, Q))
        assert refused[1:] == (c, 1000000007 * 2147483647, [(2, 3), (3, 1)])


class TestSynthesize:
    def test_recovers_quadratic(self):
        pairs = [
            (canonical_point(1), O),
            (O, canonical_point(-1)),
            (canonical_point(-1), O),
        ]
        m = synthesize_map(pairs, 2)
        assert m == parse_map("z^2 - 1")

    def test_degree_one_fixed_point(self):
        m = synthesize_map([(O, O)], 1)
        assert m is not None
        assert evaluate(m, O) == O

    def test_unsatisfiable_returns_none(self):
        # a nonconstant degree-1 map is injective, so two points cannot collide
        pairs = [(O, O), (canonical_point(1), O)]
        assert synthesize_map(pairs, 1) is None

    def test_too_many_constraints(self):
        pts = _affine(0, 1, 2, 3)
        with pytest.raises(ValueError):
            synthesize_map([(P, O) for P in pts], 1)

    def test_prescribed_tail_realized(self):
        pts = _affine(Fraction(9, 2), 3, 18) + [O]
        pairs = list(zip(pts, pts[1:])) + [(O, O)]
        m = synthesize_map(pairs, 2)
        if m is not None:
            for P, Q in pairs:
                assert evaluate(m, P) == Q


class TestCertificateChecks:
    def test_all_pass_on_known_orbits(self):
        for expr, start in [("z^2 - 1", "1"), ("z^2 - 29/16", "7/4"), ("1/z", "2")]:
            cert = detect_orbit(parse_map(expr), parse_point(start))
            checks = run_certificate_checks(cert)
            assert checks == {
                "prop51": True,
                "prop52": True,
                "remark": True,
                "divisibility": True,
            }

    def test_tail_never_normalized(self, monkeypatch):
        # the tail check reads the collapsed tail in place: no conjugation
        def refuse(*args):
            raise AssertionError("run_certificate_checks normalized a tail")

        monkeypatch.setattr(orbits, "normalize_orbit", refuse)
        monkeypatch.setattr(orbits, "conjugate", refuse)
        monkeypatch.setattr(maps, "conjugate", refuse)
        for cert in corpus_certificates():
            assert all(run_certificate_checks(cert).values()), str(cert.map)

    def test_each_cross_term_factored_at_most_once(self, monkeypatch):
        certs = corpus_certificates()
        calls = []

        def counting_factor(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(projective, "factor", counting_factor)
        total = 0
        for cert in certs:
            calls.clear()
            run_certificate_checks(cert)
            assert len(calls) <= cert.length * (cert.length - 1) // 2, str(cert.map)
            total += len(calls)
        assert total > 0

    def test_distance_table_matches_log_distance(self):
        absent = 0
        for cert in corpus_certificates():
            pts = cert.points
            table = distance_table(pts)
            assert list(table) == sorted(table, key=lambda ij: (ij[1] - ij[0], ij[0]))
            assert set(table) == {(i, j) for j in range(len(pts)) for i in range(j)}
            primes = set().union(*table.values())
            for (i, j), vals in table.items():
                for p in primes:
                    assert vals.get(p, 0) == log_distance(pts[i], pts[j], p)
                    absent += p not in vals
        assert absent > 0


class TestForgedDistances:
    """Each distance check raises on a table holding one violation."""

    @pytest.fixture
    def cert(self):
        # m = 1, n = 3, bad primes (2,)
        return detect_orbit(parse_map("z^2 - 29/16"), parse_point("7/4"))

    @staticmethod
    def forged(cert, pair, distances):
        table = {(i, j): {} for j in range(cert.length) for i in range(j)}
        table[pair] = distances
        return table

    def test_triangle(self):
        table = {(0, 1): {5: 2}, (1, 2): {5: 2}, (0, 2): {5: 1}}
        with pytest.raises(CertificateCheckError, match="p=5"):
            _check_triangle(tuple(_affine(1, 2, 3)), table)

    def test_non_expansion(self, cert):
        # points 0 and 1 at 7-adic distance 1; their images, points 1 and 2, at 0
        with pytest.raises(CertificateCheckError, match="p=7"):
            _check_non_expansion(cert, self.forged(cert, (0, 1), {7: 1}))

    def test_remark(self, cert):
        # a = -1, b = 1, k = 2: d(Q_-1, Q_1) = 0 < d(Q_-1, Q_0) = 2
        with pytest.raises(CertificateCheckError, match="p=7"):
            _check_remark(cert, self.forged(cert, (0, 1), {7: 2}))

    def test_remark_follows_from_triangle_and_non_expansion(self):
        # why run_certificate_checks derives the remark: on any table, right
        # or forged, that passes the triangle and non-expansion checks, the
        # remark check passes too. Each forged table changes 1 to 4 entries
        # of a corpus certificate's true table to a distance 0 to 3.
        def passes(check, *args):
            try:
                check(*args)
            except CertificateCheckError:
                return False
            return True

        rng = random.Random("remark-forged")
        certs = [(c, distance_table(c.points)) for c in corpus_certificates() if c.length >= 3]
        passed = compared = refused = 0
        while passed < 2000:
            cert, true = rng.choice(certs)
            primes = sorted(set().union(*true.values(), cert.bad_primes, (2, 3)))
            table = {pair: dict(d) for pair, d in true.items()}
            for _ in range(rng.randint(1, 4)):
                entry, p, v = table[rng.choice(list(table))], rng.choice(primes), rng.randrange(4)
                entry.pop(p, None)
                if v:
                    entry[p] = v
            if table == true:
                continue
            if passes(_check_triangle, cert.points, table) and passes(
                _check_non_expansion, cert, table
            ):
                passed += 1
                compared += _check_remark(cert, table) > 0
            else:
                refused += not passes(_check_remark, cert, table)
        # the forged tables reach the remark's comparisons, and the remark
        # check does refuse some of the tables the other two refuse
        assert compared > 1000
        assert refused > 100


class TestJson:
    def test_roundtrip(self):
        cert = detect_orbit(parse_map("z^2 - 29/16"), parse_point("7/4"))
        doc = certificate_to_json(cert, 60)
        assert doc["schema"] == "orbita/1"
        assert doc["tail_length"] == "1"
        assert doc["period"] == "3"
        assert doc["bad_primes"] == ["2"]
        assert doc["bounds"]["satisfied"] is True
        assert certificate_from_json(doc) == cert

    def test_all_integers_are_strings(self):
        doc = certificate_to_json(detect_orbit(parse_map("z^2 - 1"), parse_point("1")), 60)
        assert all(isinstance(c, str) for c in doc["map"]["F"] + doc["map"]["G"])
        assert all(isinstance(x, str) for pt in doc["points"] for x in pt)
        assert isinstance(doc["s"], str)

    def test_rejects_wrong_schema(self):
        doc = certificate_to_json(detect_orbit(parse_map("z^2 - 1"), parse_point("1")), 60)
        doc["schema"] = "orbita/2"
        with pytest.raises(ValueError):
            certificate_from_json(doc)

    def test_rejects_noncanonical_coordinates(self):
        doc = certificate_to_json(detect_orbit(parse_map("z^2 - 1"), parse_point("1")), 60)
        doc["points"][0] = ["2", "2"]
        with pytest.raises(ValueError):
            certificate_from_json(doc)

    def test_roundtrip_on_every_corpus_certificate(self):
        for cert in corpus_certificates():
            assert certificate_from_json(certificate_to_json(cert, 60)) == cert, str(cert.map)

    @pytest.mark.parametrize(
        "key,value",
        [
            # points[0] is [1:1], the tail is 1 long over 3 points, no bad primes
            pytest.param("start", ["0", "1"], id="wrong_start"),
            pytest.param("start", ["-1", "1"], id="cycle_point_as_start"),
            pytest.param("period", "1", id="period_too_short"),
            pytest.param("period", "3", id="period_too_long"),
            pytest.param("s", "2", id="wrong_s"),
            pytest.param("s", "0", id="s_without_the_archimedean_place"),
        ],
    )
    def test_rejects_a_field_that_disagrees_with_its_derivation(self, key, value):
        doc = certificate_to_json(detect_orbit(parse_map("z^2 - 1"), parse_point("1")), 60)
        doc[key] = value
        with pytest.raises(ValueError):
            certificate_from_json(doc)

    @pytest.mark.parametrize(
        ("tamper", "message"),
        [
            (lambda doc: doc["map"].update(F=["2"], G=["1"]), "degree-0"),
            (
                lambda doc: doc["map"].update(
                    F=[str(-int(c)) for c in doc["map"]["F"]],
                    G=[str(-int(c)) for c in doc["map"]["G"]],
                ),
                "leading sign",
            ),
            (lambda doc: doc.update(tail_length="-1"), "tail_length >= 0"),
            (lambda doc: doc.update(tail_length="3"), "period >= 1"),
            (lambda doc: doc.update(bad_primes=["3", "2"]), "sorted"),
        ],
        ids=["degree-0-map", "negated-map", "negative-tail", "tail-without-cycle",
             "bad-primes-out-of-order"],
    )
    def test_rejects_a_tampered_document(self, tamper, message):
        # 3/2 z^2 - 2/3 from 2/3: m = 1, n = 2 over 3 points, bad primes 2, 3
        doc = certificate_to_json(detect_orbit(parse_map("3/2*z^2 - 2/3"), parse_point("2/3")), 60)
        assert (doc["tail_length"], len(doc["points"]), doc["bad_primes"]) == ("1", 3, ["2", "3"])
        tamper(doc)
        with pytest.raises(ValueError, match=message):
            certificate_from_json(doc)

    def test_rejects_tampered_orbit(self):
        doc = certificate_to_json(detect_orbit(parse_map("z^2 - 1"), parse_point("1")), 60)
        doc["period"] = "1"
        doc["tail_length"] = "2"
        with pytest.raises(ValueError):
            certificate_from_json(doc)

    def test_bounds_evaluated_once_per_s_and_precision(self, monkeypatch):
        from orbita import bounds, orbits

        calls = []
        evaluate = bounds.evaluate_bound

        def counting(f, precision):
            calls.append((f.name, f.params, precision))
            return evaluate(f, precision)

        monkeypatch.setattr(orbits, "_CERTIFICATE_BOUNDS", {})
        monkeypatch.setattr(bounds, "evaluate_bound", counting)
        two = detect_orbit(parse_map("z^2 - 29/16"), parse_point("7/4"))  # s = 2
        docs = [certificate_to_json(two, 60) for _ in range(3)]
        assert docs[0] == docs[2]
        assert calls == [("CanciC", (("s", 2),), 60), ("MortonSilverman", (("t", 1), ("D", 1)), 60)]
        certificate_to_json(detect_orbit(parse_map("z^2 - 1"), parse_point("1")), 60)  # s = 1
        certificate_to_json(two, 80)
        assert [c[2] for c in calls] == [60, 60, 60, 60, 80, 80]
