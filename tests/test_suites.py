"""Randomized verification suites: determinism, pass status, sizing."""

import random
from math import prod

import pytest

from orbita import numtheory, projective, suites
from orbita.maps import parse_map
from orbita.numtheory import FactorizationBudgetError, factor
from orbita.orbits import CertificateCheckError, _triangle_witness, check_tail_divisibility
from orbita.projective import (
    ProjectivePoint,
    cross_term,
    distance_table,
    from_pair,
    log_distance,
    parse_point,
)
from orbita.suites import (
    CORPUS,
    SUITE_DEFAULTS,
    SUITE_NAMES,
    SuiteReport,
    _triangle_case,
    _triangle_triple,
    corpus_certificates,
    run_suite,
)


class TestCorpus:
    def test_entries_parse(self):
        for expr, start in CORPUS:
            parse_map(expr)
            parse_point(start)

    def test_certificates_cover_corpus(self):
        certs = corpus_certificates()
        assert len(certs) == len(CORPUS)
        for cert in certs:
            assert cert.period >= 1
            assert len(cert.points) == cert.tail_length + cert.period

    def test_corpus_has_nontrivial_tails(self):
        # the remark suite needs orbits with m >= 1 to have anything to check
        assert any(c.tail_length >= 1 for c in corpus_certificates())

    def test_entry_that_never_closes_is_an_error(self, monkeypatch):
        # an explicit check, not an assert, so it holds under python -O
        monkeypatch.setattr(suites, "CORPUS", (("z + 1", "0"),))
        with pytest.raises(CertificateCheckError):
            corpus_certificates()


class TestTriangleSuite:
    def test_small_run_passes(self):
        report = run_suite("prop51", 60, seed=3)[0]
        assert report.passed
        assert report.counterexample is None
        assert report.cases == 60
        assert report.comparisons > 60

    def test_deterministic(self):
        a = run_suite("prop51", 40, seed=11)[0]
        b = run_suite("prop51", 40, seed=11)[0]
        assert a == b

    def test_seed_changes_workload(self):
        a = run_suite("prop51", 80, seed=1)[0]
        b = run_suite("prop51", 80, seed=2)[0]
        assert a.comparisons != b.comparisons

    def test_wide_family_reaches_large_coordinates(self):
        # odd-indexed cases use collinear-style points with ~63 bit entries;
        # the comparison count grows with coordinate size, so a run mixing
        # both families must do far more work per case than the 24-bit one
        narrow = run_suite("prop51", 2, seed=5)[0]
        assert narrow.comparisons >= 2

    @pytest.mark.parametrize(
        "iterations, seed, comparisons",
        [(200, 7, 5625), (60, 3, 1707), (40, 11, 1065)],
    )
    def test_reports_pinned(self, iterations, seed, comparisons):
        # recorded when every distance still came from log_distance on the
        # whole cross term; sharing factorizations must not move a count
        assert run_suite("prop51", iterations, seed=seed)[0] == SuiteReport(
            suite="prop51",
            seed=seed,
            cases=iterations,
            comparisons=comparisons,
        )

    def test_forced_failure_names_prime_and_points(self, monkeypatch):
        # d(P, R) dropped to 0 (cross(P, R) = 1): a prime of both d(P, Q) and
        # d(Q, R) breaks the inequality with Q in the middle; the failing
        # case's comparisons count
        monkeypatch.setattr(
            suites, "_triangle_case", lambda pq, qr, pr: _triangle_case(pq, qr, 1)
        )
        assert run_suite("prop51", 200, seed=7)[0] == SuiteReport(
            suite="prop51",
            seed=7,
            cases=2,
            comparisons=19,
            counterexample="p=23: d([23421:17210],[100545230944842763:71816551862449883]) "
            "< min over middle [-155:18231]",
        )

    def test_count_is_three_per_prime_of_the_distance_table(self):
        # the primes that are counted, not factored, still count 3 each
        rng = random.Random("triangle-count")
        for i in range(2000):  # even i: narrow family, odd i: wide family
            P, Q, R = triple = _triangle_triple(rng, i)
            primes = set().union(*distance_table(triple).values())
            crosses = (cross_term(P, Q), cross_term(Q, R), cross_term(P, R))
            assert _triangle_case(*crosses) == (3 * len(primes), None)

    def test_case_matches_the_witness_on_any_three_integers(self):
        # the cross terms of three points share no prime pairwise only, but
        # the check does not rely on that: on any three integers, failing
        # ones included, it agrees with the witness on the factored terms
        rng = random.Random("triangle-case")
        primes = (2, 3, 7, 3001, 65537)
        outcomes = set()
        for _ in range(1000):
            terms = [
                rng.choice((1, -1))
                * rng.randint(1, 1 << 24)
                * prod(p ** rng.randint(0, 2) for p in rng.sample(primes, 2))
                for _ in range(3)
            ]
            expected = _triangle_witness(*(factor(c) for c in terms))
            assert _triangle_case(*terms) == expected, terms
            outcomes.add(expected[1] is None)
        assert outcomes == {True, False}

    def test_rho_work_stays_pinned(self, monkeypatch):
        # a work count that timing noise cannot blur: splitting every cross
        # term took 177 rho runs and 81982 iterations here
        runs = []
        real = numtheory._brent_rho

        def counting(n, c, max_iter):
            g, spent = real(n, c, max_iter)
            runs.append(spent)
            return g, spent

        monkeypatch.setattr(numtheory, "_brent_rho", counting)
        run_suite("prop51", 200, seed=7)
        assert len(runs) <= 20 and sum(runs) <= 4344, (len(runs), sum(runs))

    def test_shared_valuations_match_log_distance(self):
        rng = random.Random("shared-valuations")
        absent = 0
        for i in range(24):  # even i: narrow family, odd i: wide family
            P, Q, R = _triangle_triple(rng, i)
            table = distance_table((P, Q, R))
            maps = (table[0, 1], table[1, 2], table[0, 2])
            pairs = ((P, Q), (Q, R), (P, R))
            primes = set().union(*maps)
            for (A, B), vals in zip(pairs, maps):
                assert set(vals) == set(factor(cross_term(A, B)))
                for p in primes:
                    assert vals.get(p, 0) == log_distance(A, B, p)
                    absent += p not in vals
        assert absent > 0

    def test_budget_error_names_whole_cross_term(self, monkeypatch):
        # wide family: cross(Q, R) shares the primes of cross(P, Q)
        P, Q, R = _triangle_triple(random.Random("budget"), 1)
        first = abs(cross_term(P, Q))

        def factor_first_only(m):
            if m != first:
                raise FactorizationBudgetError(2**21 + 1, 2**21, "factorization work", m, m, {})
            return factor(m)

        monkeypatch.setattr(projective, "factor", factor_first_only)
        with pytest.raises(FactorizationBudgetError) as info:
            distance_table((P, Q, R))
        c = cross_term(Q, R)
        assert str(info.value) == "factorization work 2097153 exceeds budget 2097152"
        assert info.value.n == c
        partial = info.value.partial
        assert partial == {p: log_distance(Q, R, p) for p in factor(first) if c % p == 0}
        assert partial and list(partial) == sorted(partial)


class TestNonExpansionSuite:
    def test_small_run_passes(self):
        report = run_suite("prop52", 50, seed=3)[0]
        assert report.passed
        assert report.cases == 50
        assert report.comparisons > 0

    def test_deterministic(self):
        assert run_suite("prop52", 30, seed=9)[0] == run_suite("prop52", 30, seed=9)[0]

    @pytest.mark.parametrize(
        "iterations, seed, comparisons",
        [(1000, 7, 1793), (200, 0, 361), (300, 3, 556), (500, 11, 890)],
    )
    def test_reports_pinned(self, iterations, seed, comparisons):
        # recorded when the images' distances came from log_distance per prime
        assert run_suite("prop52", iterations, seed=seed)[0] == SuiteReport(
            suite="prop52",
            seed=seed,
            cases=iterations,
            comparisons=comparisons,
        )

    def test_forced_failure_names_map_prime_and_points(self, monkeypatch):
        # z -> z/2 in place of the map halves every even cross term
        monkeypatch.setattr(suites, "evaluate", lambda m, P: from_pair(P.x, 2 * P.y))
        assert run_suite("prop52", 1000, seed=7)[0] == SuiteReport(
            suite="prop52",
            seed=7,
            cases=8,
            comparisons=13,
            counterexample="map (-9*z^3 - 23*z^2 - 2*z - 16)/(12*z^3 + 18*z^2 + 18*z + 17), "
            "p=2, points [-226:55],[158:153]",
        )

    def test_coinciding_images_count_and_pass(self, monkeypatch):
        # equal images sit at infinite distance: every good prime is compared
        monkeypatch.setattr(suites, "evaluate", lambda m, P: ProjectivePoint(0, 1))
        report = run_suite("prop52", 1000, seed=7)[0]
        assert report.passed and report.comparisons == 1793


class TestRemarkSuite:
    def test_full_corpus_passes(self):
        report = run_suite("remark", seed=0)[0]
        assert report.passed
        assert report.cases == len(CORPUS)
        assert report.comparisons > 0

    def test_forced_failure_counts_the_entries_checked(self, monkeypatch):
        # every distance across a gap of two or more dropped to 0: an orbit
        # with a good prime at gap one fails, and the cases are the entries
        # checked up to it, not the whole corpus
        monkeypatch.setattr(
            suites,
            "distance_table",
            lambda pts: {k: {} if k[1] - k[0] > 1 else v for k, v in distance_table(pts).items()},
        )
        assert run_suite("remark", seed=7)[0] == SuiteReport(
            suite="remark",
            seed=7,
            cases=2,
            comparisons=0,
            counterexample="(16*z^2 - 29)/(16): remark fails at p=3, a=0, b=1, k=2",
        )

    def test_seed_is_recorded_but_inert(self):
        a = run_suite("remark", seed=1)[0]
        b = run_suite("remark", seed=2)[0]
        assert a.comparisons == b.comparisons


class TestDivisibilitySuite:
    def test_small_run_passes(self):
        report = run_suite("divisibility", 25, seed=3)[0]
        assert report.passed
        assert report.cases == 25
        assert report.comparisons > 0

    def test_deterministic(self):
        assert run_suite("divisibility", 15, seed=4)[0] == run_suite("divisibility", 15, seed=4)[0]


    def test_forced_failure_names_map_and_tail(self, monkeypatch):
        # the first two tail points swapped: v_p of the x-coordinate falls
        monkeypatch.setattr(
            suites,
            "check_tail_divisibility",
            lambda m, chain: check_tail_divisibility(m, [chain[1], chain[0], *chain[2:]]),
        )
        assert run_suite("divisibility", 200, seed=7)[0] == SuiteReport(
            suite="divisibility",
            seed=7,
            cases=1,
            comparisons=0,
            counterexample="map (-78338260*z^2 + 225450225*z)/(5046824), "
            "tail ['[6:91]', '[495:172]', '[0:1]']: v_3(x_0) = 2 > v_3(x_1) = 1",
        )


class TestCaseGenerators:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_one_case_per_draw(self, name):
        cases = list(suites._RUNNERS[name](random.Random(name), 3))
        assert len(cases) == 3
        assert all(isinstance(count, int) and failure is None for count, failure in cases)

    def test_run_suite_adds_up_the_cases_of_the_seeded_stream(self):
        cases = suites.prop52_cases(random.Random("prop52:4"), 30)
        assert sum(count for count, _ in cases) == run_suite("prop52", 30, seed=4)[0].comparisons


class TestRunSuite:
    def test_all_runs_every_suite_in_order(self):
        reports = run_suite("all", iterations=10, seed=5)
        assert tuple(r.suite for r in reports) == SUITE_NAMES
        assert all(r.passed for r in reports)

    def test_single_suite(self):
        (report,) = run_suite("prop52", iterations=12, seed=6)
        assert report.suite == "prop52"
        assert report.cases == 12

    def test_default_iterations(self):
        (report,) = run_suite("divisibility", seed=1)
        assert report.cases == SUITE_DEFAULTS["divisibility"]

    def test_remark_ignores_iterations(self):
        (report,) = run_suite("remark", iterations=3, seed=0)
        assert report.cases == len(CORPUS)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("prop99")

    def test_bad_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_suite("prop51", iterations=0)


class TestReportShape:
    def test_to_dict_key_order(self):
        report = SuiteReport(suite="prop51", seed=7, cases=1, comparisons=2)
        assert list(report.to_dict()) == [
            "suite",
            "seed",
            "cases",
            "comparisons",
            "passed",
            "counterexample",
        ]

    def test_counterexample_serialized(self):
        report = SuiteReport(
            suite="prop52",
            seed=0,
            cases=1,
            comparisons=0,
            counterexample="p=3 F=z^2 P=[1:1]",
        )
        doc = report.to_dict()
        assert doc["passed"] is False
        assert doc["cases"] == "1"
        assert doc["counterexample"] == "p=3 F=z^2 P=[1:1]"
