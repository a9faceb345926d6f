from fractions import Fraction
from itertools import combinations, product
from math import gcd, log2

import pytest

from orbita import sunit
from orbita.bounds import SATISFIED, compare
from orbita.numtheory import BudgetError, PlaceSet
from orbita.sunit import (
    WORK_CAP,
    count_three_term,
    solve_unit_equation,
    two_way_representations,
)

F = Fraction


def _oracle_box(primes, B):
    """Independent box enumeration: raw exponent products, both signs."""
    out = set()
    for exps in product(range(-B, B + 1), repeat=len(primes)):
        v = F(1)
        for p, e in zip(primes, exps):
            v *= F(p) ** e
        out.add(v)
        out.add(-v)
    return out


def _pairs(primes, B):
    return list(sunit._box_pairs(primes, B))


class TestBoxUnits:
    def test_scan_order(self):
        # exponent vectors in product order, last prime fastest; +u before -u
        primes, B = (2, 3), 2
        expected = []
        for exps in product(range(-B, B + 1), repeat=len(primes)):
            v = F(1)
            for p, e in zip(primes, exps):
                v *= F(p) ** e
            expected += [(v.numerator, v.denominator), (-v.numerator, v.denominator)]
        assert _pairs(primes, B) == expected

    def test_trivial_group(self):
        assert sorted(_pairs((), 5)) == [(-1, 1), (1, 1)]

    def test_one_prime(self):
        units = sorted(F(n, d) for n, d in _pairs((2,), 1))
        assert units == [-2, -1, F(-1, 2), F(1, 2), 1, 2]

    def test_count_matches_problem_size(self):
        pairs = _pairs((2, 3), 4)
        assert len(pairs) == 2 * (2 * 4 + 1) ** 2
        assert len(set(pairs)) == len(pairs)

    def test_matches_oracle(self):
        pairs = _pairs((3, 7), 3)
        # coprime pairs with a positive denominator: each one a reduced fraction
        assert all(gcd(n, d) == 1 and d > 0 for n, d in pairs)
        assert {F(n, d) for n, d in pairs} == _oracle_box((3, 7), 3)


def _in_smooth_set(x, smooth):
    """The scans' membership rule: both parts of the reduced fraction are smooth."""
    return x != 0 and abs(x.numerator) in smooth and x.denominator in smooth


class TestMembership:
    def test_recognizes_units(self):
        smooth2, smooth3, smooth4 = (sunit._smooth_set((2,), B) for B in (2, 3, 4))
        assert _in_smooth_set(F(8), smooth3)
        assert not _in_smooth_set(F(8), smooth2)
        assert _in_smooth_set(F(-1, 16), smooth4)
        assert not _in_smooth_set(F(3, 2), smooth4)
        assert not _in_smooth_set(F(0), smooth4)
        assert _in_smooth_set(F(-1), sunit._smooth_set((), 1))

    def test_agrees_with_box(self):
        small = {F(a, b) for a in range(-30, 31) for b in range(1, 31)}
        for primes, B in [((), 1), ((2,), 1), ((2,), 3), ((3,), 2), ((2, 5), 2), ((3, 7), 1)]:
            box = _oracle_box(primes, B)
            smooth = sunit._smooth_set(primes, B)
            # the box, its neighbours one prime step away, and small fractions
            steps = [F(p) ** e for p in primes + (3, 11) for e in (-1, 1)]
            for x in box | {u * t for u in box for t in steps} | small:
                assert _in_smooth_set(x, smooth) == (x in box), (primes, B, x)


class TestUnitEquation:
    def test_classic_example(self):
        report = solve_unit_equation(PlaceSet.of(2), 20, 60)
        assert report.solutions == (
            (F(-1), F(2)),
            (F(1, 2), F(1, 2)),
            (F(2), F(-1)),
        )
        assert report.count == 3
        assert report.gamma_rank == 2
        assert report.bound_ok

    def test_no_solutions_without_finite_primes(self):
        report = solve_unit_equation(PlaceSet.of(), 3, 60)
        assert report.count == 0
        assert report.bound_ok  # an empty count satisfies any bound

    def test_matches_two_sided_oracle_small(self):
        for primes in [(2,), (3,), (2, 3), (2, 5)]:
            S = PlaceSet.of(*primes)
            box = _oracle_box(primes, 5)
            expected = sorted((u, 1 - u) for u in box if u != 1 and (1 - u) in box)
            got = solve_unit_equation(S, 5, 60)
            assert list(got.solutions) == expected

    def test_monotone_in_box_radius(self):
        S = PlaceSet.of(2, 3)
        small = set(solve_unit_equation(S, 2, 60).solutions)
        large = set(solve_unit_equation(S, 3, 60).solutions)
        assert small <= large

    def test_count_within_rank_bound(self):
        for primes in [(2,), (2, 3)]:
            report = solve_unit_equation(PlaceSet.of(*primes), 6, 60)
            assert report.count <= report.ln_bound.exact
            if report.count:
                assert compare(report.count, report.ln_bound) == SATISFIED

    def test_cap_refusal(self, monkeypatch):
        # 2 * 21^5 = 8 168 202 candidates of 112 bits, refused before any scan
        monkeypatch.setattr(sunit, "_box_pairs", None)
        with pytest.raises(BudgetError) as info:
            solve_unit_equation(PlaceSet.of(2, 3, 5, 7, 11), 10, 60)
        assert (info.value.observed, info.value.limit) == (8_168_202 * 112, WORK_CAP)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            solve_unit_equation(PlaceSet.of(2), 0, 60)

    @pytest.mark.parametrize(
        ("primes", "B", "work"),
        [
            ((2,), 30000, 120_002 * 30_001),  # few candidates, 30001-bit integers
            ((11, 13), 700, 3_925_602 * 5012),  # under the candidate cap
            ((2,), 999_999, 3_999_998 * 1_000_000),
            ((2,), 3535, 14_142 * 3536),  # the first box refused for one prime
        ],
    )
    def test_work_refusal(self, monkeypatch, primes, B, work):
        monkeypatch.setattr(sunit, "_box_pairs", None)
        monkeypatch.setattr(sunit, "_smooth_set", None)
        scans = (
            lambda S, B: solve_unit_equation(S, B, 60),
            lambda S, B: two_way_representations(5, S, B),
        )
        for scan in scans:
            with pytest.raises(BudgetError) as info:
                scan(PlaceSet.of(*primes), B)
            assert (info.value.observed, info.value.limit) == (work, WORK_CAP)
            assert str(info.value) == f"box candidate bits {work} exceeds budget {WORK_CAP}"

    def test_deterministic(self):
        S = PlaceSet.of(2, 3)
        assert solve_unit_equation(S, 4, 60) == solve_unit_equation(S, 4, 60)


class TestTwoWays:
    def test_one_splits_two_ways(self):
        report = two_way_representations(1, PlaceSet.of(2), 8)
        assert report.representations == ((F(-1), F(2)), (F(1, 2), F(1, 2)))
        assert report.two_ways

    def test_three_splits_two_ways(self):
        report = two_way_representations(3, PlaceSet.of(2), 8)
        assert report.representations == ((F(-1), F(4)), (F(1), F(2)))
        assert report.two_ways

    def test_unordered_pairs_counted_once(self):
        report = two_way_representations(1, PlaceSet.of(2), 8)
        for u, v in report.representations:
            assert u <= v

    def test_single_way_is_not_two(self):
        report = two_way_representations(2, PlaceSet.of(), 4)
        assert report.representations == ((F(1), F(1)),)
        assert not report.two_ways

    def test_rational_target(self):
        report = two_way_representations(F(3, 2), PlaceSet.of(2), 4)
        assert (F(1, 2), F(1)) in report.representations


class TestThreeTerm:
    def test_against_triple_loop_oracle(self):
        S = PlaceSet.of(2)
        B = 6
        box = _oracle_box((2,), B)
        a1, a2, a3 = F(1), F(1), F(-1)
        expected = 0
        for x1 in box:
            for x2 in box:
                for x3 in box:
                    t1, t2, t3 = a1 * x1, a2 * x2, a3 * x3
                    if t1 + t2 + t3 != 1:
                        continue
                    if t1 + t2 == 0 or t1 + t3 == 0 or t2 + t3 == 0:
                        continue
                    expected += 1
        report = count_three_term(S, (1, 1, -1), B, 60)
        assert report.count == expected
        assert report.gamma_rank == 3
        assert report.bound_ok

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            count_three_term(PlaceSet.of(2), (1, 0, 1), 3, 60)
        with pytest.raises(ValueError):
            count_three_term(PlaceSet.of(2), (1, 1), 3, 60)

    def test_cap_refusal(self, monkeypatch):
        # (2 * 81^2)^2 = 172 186 884 candidate pairs of 104 bits, refused before any scan
        monkeypatch.setattr(sunit, "_box_pairs", None)
        with pytest.raises(BudgetError) as info:
            count_three_term(PlaceSet.of(2, 3), (1, 1, -1), 40, 60)
        assert (info.value.observed, info.value.limit) == (172_186_884 * 104, WORK_CAP)

    def test_work_refusal(self, monkeypatch):
        # (2 * 999)^2 = 3 992 004 candidate pairs of 1847-bit integers
        monkeypatch.setattr(sunit, "_box_pairs", None)
        monkeypatch.setattr(sunit, "_smooth_set", None)
        with pytest.raises(BudgetError) as info:
            count_three_term(PlaceSet.of(13), (1, 1, 1), 499, 60)
        assert (info.value.observed, info.value.limit) == (3_992_004 * 1847, WORK_CAP)

    def test_long_coefficients_size_the_work(self, monkeypatch):
        # 1/10^4000 has 1 + 13288 bits, the other two 2 each: 13293 bits,
        # charged 13293 + 13293^2 // 2^15 = 18685, outweigh the box's 8, so
        # (2 * 7^2)^2 = 9604 candidates are refused; the same literal
        # (13289 bits, charged 18678) refuses a two-way box that its 56 bits admit
        monkeypatch.setattr(sunit, "_box_pairs", None)
        with pytest.raises(BudgetError) as info:
            count_three_term(PlaceSet.of(2, 3), (F(1, 10**4000), 1, 1), 3, 60)
        assert (info.value.observed, info.value.limit) == (9604 * 18685, WORK_CAP)
        with pytest.raises(BudgetError) as info:
            two_way_representations(F(1, 10**4000), PlaceSet.of(2, 3, 5, 7, 11), 5)
        assert (info.value.observed, info.value.limit) == (2 * 11**5 * 18678, WORK_CAP)

    def test_degenerate_subsums_excluded(self):
        # x + y + z = 1 with x = -y leaves z = 1; all such triples are skipped,
        # so every reported solution has pairwise nonvanishing subsums
        S = PlaceSet.of(3)
        report = count_three_term(S, (1, 1, 1), 3, 60)
        box = _oracle_box((3,), 3)
        naive = sum(
            1
            for x1 in box
            for x2 in box
            if x1 + x2 != 1 and (1 - x1 - x2) in box
        )
        assert report.count < naive


# ---------------------------------------------------------------- differential
#
# The scans work on integer pairs and a smooth-number set; these tests check
# them against plain Fraction arithmetic over the box _oracle_box enumerates.

PRIMES = (2, 3, 5, 7, 11, 13)
SCAN_CASES = [
    (primes, B) for k in (1, 2) for primes in combinations(PRIMES, k) for B in range(1, 5)
] + [((), 1), ((2, 3, 5), 2), ((3, 7, 13), 2), ((5, 11, 13), 1), ((2, 3, 5, 7), 1)]
TARGETS = (F(3), F(3, 2), F(-5, 6), F(0), F(12), F(1, 35), F(-7))
THREE_TERM_CASES = [((p,), B) for p in PRIMES for B in (1, 2, 4)] + [
    ((2, 3), 1),
    ((5, 13), 1),
    ((2, 7), 2),
]
COEFFICIENTS = (
    (1, 1, 1),
    (1, -1, 1),
    (2, -1, -1),
    (F(1, 2), F(1, 3), F(1, 6)),
    (F(-3, 4), 5, F(2, 7)),
)


def _case_id(case):
    primes, B = case
    return f"{','.join(map(str, primes)) or 'none'}|{B}"


@pytest.mark.parametrize("case", SCAN_CASES, ids=_case_id)
def test_unit_equation_matches_fraction_scan(case):
    primes, B = case
    box = _oracle_box(primes, B)
    expected = sorted((u, 1 - u) for u in box if u != 1 and 1 - u in box)
    assert list(solve_unit_equation(PlaceSet.of(*primes), B, 60).solutions) == expected


@pytest.mark.parametrize("case", SCAN_CASES, ids=_case_id)
def test_two_ways_matches_fraction_scan(case):
    primes, B = case
    S = PlaceSet.of(*primes)
    box = _oracle_box(primes, B)
    for T in TARGETS:
        pairs = {(min(u, T - u), max(u, T - u)) for u in box if u != T and T - u in box}
        report = two_way_representations(T, S, B)
        assert report.representations == tuple(sorted(pairs)), T


@pytest.mark.parametrize("case", THREE_TERM_CASES, ids=_case_id)
def test_three_term_matches_fraction_scan(case):
    primes, B = case
    S = PlaceSet.of(*primes)
    box = _oracle_box(primes, B)
    for a in COEFFICIENTS:
        a1, a2, a3 = map(F, a)
        expected = 0
        for x1 in box:
            for x2 in box:
                t1, t2 = a1 * x1, a2 * x2
                t3 = 1 - t1 - t2
                if t3 / a3 not in box:
                    continue
                if t1 + t2 == 0 or t1 + t3 == 0 or t2 + t3 == 0:
                    continue
                expected += 1
        assert count_three_term(S, a, B, 60).count == expected, a


@pytest.mark.parametrize(
    "scan",
    [
        lambda S, B: solve_unit_equation(S, B, 60),
        lambda S, B: two_way_representations(5, S, B),
        lambda S, B: count_three_term(S, (1, 1, -1), B, 60),
    ],
    ids=["unit-equation", "two-ways", "three-term"],
)
def test_every_scan_refuses_an_empty_box(scan):
    with pytest.raises(ValueError, match="exponent bound must be positive"):
        scan(PlaceSet.of(2, 3), 0)


@pytest.mark.parametrize(
    ("primes", "B", "power"),
    [
        ((5, 7, 11, 13), 5, 1),  # the benchmark's largest box: 1.8e6
        ((2, 3, 5, 7, 11, 13), 1, 2),  # the slowest box admitted: 3.2e7
        ((2,), 3534, 1),  # 14138 candidates of 3535 bits
        ((2, 3), 12, 2),
    ],
)
def test_largest_boxes_admitted(primes, B, power):
    assert len(sunit._sized_box(PlaceSet.of(*primes), B, power)) == (B + 1) ** len(primes)


def test_candidate_heavy_box_refused_by_work():
    # 8 168 202 candidates: a box with B * sum(log2 p) < 12 has at most 486
    # units (486^2 pairs), so one of over 4e6 candidates has at least 13 bits
    # each and is over WORK_CAP, without a cap on the count
    with pytest.raises(BudgetError) as info:
        solve_unit_equation(PlaceSet.of(2, 3, 5, 7, 11), 10, 60)
    assert str(info.value) == f"box candidate bits {8_168_202 * 112} exceeds budget {WORK_CAP}"


@pytest.mark.parametrize("power", [1, 2])
def test_work_of_a_bound_past_float_range(power):
    # B * sum(log2 p) is taken exactly, so a float product cannot overflow
    B = 10**400
    with pytest.raises(BudgetError) as info:
        sunit._sized_box(PlaceSet.of(2, 3), B, power)
    candidates = (2 * (2 * B + 1) ** 2) ** power
    bits = int(B * Fraction(log2(2) + log2(3))) + 1
    assert (info.value.observed, info.value.limit) == (candidates * bits, WORK_CAP)
