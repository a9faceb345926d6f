"""Acceptance gate: one check per shipped guarantee, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from orbita import cli
from orbita.bounds import (
    SATISFIED,
    BoundFormula,
    compare,
    evaluate_bound,
    mp,
)
from orbita.maps import bad_primes, parse_map
from orbita.numtheory import PlaceSet
from orbita.orbits import (
    collapse_to_fixed_point,
    normalize_orbit,
    verify_np_conditions,
)
from orbita.suites import (
    CORPUS,
    _triangle_triple,
    corpus_certificates,
    run_suite,
)
from orbita.sunit import solve_unit_equation


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _run_cli(argv: list[str], capsys) -> tuple[int, str, float]:
    t0 = time.monotonic()
    code = cli.main(argv)
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    return code, out, elapsed


def test_criterion_1_triangle_suite(capsys):
    t0 = time.monotonic()
    report = run_suite("prop51", 10_000, seed=7)[0]
    elapsed = time.monotonic() - t0
    # the generator's wide family must actually reach 64-bit coordinates
    rng = random.Random("acceptance-sample")
    widths = []
    for i in range(40):
        for point in _triangle_triple(rng, i):
            widths.append(max(abs(point.x).bit_length(), abs(point.y).bit_length()))
    ok = (
        report.passed
        and report.counterexample is None
        and report.cases == 10_000
        and elapsed < 30.0
        and max(widths) <= 64
        and max(widths) >= 55
    )
    with capsys.disabled():
        _report(
            1,
            "triangle inequality, 10^4 triples",
            ok,
            f"cases={report.cases} comparisons={report.comparisons} "
            f"max_bits={max(widths)} time={elapsed:.1f}s",
        )


def test_criterion_2_non_expansion_suite(capsys):
    t0 = time.monotonic()
    report = run_suite("prop52", 1_000, seed=7)[0]
    elapsed = time.monotonic() - t0
    ok = (
        report.passed
        and report.counterexample is None
        and report.cases == 1_000
        and elapsed < 60.0
    )
    with capsys.disabled():
        _report(
            2,
            "distance non-expansion, 10^3 maps",
            ok,
            f"cases={report.cases} comparisons={report.comparisons} time={elapsed:.1f}s",
        )


def test_criterion_3_repeated_difference_suite(capsys):
    report = run_suite("remark", seed=0)[0]
    ok = report.passed and report.cases == len(CORPUS) and report.comparisons > 0
    with capsys.disabled():
        _report(
            3,
            "repeated-difference inequality over the corpus",
            ok,
            f"orbits={report.cases} comparisons={report.comparisons}",
        )


def test_criterion_4_certificate_reproduction(capsys):
    code1, out1, t1 = _run_cli(
        ["orbit", "--map", "z^2-1", "--point", "1", "--json"], capsys
    )
    doc1 = json.loads(out1)
    first_ok = (
        code1 == 0
        and doc1["tail_length"] == "1"
        and doc1["period"] == "2"
        and [p[0] for p in doc1["points"]] == ["1", "0", "-1"]
        and doc1["bad_primes"] == []
        and doc1["s"] == "1"
        and compare(3, evaluate_bound(BoundFormula.of("CanciC", s=1), 60)) == SATISFIED
        and t1 < 1.0
    )

    code2, out2, t2 = _run_cli(
        ["orbit", "--map", "z^2-29/16", "--point", "-1/4", "--json"], capsys
    )
    doc2 = json.loads(out2)
    second_ok = (
        code2 == 0
        and doc2["tail_length"] == "0"
        and doc2["period"] == "3"
        and doc2["bad_primes"] == ["2"]
        and len(doc2["bad_primes"]) == 1
        and parse_map("z^2-29/16").res == 2**16
        and compare(3, evaluate_bound(BoundFormula.of("MortonSilverman", t=1, D=1), 60))
        == SATISFIED
        and t2 < 1.0
    )
    ok = first_ok and second_ok
    with capsys.disabled():
        _report(
            4,
            "orbit certificate reproduction",
            ok,
            f"z^2-1: (m,n)=({doc1['tail_length']},{doc1['period']}) {t1:.2f}s; "
            f"z^2-29/16: (m,n)=({doc2['tail_length']},{doc2['period']}) "
            f"bad={doc2['bad_primes']} {t2:.2f}s",
        )


def test_criterion_5_bound_regression(capsys):
    # oracle values recomputed live with plain high-precision arithmetic,
    # outside the interval machinery, and pinned by frozen 100-digit strings
    frozen_c1 = (
        "1000000000012.2174370064632088737635613545257253086589701018074813"
        "71883853989898654994794721472518034"
    )
    frozen_ms11 = (
        "18.318991325630019479997881651533292360583622626901696930531857288"
        "01037389514328105085753389900457756"
    )
    with mp.workdps(210):
        oracle_c1 = mp.mpf(10) ** 12 + 8 * mp.log(2) + 8 * mp.log(mp.log(10))
        oracle_ms11 = 4 * mp.log(36 * mp.log(15))
        pin_ok = (
            abs(oracle_c1 - mp.mpf(frozen_c1)) / oracle_c1 < mp.mpf(10) ** -95
            and abs(oracle_ms11 - mp.mpf(frozen_ms11)) / oracle_ms11 < mp.mpf(10) ** -95
        )
        c1 = evaluate_bound(BoundFormula.of("CanciC", s=1), 60)
        ms11 = evaluate_bound(BoundFormula.of("MortonSilverman", t=1, D=1), 60)
        rel_ok = True
        for value, oracle in ((c1, oracle_c1), (ms11, oracle_ms11)):
            lo, hi = mp.mpf(value.ln_lower), mp.mpf(value.ln_upper)
            rel_ok = rel_ok and lo <= oracle <= hi
            rel_ok = rel_ok and abs(lo - oracle) / oracle < mp.mpf(10) ** -6
            rel_ok = rel_ok and abs(hi - oracle) / oracle < mp.mpf(10) ** -6
    exact_ok = (
        evaluate_bound(BoundFormula.of("Pgl2Order", D=1), 60).exact == 6
        and evaluate_bound(BoundFormula.of("BeukersSchlickewei", r=2), 60).exact == 16777216
    )
    ok = pin_ok and rel_ok and exact_ok
    with capsys.disabled():
        _report(
            5,
            "bound values against a 200-digit oracle",
            ok,
            f"ln c(1) in [{c1.ln_lower_str[:24]}..], ln MS(1,1) in "
            f"[{ms11.ln_lower_str[:12]}..], order=6, height bound=2^24",
        )


def _unit_box(primes: tuple[int, ...], radius: int) -> set[Fraction]:
    units: set[Fraction] = set()
    for exponents in itertools.product(range(-radius, radius + 1), repeat=len(primes)):
        x = Fraction(1)
        for p, e in zip(primes, exponents):
            x *= Fraction(p) ** e
        units.add(x)
        units.add(-x)
    return units


def test_criterion_6_unit_equation_enumeration(capsys):
    classic = solve_unit_equation(PlaceSet.of(2), 20, 60)
    classic_ok = classic.count == 3 and classic.solutions == (
        (Fraction(-1), Fraction(2)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2), Fraction(-1)),
    )

    prime_sets = [()] + [(p,) for p in (2, 3, 5, 7)] + [
        pair for pair in itertools.combinations((2, 3, 5, 7), 2)
    ]
    scans = 0
    oracle_ok = True
    for primes in prime_sets:
        for radius in (1, 4, 8):
            report = solve_unit_equation(PlaceSet.of(*primes), radius, 60)
            units = _unit_box(primes, radius)
            expected = tuple(
                sorted((u, 1 - u) for u in units if (1 - u) in units)
            )
            oracle_ok = oracle_ok and report.solutions == expected
            oracle_ok = oracle_ok and report.bound_ok
            if report.count >= 1:
                oracle_ok = oracle_ok and compare(report.count, report.ln_bound) == SATISFIED
            scans += 1
    ok = classic_ok and oracle_ok
    with capsys.disabled():
        _report(
            6,
            "unit-equation scans against a two-sided oracle",
            ok,
            f"classic count=3; {scans} scans matched, all within the rank bound",
        )


def test_criterion_7_tail_divisibility_suite(capsys):
    report = run_suite("divisibility", 200, seed=7)[0]
    ok = (
        report.passed
        and report.counterexample is None
        and report.cases == 200
        and report.comparisons > 0
    )
    with capsys.disabled():
        _report(
            7,
            "monotone valuations on 200 synthesized tails",
            ok,
            f"cases={report.cases} comparisons={report.comparisons}",
        )


def test_criterion_8_normalization_pipeline(capsys):
    checked = 0
    ok = True
    for cert in corpus_certificates():
        composite, tail = collapse_to_fixed_point(cert)
        map2, tail2, _ = normalize_orbit(composite, tail)
        S = PlaceSet.of(*sorted(set(bad_primes(cert.map)) | set(bad_primes(map2))))
        verify_np_conditions(map2, tail2, S, 60)  # raises CertificateCheckError on a failure
        ok = ok and len(tail2) - 1 == cert.tail_length // cert.period
        checked += 1
    ok = ok and checked == len(CORPUS)
    with capsys.disabled():
        _report(
            8,
            "collapse, normalize, verify on every corpus orbit",
            ok,
            f"{checked} certificates, conditions (1)-(3) and the tail bound",
        )


def test_criterion_9_deterministic_reports(capsys):
    argv = [sys.executable, "-m", "orbita.cli", "verify", "--suite", "all", "--seed", "7"]
    first = subprocess.run(argv, capture_output=True, timeout=120)
    second = subprocess.run(argv, capture_output=True, timeout=120)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stderr == second.stderr
        and b"all suites passed (seed=7)" in first.stdout
    )
    with capsys.disabled():
        _report(
            9,
            "byte-identical verification reports",
            ok,
            f"{len(first.stdout)} bytes reproduced across two runs",
        )
