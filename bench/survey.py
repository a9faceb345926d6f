"""Build the committed tables under data/ and the failure inventory of this commit.

    python3 bench/survey.py            # a few minutes on a 2-core x86 box

Writes:
  data/orbits.json        base orbits of the certify workload, the conjugation
                          matrices, and for every base which matrices certify
  data/bounds_params.json parameters of the scan workload's bounds ops, per
                          formula and precision, that pass their check here
  data/sunit_counts.json  reference solution counts of every sunit op the scan
                          workload can draw, from this file's own box scans
  data/inventory.json     the op families that fail at this commit, and how

A base orbit is drawn by the certify workload only with the matrices under
which it certified here, and a bounds op only with parameters that passed
here; every other probe that failed is listed in the inventory, so later
changes can cite the failures by name.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (provenance)
import workloads as W  # noqa: E402
from worker import DEADLINE_S, failure, run_op  # noqa: E402

from mpmath import mp  # noqa: E402

from orbita import cli  # noqa: E402
from orbita.maps import parse_map  # noqa: E402
from orbita.orbits import OrbitCertificate, detect_orbit, synthesize_map  # noqa: E402
from orbita.projective import from_pair, parse_point  # noqa: E402
from orbita.suites import CORPUS  # noqa: E402

N_MATRICES = 24
# synthesized families: (degree, tail, period, bases, tier); "inventory" bases
# are probed but never drawn by the workload
FAMILIES = (
    (2, 0, 3, 2, "medium"), (2, 1, 3, 2, "medium"), (2, 2, 3, 2, "medium"),
    (2, 0, 4, 3, "deep"), (2, 1, 4, 3, "deep"),
    (2, 0, 5, 1, "inventory"),
    *((3, m, 3, 1, "inventory") for m in range(4)),
    *((3, m, 4, 1, "inventory") for m in range(4)),
    *((3, m, 5, 1, "inventory") for m in range(3)),
)
# the degree-3 5-cycle that runs past 60 s at the parent of the benchmark
ROADMAP_5_CYCLE = ("(774*z^3 - 4976*z^2 + 6250*z - 3000)/(125*z^3 - 601*z^2)", "1")
# inventory bases are probed with the identity and this many other matrices
INVENTORY_PROBES = 1
# bounds parameter sets probed per formula and precision; the ends of each
# range are among them
BOUNDS_DRAWS = 48
# bounds parameters past the largest ones the scan workload draws
BOUNDS_PROBES = (
    ("BeukersSchlickewei", (("r", 1785),)), ("BeukersSchlickewei", (("r", 3000),)),
    ("KRun", (("s", 893),)), ("KRun", (("s", 4000),)),
    ("ESS", (("n", 100_000), ("r", 1))),
)


def outcome(op, rc, out, err, check) -> str:
    if rc is None:
        return "deadline" if "deadline" in err else "uncaught-exception"
    if rc == 3:
        return "exit3-factor-budget" if "factorization incomplete" in err else "exit3-budget"
    if rc == 2 and "integer string conversion" in err:
        return "exit2-int-str-limit"
    if rc != 0:
        return f"exit{rc}"
    return "ok" if check(op, rc, out, err) is None else "wrong-output"


def probe(op, check) -> tuple[str, float, str]:
    rc, out, err, seconds = run_op(cli.main, op)
    return outcome(op, rc, out, err, check), seconds, out


# ---------------------------------------------------------------- orbits


def conjugation_matrices() -> list[list[int]]:
    pool = []
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        det = a * d - b * c
        lead = next((v for v in (a, b, c, d) if v), 0)
        if 1 <= abs(det) <= 3 and gcd(gcd(a, b), gcd(c, d)) == 1 and lead > 0:
            pool.append([a, b, c, d])
    rng = random.Random("matrices")
    others = [A for A in pool if A != [1, 0, 0, 1]]
    return [[1, 0, 0, 1]] + sorted(rng.sample(others, N_MATRICES - 1))


def base_entry(name: str, family: str, tier: str, m_obj, start) -> dict:
    cert = detect_orbit(m_obj, start)
    if not isinstance(cert, OrbitCertificate):
        raise RuntimeError(f"{name} does not close")
    n = cert.period
    if tier != "inventory":
        tier = W.certify_tier(m_obj.degree, n)
    return {"name": name, "family": family, "tier": tier, "degree": m_obj.degree,
            "m": cert.tail_length, "n": n, "F": list(m_obj.F), "G": list(m_obj.G),
            "start": [start.x, start.y]}


def synthesized_bases() -> list[dict]:
    rng = random.Random("bases")
    bases = []
    for d, m, n, count, tier in FAMILIES:
        family = f"d{d}-m{m}-n{n}"
        made = 0
        while made < count:
            pts = []
            while len(pts) < m + n:
                P = from_pair(rng.randint(-4, 4), rng.randint(1, 4))
                if P not in pts:
                    pts.append(P)
            pairs = [(pts[i], pts[i + 1]) for i in range(m + n - 1)] + [(pts[-1], pts[m])]
            f = synthesize_map(pairs, d)
            if f is None or f.degree != d:
                continue
            entry = base_entry(f"{family}.{made}", family, tier, f, pts[0])
            if (entry["m"], entry["n"]) != (m, n):
                continue
            bases.append(entry)
            made += 1
    return bases


def survey_orbits() -> dict:
    matrices = conjugation_matrices()
    bases = [base_entry(f"corpus.{i}", "corpus", "light", parse_map(e), parse_point(s))
             for i, (e, s) in enumerate(CORPUS)]
    bases += synthesized_bases()
    bases.append(base_entry("roadmap-5-cycle", "roadmap-d3-n5", "inventory",
                            parse_map(ROADMAP_5_CYCLE[0]), parse_point(ROADMAP_5_CYCLE[1])))
    for base in bases:
        indices = range(len(matrices)) if base["tier"] != "inventory" else range(
            1 + INVENTORY_PROBES)
        base["probes"] = []
        for i in indices:
            op = W.certify_op(base, matrices[i], f"certify.{base['tier']}")
            result, seconds, _ = probe(op, W.check_certify)
            base["probes"].append([i, result, round(seconds, 3)])
            print(f"  {base['name']} A{i}: {result} {seconds:.2f} s", file=sys.stderr)
        base["certifies_with"] = [] if base["tier"] == "inventory" else [
            i for i, result, _ in base["probes"] if result == "ok"]
    return {"matrices": matrices, "bases": bases}


# ---------------------------------------------------------------- bounds


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """Integer in [lo, hi], roughly uniform in log(1 + x)."""
    return min(hi, max(lo, int(round((1 + hi) ** rng.random())) - 1))


def good_digits(out: str, precision: int) -> float:
    """Significant digits on which the printed ln lower and upper agree."""
    lines = out.splitlines()
    with mp.workdps(precision + 40):
        lo = mp.mpf(W._field(lines, "ln lower: "))
        hi = mp.mpf(W._field(lines, "ln upper: "))
        if hi == lo:
            return float(precision)
        return float(-mp.log10((hi - lo) / max(1, abs(hi))))


def survey_bounds() -> tuple[dict, list]:
    """Parameter table of the bounds ops that pass, and every probe made."""
    table: dict[str, dict[str, list]] = {}
    probes = []
    for formula, spec in W.FORMULA_PARAMS.items():
        table[formula] = {}
        for precision in W.PRECISIONS:
            rng = random.Random(f"bounds:{formula}:{precision}")
            draws = [tuple(lo for _, lo, _ in spec), tuple(hi for _, _, hi in spec)]
            while len(draws) < BOUNDS_DRAWS:
                draws.append(tuple(_log_uniform(rng, lo, hi) for _, lo, hi in spec))
            kept = []
            for values in draws:
                params = tuple(zip((k for k, _, _ in spec), values))
                result, seconds, out = probe(W.bounds_op(formula, params, precision),
                                             W.check_scan)
                digits = good_digits(out, precision) if result == "ok" else None
                probes.append((formula, params, precision, result, seconds, digits))
                if result == "ok":
                    kept.append(list(values))
            table[formula][str(precision)] = kept
            print(f"  {formula} p{precision}: {len(kept)}/{len(draws)} pass", file=sys.stderr)
    for formula, params in BOUNDS_PROBES:
        for precision in W.PRECISIONS:
            result, seconds, _ = probe(W.bounds_op(formula, params, precision), W.check_scan)
            probes.append((formula, params, precision, result, seconds, None))
    return table, probes


# ---------------------------------------------------------------- sunit


def _box_units(primes, B: int) -> list[Fraction]:
    values = [Fraction(1)]
    for p in primes:
        values = [v * Fraction(p) ** e for v in values for e in range(-B, B + 1)]
    return values + [-v for v in values]


def two_term_count(primes, B: int) -> int:
    units = _box_units(primes, B)
    members = set(units)
    return sum(1 for u in units if u != 1 and 1 - u in members)


def three_term_count(primes, coeffs: str, B: int) -> int:
    a1, a2, a3 = (Fraction(c) for c in coeffs.split(","))
    units = _box_units(primes, B)
    members = set(units)
    count = 0
    for x1 in units:
        t1 = a1 * x1
        for x2 in units:
            t2 = a2 * x2
            rest = 1 - t1 - t2
            if rest == 0 or rest / a3 not in members:
                continue
            if t1 + t2 != 0 and t1 + rest != 0 and t2 + rest != 0:
                count += 1
    return count


def survey_sunit() -> dict:
    counts: dict[str, dict[str, int]] = {"two": {}, "three": {}}
    for eq, k, B in W.SUNIT_SLOTS:
        for primes in itertools.combinations(W.SUNIT_PRIMES, k):
            if eq == "two":
                counts["two"][W.sunit_key(primes, B)] = two_term_count(primes, B)
            else:
                for coeffs in W.THREE_TERM_COEFFS:
                    counts["three"][W.sunit_key(primes, B, coeffs)] = three_term_count(
                        primes, coeffs, B)
    return counts


def cross_check_sunit(counts: dict) -> list[dict]:
    """Run every sunit op once against the reference counts; list the mismatches."""
    bad = []
    for eq, k, B in W.SUNIT_SLOTS:
        for primes in itertools.combinations(W.SUNIT_PRIMES, k):
            for coeffs in (W.THREE_TERM_COEFFS if eq == "three" else (None,)):
                op = W.sunit_op(eq, primes, B, coeffs, counts)
                rc, out, err, _ = run_op(cli.main, op)
                reason = failure(W.check_scan, op, rc, out, err)
                if reason is not None:
                    bad.append({"argv": list(op.argv), "reason": reason})
    return bad


# ---------------------------------------------------------------- inventory


def inventory(orbits: dict, bounds_probes: list, sunit_mismatches: list[dict]) -> dict:
    families: dict[str, dict] = {}
    loose: dict[str, dict] = {}

    def note(workload, family, result, argv, seconds):
        entry = families.setdefault(f"{workload}.{family}.{result}", {
            "workload": workload, "family": family, "outcome": result, "ops": 0,
            "max_seconds": 0.0, "example_argv": argv})
        entry["ops"] += 1
        entry["max_seconds"] = max(entry["max_seconds"], seconds)

    probed = {"certify": 0, "scan": 0, "suites": 0}
    for base in orbits["bases"]:
        for i, result, seconds in base["probes"]:
            probed["certify"] += 1
            if result != "ok":
                op = W.certify_op(base, orbits["matrices"][i], "")
                note("certify", base["family"], result, list(op.argv), seconds)
    for formula, params, precision, result, seconds, digits in bounds_probes:
        probed["scan"] += 1
        argv = list(W.bounds_op(formula, params, precision).argv)
        argv.append(f"ORBITA_PRECISION={precision}")
        if result != "ok":
            note("scan", f"bounds-{formula}", result, argv, seconds)
        elif digits < precision - 10:
            # passes the check, but prints fewer good digits than it claims
            entry = loose.setdefault(f"scan.bounds-{formula}.p{precision}", {
                "ops": 0, "fewest_good_digits": precision, "example_argv": argv})
            entry["ops"] += 1
            if digits < entry["fewest_good_digits"]:
                entry["fewest_good_digits"] = round(digits, 1)
                entry["example_argv"] = argv
    for item in sunit_mismatches:
        note("scan", "sunit", "wrong-output", item["argv"], 0.0)
    stream = W.suites_stream(0, 0, 1)
    for _ in range(4 * len(W.SUITE_ITERATIONS)):
        op = next(stream)
        result, seconds, _ = probe(op, W.check_suites)
        probed["suites"] += 1
        if result != "ok":
            note("suites", op.kind, result, list(op.argv), seconds)
    for entry in families.values():
        entry["max_seconds"] = round(entry["max_seconds"], 3)
    return {"provenance": run.provenance(seed=None), "deadline_s": DEADLINE_S,
            "probed_ops": probed, "failing_families": dict(sorted(families.items())),
            "loose_intervals": dict(sorted(loose.items()))}


def _write(name: str, doc) -> None:
    path = W.DATA / name
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def main() -> int:
    t0 = time.monotonic()
    orbits = survey_orbits()
    _write("orbits.json", orbits)
    bounds_table, bounds_probes = survey_bounds()
    _write("bounds_params.json", bounds_table)
    counts = survey_sunit()
    _write("sunit_counts.json", counts)
    mismatches = cross_check_sunit(counts)
    _write("inventory.json", inventory(orbits, bounds_probes, mismatches))
    print(f"survey took {time.monotonic() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
