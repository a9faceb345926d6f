"""Workload definitions: the op streams a seed draws, and the check of each op's output.

An op is one ``orbita`` command line. Streams are infinite and deterministic
in (workload, seed, part, parts): a run starts ``parts`` child processes and
child ``part`` draws its own share of the ops. Each workload repeats a fixed
cycle of op kinds. Within a kind the choices form a finite list, walked in a
seeded permutation that the children of one run enter at evenly spaced
points, so a run draws nearly every choice the same number of times and its
cost mix does not depend on the seed.

The committed tables under ``data/`` are written by ``survey.py``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

from mpmath import mp

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Op:
    """One command line, the environment it runs under, and what its output must show."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)
    env: tuple[tuple[str, str], ...] = ()


def _cover(items: list, rng: random.Random, part: int, parts: int):
    """Endless walk over a seeded permutation of items, entered at part/parts of the way."""
    order = list(items)
    rng.shuffle(order)
    i = part * len(order) // parts
    while True:
        yield order[i % len(order)]
        i += 1


def load_table(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- certify
#
# A base orbit of known tail m and period n is conjugated by a small integer
# matrix A: the map becomes A o f o A^-1 and the start A(P0). Conjugation
# keeps (m, n) and changes coordinates, resultants and bad primes.


def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _substitute(f: list[int], u: list[int], v: list[int]) -> list[int]:
    """Binary form f(u, v) for linear forms u, v (descending powers of X)."""
    d = len(f) - 1
    out = [0] * (d + 1)
    for i, c in enumerate(f):
        if c:
            term = [1]
            for _ in range(d - i):
                term = _poly_mul(term, u)
            for _ in range(i):
                term = _poly_mul(term, v)
            for j, t in enumerate(term):
                out[j] += c * t
    return out


def conjugate_forms(F, G, A) -> tuple[list[int], list[int]]:
    """Forms of A o (F, G) o adj(A); adj(A) is A^-1 up to a scalar."""
    a, b, c, d = A
    u, v = [d, -b], [-c, a]
    Fs, Gs = _substitute(list(F), u, v), _substitute(list(G), u, v)
    return ([a * x + b * y for x, y in zip(Fs, Gs)], [c * x + d * y for x, y in zip(Fs, Gs)])


def canonical(x: int, y: int) -> tuple[int, int]:
    g = gcd(x, y)
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y


def apply_matrix(A, P) -> tuple[int, int]:
    a, b, c, d = A
    x, y = P
    return canonical(a * x + b * y, c * x + d * y)


def eval_forms(F, G, P) -> tuple[int, int]:
    x, y = P
    deg = len(F) - 1
    fx = sum(c * x ** (deg - i) * y**i for i, c in enumerate(F))
    gx = sum(c * x ** (deg - i) * y**i for i, c in enumerate(G))
    return canonical(fx, gx)


def _poly_expr(coeffs: list[int]) -> str:
    """Expression in z for c0 z^d + ... + cd, in the grammar ``orbita`` parses."""
    d = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        k = d - i
        mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def map_expr(F, G) -> str:
    return f"({_poly_expr(list(F))})/({_poly_expr(list(G))})"


def certify_op(base: dict, A, kind: str) -> Op:
    F, G = conjugate_forms(base["F"], base["G"], A)
    start = apply_matrix(A, tuple(base["start"]))
    argv = ("orbit", "--map", map_expr(F, G), "--point", f"[{start[0]}:{start[1]}]", "--json")
    expect = {"F": F, "G": G, "start": start, "m": base["m"], "n": base["n"]}
    return Op(kind, argv, expect)


def certify_tier(degree: int, period: int) -> str:
    """light, medium or deep by the composite degree d^n the certificate works with."""
    composite = degree**period
    return "light" if composite <= 4 else "medium" if composite < 16 else "deep"


# Five light ops, one medium and one deep. Light ops (2-4 ms) are 5/7 of the
# cycle, so the median op lies inside their cluster of latencies, not in
# the gap between it and the medium ops (5-10 ms). Deep ops (60-260 ms) are
# the top 1/7, so p90 falls 30% of the way up their latencies, among the
# dense 60-100 ms ops rather than at the cluster's lower edge.
CERTIFY_CYCLE = ("light",) * 5 + ("medium", "deep")


def certify_stream(seed: int, part: int, parts: int):
    table = load_table("orbits.json")
    pickers = {}
    for tier in set(CERTIFY_CYCLE):
        # bases of the "inventory" tier, and matrices a base failed under, are never drawn
        pairs = [(base, i) for base in table["bases"] if base["tier"] == tier
                 for i in base["certifies_with"]]
        pickers[tier] = _cover(pairs, random.Random(f"certify:{seed}:{tier}"), part, parts)
    while True:
        for tier in CERTIFY_CYCLE:
            base, i = next(pickers[tier])
            yield certify_op(base, table["matrices"][i], f"certify.{tier}")


def check_certify(op: Op, rc: int, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    e = op.expect
    m, n = e["m"], e["n"]
    if doc.get("command") != "orbit":
        return "not an orbit document"
    if (doc.get("tail_length"), doc.get("period")) != (str(m), str(n)):
        return f"(m, n) = ({doc.get('tail_length')}, {doc.get('period')}), expected ({m}, {n})"
    if doc.get("start") != [str(e["start"][0]), str(e["start"][1])]:
        return f"start {doc.get('start')} != {list(e['start'])}"
    checks = doc.get("checks", {})
    if set(checks) != {"prop51", "prop52", "remark", "divisibility"} or not all(
        v is True for v in checks.values()
    ):
        return f"checks not all true: {checks}"
    if doc.get("bounds", {}).get("satisfied") is not True:
        return "bounds not satisfied"
    # the certified map is ours up to a scalar, and the points are its orbit
    F = [int(c) for c in doc["map"]["F"]]
    G = [int(c) for c in doc["map"]["G"]]
    ours = e["F"] + e["G"]
    theirs = F + G
    k = next(i for i, c in enumerate(ours) if c)
    if len(theirs) != len(ours) or any(
        theirs[i] * ours[k] != ours[i] * theirs[k] for i in range(len(ours))
    ):
        return "certified map is not the map sent"
    pts = [(int(x), int(y)) for x, y in doc["points"]]
    if len(pts) != m + n or pts[0] != tuple(e["start"]):
        return "points do not start at the start point"
    for i, P in enumerate(pts):
        target = pts[i + 1] if i + 1 < len(pts) else pts[m]
        if eval_forms(F, G, P) != target:
            return f"points are not an orbit at step {i}"
    return None


# ---------------------------------------------------------------- suites
#
# SUITE_DEFAULTS of the program (prop51 10000, prop52 1000, divisibility 200)
# divided by 50, so the time mix follows `verify --suite all`. The remark
# suite always covers the 16-entry corpus. At this factor prop52, remark and
# divisibility each take 4-5 ms, so the median op falls inside one cluster
# of latencies rather than in the gap between two. The per-op seeds of each
# suite are a fixed list of SEED_POOL, walked like any other list of
# choices: the cost of a case is heavy-tailed (Brent rho on an unlucky
# cross term), so seeds drawn afresh per run would move the run's cost mix.

SUITE_ITERATIONS = {"prop51": 200, "prop52": 20, "remark": 16, "divisibility": 4}
SEED_POOL = 8


def suites_stream(seed: int, part: int, parts: int):
    pickers = {}
    for suite in SUITE_ITERATIONS:
        pool = random.Random(f"suites:{suite}").sample(range(1 << 31), SEED_POOL)
        pickers[suite] = _cover(pool, random.Random(f"suites:{seed}:{suite}"), part, parts)
    while True:
        for suite, iterations in SUITE_ITERATIONS.items():
            op_seed = next(pickers[suite])
            argv = ("verify", "--suite", suite, "--iterations", str(iterations),
                    "--seed", str(op_seed))
            yield Op(f"suites.{suite}", argv, {"suite": suite, "cases": iterations,
                                                "seed": op_seed})


def check_suites(op: Op, rc: int, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    e = op.expect
    lines = out.splitlines()
    if len(lines) != 2:
        return f"expected one report line and a summary, got {len(lines)} lines"
    head = f"{e['suite']}: cases={e['cases']} comparisons="
    if not lines[0].startswith(head) or not lines[0].endswith(" passed"):
        return f"report line {lines[0]!r} is not a pass for {e['cases']} cases"
    if not lines[0][len(head):-len(" passed")].isdigit():
        return f"bad comparison count in {lines[0]!r}"
    if lines[1] != f"all suites passed (seed={e['seed']})":
        return f"summary line {lines[1]!r}"
    return None


# ---------------------------------------------------------------- scan
#
# `bounds` ops run every formula at every precision. Their parameters come
# from data/bounds_params.json: per formula and precision, log-uniform draws
# from small values up to the largest ones that render at the parent commit
# (BeukersSchlickewei r=1785 and KRun s=893 pass the 4300-digit int->str
# limit), kept only where the op passed its check there; the rest are in
# data/inventory.json. `sunit` ops are box scans whose (number of primes,
# box) is fixed per slot so each slot costs about the same on every seed;
# the seed picks the primes and coefficients.

FORMULA_PARAMS = {
    "CanciC": (("s", 1, 100_000),),
    "MortonSilverman": (("t", 0, 10_000), ("D", 1, 64)),
    "PezdaBR": (("s", 1, 10_000), ("D", 1, 64)),
    "NarkiewiczPezdaOrbit": (("s", 1, 10_000), ("D", 1, 64)),
    "BeukersSchlickewei": (("r", 0, 1784),),
    "ESS": (("n", 1, 2000), ("r", 0, 1000)),
    "NpTail": (("s", 1, 10_000),),
    "KRun": (("s", 1, 892),),
    "TwoWaysIdeals": (("s", 1, 1_000_000),),
    "Pgl2Order": (("D", 1, 1_000_000),),
}
PRECISIONS = (60, 200, 1000, 3000)
# bounds ops per formula and cycle at each precision. The cheap 60- and
# 200-digit ops (2-3 ms) are 110 of the 137 ops of a cycle, so the median op
# falls inside their cluster of latencies. Above the five cheaper 3000-digit
# ops (TwoWaysIdeals, ESS, BeukersSchlickewei, KRun, Pgl2Order: 20-30 ms) lie
# eleven ops of 35-250 ms, so p90 (13.7 ops from the top) falls among those
# five rather than in a gap between two clusters.
PRECISION_WEIGHTS = {60: 5, 200: 6, 1000: 1, 3000: 1}
# a sanity floor on the printed interval's width, not its stated precision:
# at this commit some formulas print far fewer good digits than they claim
# (data/inventory.json, "loose_intervals")
SANE_DIGITS = 12

SUNIT_PRIMES = (2, 3, 5, 7, 11, 13)
# (equation, number of primes, box radius)
SUNIT_SLOTS = (
    ("two", 2, 8),
    ("two", 3, 6),
    ("two", 3, 8),
    ("two", 4, 4),
    ("two", 4, 5),
    ("three", 2, 3),
    ("three", 3, 1),
)
THREE_TERM_COEFFS = ("1,1,1", "1,-1,1", "2,-1,-1", "1/2,1/3,1/6")

SCAN_CYCLE = tuple(
    ("bounds", f, p) for f in FORMULA_PARAMS for p, n in PRECISION_WEIGHTS.items()
    for _ in range(n)
) + tuple(("sunit",) + slot for slot in SUNIT_SLOTS)


def sunit_key(primes, B: int, coeffs: str | None = None) -> str:
    key = f"{','.join(map(str, primes))}|{B}"
    return key if coeffs is None else f"{key}|{coeffs}"


def bounds_op(formula: str, params: tuple[tuple[str, int], ...], precision: int) -> Op:
    argv = ("bounds", "--formula", formula, "--params") + tuple(f"{k}={v}" for k, v in params)
    expect = {"formula": formula, "params": params, "precision": precision}
    return Op(f"bounds.p{precision}", argv, expect, (("ORBITA_PRECISION", str(precision)),))


def sunit_op(eq: str, primes: tuple[int, ...], B: int, coeffs: str | None,
             counts: dict) -> Op:
    argv = ("sunit", "--primes", ",".join(map(str, primes)), "--bound", str(B))
    if eq == "three":
        argv += ("--three-term", coeffs)
    count = counts[eq][sunit_key(primes, B, coeffs)]
    expect = {"eq": eq, "primes": primes, "B": B, "count": count}
    return Op(f"sunit.{eq}.{len(primes)}x{B}", argv, expect)


def scan_stream(seed: int, part: int, parts: int):
    counts = load_table("sunit_counts.json")
    params_table = load_table("bounds_params.json")
    pickers = {}
    for slot in set(SCAN_CYCLE):
        if slot[0] == "bounds":
            _, formula, precision = slot
            choices = params_table[formula][str(precision)]
        else:
            _, eq, k, B = slot
            coeffs = THREE_TERM_COEFFS if eq == "three" else (None,)
            choices = list(itertools.product(itertools.combinations(SUNIT_PRIMES, k), coeffs))
        rng = random.Random(f"scan:{seed}:{':'.join(map(str, slot))}")
        pickers[slot] = _cover(choices, rng, part, parts)
    order_rng = random.Random(f"scan:{seed}:{part}")
    while True:
        cycle = list(SCAN_CYCLE)
        order_rng.shuffle(cycle)
        for slot in cycle:
            choice = next(pickers[slot])
            if slot[0] == "bounds":
                _, formula, precision = slot
                names = [k for k, _, _ in FORMULA_PARAMS[formula]]
                yield bounds_op(formula, tuple(zip(names, choice)), precision)
            else:
                _, eq, _, B = slot
                primes, coeffs = choice
                yield sunit_op(eq, primes, B, coeffs, counts)


def ln_reference(formula: str, p: dict):
    """The formula's natural log in plain mpmath arithmetic at the current mp.dps."""
    mpf, log = mp.mpf, mp.log
    if formula == "CanciC":
        s = p["s"]
        return s * (mpf(10) ** 12 + 8 * log(s + 1) + 8 * log(log(mpf(5 * (s + 1)))))
    if formula == "MortonSilverman":
        t, D = p["t"], p["D"]
        return 4 * D * log(12 * (t + 2) * log(mpf(5 * (t + 2))))
    if formula == "PezdaBR":
        s, D = p["s"], p["D"]
        return (2 * D + 1) * log(12 * s * log(mpf(5 * s)))
    if formula == "NarkiewiczPezdaOrbit":
        s, D = p["s"], p["D"]
        # ln(X - 1) with X = [12 s ln(5s)]^(2D+1) (31 + 2^(1031 s)) / 3
        ln_x = ((2 * D + 1) * log(12 * s * log(mpf(5 * s)))
                + log(31 + mpf(2) ** (1031 * s)) - log(3))
        return ln_x + mp.log1p(-mp.exp(-ln_x))
    if formula == "BeukersSchlickewei":
        return 8 * (p["r"] + 1) * log(2)
    if formula == "ESS":
        n, r = p["n"], p["r"]
        return mpf((6 * n) ** (3 * n) * (r + 1))
    if formula == "NpTail":
        x = mpf(10) ** 12 * p["s"]
        return x + mp.log1p(-2 * mp.exp(-x))
    if formula == "KRun":
        return 16 * p["s"] * log(2)
    if formula == "TwoWaysIdeals":
        return mpf(18**9 * (3 * p["s"] - 2))
    if formula == "Pgl2Order":
        return log(2 + 4 * p["D"] ** 2)
    raise KeyError(formula)


def _field(lines: list[str], label: str) -> str | None:
    for line in lines:
        if line.startswith(label):
            return line[len(label):]
    return None


def check_bounds(op: Op, out: str) -> str | None:
    e = op.expect
    lines = out.splitlines()
    params = ", ".join(f"{k}={v}" for k, v in e["params"])
    if _field(lines, "formula: ") != f"{e['formula']}({params})":
        return "formula line does not echo the request"
    if _field(lines, "precision: ") != f"{e['precision']} digits":
        return "precision line does not match ORBITA_PRECISION"
    lo_s, hi_s = _field(lines, "ln lower: "), _field(lines, "ln upper: ")
    if lo_s is None or hi_s is None:
        return "missing ln interval"
    with mp.workdps(e["precision"] + 40):
        try:
            lo, hi = mp.mpf(lo_s), mp.mpf(hi_s)
        except ValueError:
            return "ln interval is not numeric"
        ref = ln_reference(e["formula"], dict(e["params"]))
        if not lo <= ref <= hi:
            return f"ln interval [{lo_s[:30]}, {hi_s[:30]}] misses the reference"
        if hi - lo > mp.mpf(10) ** -SANE_DIGITS * max(1, abs(ref)):
            return f"ln interval is not good to {SANE_DIGITS} digits"
    return None


def _is_box_unit(x: Fraction, primes, B: int) -> bool:
    num, den = abs(x.numerator), x.denominator
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        if abs(e) > B:
            return False
    return num == 1 and den == 1


def check_sunit(op: Op, out: str, err: str) -> str | None:
    e = op.expect
    primes, B = e["primes"], e["B"]
    if e["eq"] == "three":
        try:
            summary = json.loads(out)
        except ValueError:
            return "three-term summary is not JSON"
    else:
        lines = out.splitlines()
        if not lines or lines[0] != "u_num,u_den,v_num,v_den":
            return "missing CSV header"
        previous = None
        for row in lines[1:]:
            try:
                un, ud, vn, vd = (int(c) for c in row.split(","))
                u, v = Fraction(un, ud), Fraction(vn, vd)
            except (ValueError, ZeroDivisionError):
                return f"bad CSV row {row!r}"
            if (u.numerator, u.denominator, v.numerator, v.denominator) != (un, ud, vn, vd):
                return f"row {row!r} is not in lowest terms"
            if u + v != 1 or not _is_box_unit(u, primes, B) or not _is_box_unit(v, primes, B):
                return f"row {row!r} is not an S-unit solution inside the box"
            if previous is not None and u <= previous:
                return f"row {row!r} is out of order or repeated"
            previous = u
        try:
            summary = json.loads(err.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "missing JSON summary on stderr"
        if summary.get("count") != len(lines) - 1:
            return "summary count differs from the rows printed"
    if summary.get("count") != e["count"]:
        return f"count {summary.get('count')} != reference {e['count']}"
    if summary.get("rank") != len(primes) or summary.get("box") != B:
        return "summary rank or box does not match the request"
    return None


def check_scan(op: Op, rc: int, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    if op.kind.startswith("bounds."):
        return check_bounds(op, out)
    return check_sunit(op, out, err)


# ---------------------------------------------------------------- registry

STREAMS = {"certify": certify_stream, "suites": suites_stream, "scan": scan_stream}
CHECKS = {"certify": check_certify, "suites": check_suites, "scan": check_scan}
# ops per cycle of each workload; the first cycle of seed 0 is every child's
# untimed warm-up, so set-up costs the same whatever the seed
CYCLE_LENGTH = {"certify": len(CERTIFY_CYCLE), "suites": len(SUITE_ITERATIONS),
                "scan": len(SCAN_CYCLE)}
