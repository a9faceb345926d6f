"""Each workload's checker passes a real output and rejects a corrupted one."""

import json

from orbita import cli

import workloads as W
from worker import failure, run_op


def _run(op):
    rc, out, err, _ = run_op(cli.main, op)
    return rc, out, err


def _corpus_op():
    table = W.load_table("orbits.json")
    base = next(b for b in table["bases"] if b["name"] == "corpus.1")  # z^2 - 29/16, 3-cycle
    return W.certify_op(base, table["matrices"][base["certifies_with"][-1]], "certify.medium")


def test_certify_checker():
    op = _corpus_op()
    rc, out, err = _run(op)
    assert W.check_certify(op, rc, out, err) is None
    doc = json.loads(out)
    doc["period"] = str(int(doc["period"]) + 1)
    assert "expected" in W.check_certify(op, rc, json.dumps(doc), err)
    doc = json.loads(out)
    doc["points"][1], doc["points"][2] = doc["points"][2], doc["points"][1]
    assert "orbit" in W.check_certify(op, rc, json.dumps(doc), err)
    doc = json.loads(out)
    doc["checks"]["remark"] = False
    assert W.check_certify(op, rc, json.dumps(doc), err) is not None
    assert W.check_certify(op, 3, "", "orbita: error: budget exhausted") is not None
    doc = json.loads(out)
    del doc["map"]
    assert "malformed" in failure(W.check_certify, op, rc, json.dumps(doc), err)


def test_suites_checker():
    op = next(W.suites_stream(5, 0, 1))
    rc, out, err = _run(op)
    assert W.check_suites(op, rc, out, err) is None
    failed = out.replace(" passed\n", " FAILED\n", 1)
    assert W.check_suites(op, rc, failed, err) is not None
    fewer = out.replace(f"cases={op.expect['cases']}", "cases=1")
    assert W.check_suites(op, rc, fewer, err) is not None


def test_scan_bounds_checker_needs_enclosure():
    op = W.bounds_op("MortonSilverman", (("t", 3), ("D", 2)), 200)
    rc, out, err = _run(op)
    assert W.check_scan(op, rc, out, err) is None
    lines = out.splitlines()
    lower = next(l for l in lines if l.startswith("ln lower: "))
    upper = next(l for l in lines if l.startswith("ln upper: "))
    # an interval that lies wholly above the true value misses the reference
    shifted = out.replace(lower, "ln lower: " + upper[len("ln upper: "):]).replace(
        upper, "ln upper: 1" + upper[len("ln upper: "):])
    assert "misses" in W.check_scan(op, rc, shifted, err)
    wide = out.replace(lower, "ln lower: 0")
    assert "digits" in W.check_scan(op, rc, wide, err)


def test_scan_sunit_checker_rejects_non_solution_rows():
    counts = W.load_table("sunit_counts.json")
    op = W.sunit_op("two", (2, 3), 8, None, counts)
    rc, out, err = _run(op)
    assert W.check_scan(op, rc, out, err) is None
    lines = out.splitlines()
    assert len(lines) > 2
    not_a_solution = "\n".join(lines[:1] + ["1,2,1,3"] + lines[2:]) + "\n"
    assert "not an S-unit solution" in W.check_scan(op, rc, not_a_solution, err)
    outside_box = "\n".join(lines[:1] + ["-511,1,512,1"] + lines[1:]) + "\n"
    assert W.check_scan(op, rc, outside_box, err) is not None
    missing = "\n".join(lines[:-1]) + "\n"
    assert W.check_scan(op, rc, missing, err) is not None


def test_scan_three_term_checker_compares_reference_count():
    counts = W.load_table("sunit_counts.json")
    op = W.sunit_op("three", (2, 3, 5), 1, "1,1,1", counts)
    rc, out, err = _run(op)
    assert W.check_scan(op, rc, out, err) is None
    doc = json.loads(out)
    doc["count"] += 1
    assert "reference" in W.check_scan(op, rc, json.dumps(doc), err)
