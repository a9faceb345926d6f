"""Pinned bytes of `orbit`, `bounds`, `verify`, `sunit` and their `--json` forms, and bound rendering across precisions.

tests/data/orbit_sample.txt lists the 16 suites.CORPUS entries and 224
conjugates of them, written as unnormalized expressions, with the exit
status and a digest of stdout and stderr for both output modes. Any change
to parsing, certification, the checks or the bounds block that moves a byte
of those outputs fails here, with the offending line named.
tests/data/bounds_sample.txt does the same for `bounds`: 10 formulas at 4
precisions with 3 parameter sets each. `verify --suite all --seed 7` is
pinned by one digest per mode: its suite comparison counts (282945 / 1793
/ 8 / 312) and every other byte of both reports. tests/data/sunit_sample.json
holds the whole stdout, stderr and exit status of four `sunit` runs: the
two-term scan and the three-term count, each in both output modes.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from orbita import cli
from orbita.bounds import FORMULAS, PRECISION_ENV
from orbita.suites import CORPUS

SAMPLE = Path(__file__).parent / "data" / "orbit_sample.txt"
BOUNDS_SAMPLE = Path(__file__).parent / "data" / "bounds_sample.txt"
SUNIT_SAMPLE = Path(__file__).parent / "data" / "sunit_sample.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _digest(out, err):
    return hashlib.sha256((out + "\0" + err).encode()).hexdigest()[:16]


def _sample(path=SAMPLE):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            rows.append(line.split("\t"))
    return rows


def test_sample_holds_the_corpus_and_its_conjugates():
    rows = _sample()
    assert len(rows) == 240
    assert [tuple(r[:2]) for r in rows[: len(CORPUS)]] == list(CORPUS)


@pytest.mark.parametrize("mode", ["text", "json"])
def test_orbit_output_bytes_pinned(mode, monkeypatch):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    extra = ["--json"] if mode == "json" else []
    col = 2 if mode == "text" else 4
    for row in _sample():
        expr, point = row[:2]
        rc, out, err = _run(["orbit", "--map", expr, "--point", point, *extra])
        assert (str(rc), _digest(out, err)) == (row[col], row[col + 1]), (expr, point)


def test_bounds_sample_covers_every_formula_and_precision():
    rows = _sample(BOUNDS_SAMPLE)
    assert len(rows) == 120
    assert {r[0] for r in rows} == set(FORMULAS)
    assert {r[2] for r in rows} == {"60", "200", "1000", "3000"}


@pytest.mark.parametrize("mode", ["text", "json"])
def test_bounds_output_bytes_pinned(mode, monkeypatch):
    extra = ["--json"] if mode == "json" else []
    col = 3 if mode == "text" else 5
    for row in _sample(BOUNDS_SAMPLE):
        formula, params, precision = row[:3]
        monkeypatch.setenv(PRECISION_ENV, precision)
        rc, out, err = _run(["bounds", "--formula", formula, "--params", params, *extra])
        assert (str(rc), _digest(out, err)) == (row[col], row[col + 1]), row[:3]


@pytest.mark.parametrize(
    ("mode", "digest"), [("text", "97026eb9ae245867"), ("json", "8da95fc2f6c669b1")]
)
def test_verify_all_output_bytes_pinned(mode, digest):
    extra = ["--json"] if mode == "json" else []
    rc, out, err = _run(["verify", "--suite", "all", "--seed", "7", *extra])
    assert (rc, _digest(out, err)) == (0, digest), out


@pytest.mark.parametrize(
    "row",
    json.loads(SUNIT_SAMPLE.read_text(encoding="utf-8")),
    ids=lambda row: " ".join(row["argv"]),
)
def test_sunit_output_bytes_pinned(row, monkeypatch):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    assert _run(row["argv"]) == (row["status"], row["stdout"], row["stderr"])


def _fresh_process(argv, precision):
    env = dict(os.environ)
    env[PRECISION_ENV] = str(precision)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "orbita.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_json_under_changing_precision_matches_fresh_processes(monkeypatch):
    # one process switching ORBITA_PRECISION must print what a fresh process
    # at each precision prints: nothing computed at one precision may leak
    # into the output at another
    cases = [("z^2 - 29/16", "-1/4"), ("(z^2 - 1)/z", "1"), ("z^3", "-1")]
    for expr, point in cases:
        argv = ["orbit", "--map", expr, "--point", point, "--json"]
        fresh = {p: _fresh_process(argv, p) for p in (60, 200)}
        assert fresh[60][0] == 0 and fresh[60][1] != fresh[200][1]
        for precision in (60, 200, 60):
            monkeypatch.setenv(PRECISION_ENV, str(precision))
            assert _run(argv) == fresh[precision], (expr, precision)
        doc = json.loads(fresh[200][1])
        assert len(doc["bounds"]["ln_c_s"]) > 100
