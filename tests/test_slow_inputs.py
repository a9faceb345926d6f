"""Latency gate: each input of tests/data/slow_inputs.txt ends in its exit status within its cap.

Each line runs in-process through `cli.main`. A time cap is about ten times
the input's target, so the gate holds on a noisy machine yet still catches
an input that goes back to running for minutes. An error exit must leave
stdout empty, and a budget exit (3) must name what it used against what it
allowed.
"""

import io
import re
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from orbita import cli
from orbita.bounds import PRECISION_ENV

SLOW_INPUTS = Path(__file__).parent / "data" / "slow_inputs.txt"
BUDGET_EXIT = re.compile(r"orbita: error: budget exhausted: \w[\w ]* \d+ exceeds budget \d+\n")


def _rows():
    rows = []
    for line in SLOW_INPUTS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            status, cap, env, argv = line.split("\t")
            rows.append(pytest.param(int(status), float(cap), env, shlex.split(argv), id=argv))
    return rows


@pytest.mark.parametrize(("status", "cap", "env", "argv"), _rows())
def test_input_ends_in_its_status_within_its_cap(monkeypatch, status, cap, env, argv):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    if env != "-":
        name, _, value = env.partition("=")
        monkeypatch.setenv(name, value)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code == status, err.getvalue()
    assert elapsed <= cap
    if status != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("orbita: error: ")
    if status == 3:
        assert BUDGET_EXIT.fullmatch(err.getvalue()), err.getvalue()
