"""One child process of a benchmark run.

It imports ``orbita`` from ``src/``, draws its ops, runs one untimed cycle
of every op kind, then runs whole cycles of ops in a closed loop with one
client until ``--seconds`` have passed: each op is one in-process call of
``orbita.cli.main(argv)`` with stdout and stderr captured, started when the
previous one has returned. Outputs are checked
after the loop, so checking costs no timed wall time. The result is one JSON
line on stdout; ``run.py`` starts this script and merges the lines.

With ``--trace 1`` the loop runs a fixed list of ops three times: untraced,
under ``layertrace.Tracer``, and untraced again, and reports per-layer
numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# an op that outlives this is stopped and counted as failed
DEADLINE_S = 10.0
# ops of the traced run: whole cycles, about 2-3 s untraced on a 2-core x86 box
TRACE_OPS = {"certify": 98, "suites": 24, "scan": 274}


class Deadline(BaseException):
    """Raised in the op by SIGALRM; a BaseException so no handler in the program stops it."""


def _alarm(signum, frame):
    raise Deadline()


def run_op(main, op, deadline: float = DEADLINE_S) -> tuple[int | None, str, str, float]:
    """(exit status or None if it raised or hit the deadline, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k, _ in op.env}
    os.environ.update(op.env)
    rc = None
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except Deadline:
        err.write(f"benchmark: deadline of {deadline} s hit\n")
    except Exception as exc:  # the op failed; the loop goes on
        err.write(f"benchmark: op raised {type(exc).__name__}: {exc}\n")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, out.getvalue(), err.getvalue(), seconds


def failure(check, op, rc, out, err) -> str | None:
    """Why the op failed, or None when it exited 0 and its output passed the check."""
    if rc is None:
        return err.strip().splitlines()[-1] if err.strip() else "op raised"
    try:
        return check(op, rc, out, err)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _run_all(main, ops, tracer=None, deep_kind=None):
    """Run ops back to back; returns (records, wall seconds, resultant share of deep ops)."""
    records = []
    deep_s = deep_resultant_s = 0.0
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
            before = tracer.self_s("forms.resultant")
        records.append((op,) + run_op(main, op))
        if tracer is not None and op.kind == deep_kind:
            deep_s += records[-1][-1]
            deep_resultant_s += tracer.self_s("forms.resultant") - before
    wall = time.perf_counter() - t0
    return records, wall, (deep_resultant_s / deep_s if deep_s else 0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0, help="which child of the run this is")
    ap.add_argument("--parts", type=int, default=1, help="how many children the run has")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this child")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "orbita" / "__init__.py").is_file():
        print(f"worker: no orbita sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from orbita import cli

    import workloads

    cycle = workloads.CYCLE_LENGTH[args.workload]
    stream = workloads.STREAMS[args.workload](args.seed, args.part, args.parts)
    # the first draw loads the tables: input generation belongs to set-up
    stream = itertools.chain([next(stream) for _ in range(cycle)], stream)
    check = workloads.CHECKS[args.workload]
    fixed = workloads.STREAMS[args.workload](0, 0, 1)
    warm, _, _ = _run_all(cli.main, [next(fixed) for _ in range(cycle)])
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s}
    tracer = None
    if args.trace:
        import layertrace

        ops = [next(stream) for _ in range(TRACE_OPS[args.workload])]
        # untraced, traced, untraced: the overhead is judged against the mean
        # of the untraced passes on either side, so slow drift cancels
        before, wall0, _ = _run_all(cli.main, ops)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced, wall1, deep_share = _run_all(cli.main, ops, tracer, "certify.deep")
        finally:
            tracer.uninstall()
        after, wall2, _ = _run_all(cli.main, ops)
        timed = before + traced + after
        around_ops = {
            "forms.resultant.deep_op_share": deep_share,
            "traced_op_s": sum(r[-1] for r in traced),
            "trace_overhead_ratio": wall1 / ((wall0 + wall2) / 2) - 1,
        }
        wall = wall0 + wall1 + wall2
    else:
        # whole cycles only, so every run has the same mix of op kinds
        timed = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds or len(timed) % cycle:
            op = next(stream)
            timed.append((op,) + run_op(cli.main, op))
        wall = time.perf_counter() - t0

    failures = []
    for i, (op, rc, out, err, _) in enumerate(warm + timed):
        reason = failure(check, op, rc, out, err)
        if reason is not None:
            failures.append({"timed": i >= len(warm), "kind": op.kind,
                             "argv": list(op.argv), "reason": reason})
    attempted = len(warm) + len(timed)
    if tracer is not None:
        around_ops["op_fail_ratio"] = len(failures) / attempted
        result["layers"] = tracer.metrics(around_ops)
    latencies = [r[-1] * 1000.0 for r in timed]
    result.update({
        "attempted": attempted,
        "timed": len(timed),
        "wall_s": wall,
        "latencies_ms": latencies,
        "kinds": [r[0].kind for r in timed],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
