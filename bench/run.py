"""orbita benchmark: run one workload for one seed and print every metric by name and unit.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Workloads: certify, suites, scan (see README.md beside this file). The run
starts its child processes (worker.py) one after another; each imports
orbita from src/ afresh. With --trace 0 there are CHILDREN of them, each
measuring seconds / CHILDREN, and the end-to-end metrics are printed; with
--trace 1 one child prints the per-layer metrics. The last line of stdout is
the result; the line before it holds the provenance and sample counts.
Exit status 0 means a result was printed; 1 or 2 mean none was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("certify", "suites", "scan")
# untraced runs set up this many children, so setup_s is a median of five
CHILDREN = 5
# every child has ended by then, so the run ends inside 180 s
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _git_rev() -> str:
    """HEAD of the checkout from .git, read as files; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    """Digest of src/ (paths and contents), which names the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _mpmath_version() -> str:
    from importlib import metadata

    try:
        return metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        return "unknown"


def provenance(seed: int | None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": _mpmath_version(),
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        # the 1, 5 and 15 minute figures of /proc/loadavg
        "loadavg": [f"{x:.2f}" for x in os.getloadavg()],
    }


def _run_children(args, children: int) -> list[dict] | None:
    results = []
    started = time.monotonic()
    for part in range(children):
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        t0 = time.monotonic()
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--part", str(part), "--parts", str(children),
               "--seconds", repr(args.seconds / children), "--trace", str(args.trace),
               "--t0", repr(t0)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            # subprocess.run has killed the child and waited for it
            print(f"run: child {part} passed the run budget", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"run: child {part} exited {proc.returncode}", file=sys.stderr)
            return None
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def summarize(results: list[dict], trace: int) -> tuple[dict, dict]:
    """(result line, detail line) from the children's lines."""
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    timed_failed = sum(1 for f in failures if f["timed"])
    timed = sum(r["timed"] for r in results)
    latencies = [x for r in results for x in r["latencies_ms"]]
    p90 = statistics.quantiles(latencies, n=10)[8]
    by_kind: dict[str, list[float]] = {}
    for r in results:
        for kind, x in zip(r["kinds"], r["latencies_ms"]):
            by_kind.setdefault(kind, []).append(x)
    detail = {
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "children": len(results),
        "kinds": {k: {"ops": len(v), "p50_ms": round(statistics.median(v), 3)}
                  for k, v in sorted(by_kind.items())},
        "failures": failures[:10],
    }
    if trace:
        values = results[0]["layers"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in layertrace.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "ops_per_s": (timed - timed_failed) / sum(r["wall_s"] for r in results),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
    return line, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbita" / "__init__.py").is_file():
        print(f"run: no orbita sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    results = _run_children(args, 1 if args.trace else CHILDREN)
    if results is None:
        return 1
    line, detail = summarize(results, args.trace)
    for f in detail["failures"]:
        print(f"run: failed {f['kind']}: {f['reason']}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "workload": args.workload, "trace": args.trace,
                      **detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
