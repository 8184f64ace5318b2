"""Write one snapshot of the benchmark and of tier-1 to ``BENCH_<sha>.json``.

Usage, from the root of a checkout::

    python3 scripts/bench_snapshot.py

The harness runs unchanged, as a subprocess, once per workload of
``BENCHMARK.json`` with ``--trace 0`` (for its ``run_seconds`` each), then
once with ``--workload count-first-return --trace 1``.  Each run's JSON
report, the second-to-last line of its stdout, is kept whole, every
sample behind each median included.  One ``count --max-n 40`` then runs
in a fresh interpreter through ``perfbench/child.py``, unchanged, for its
wall time, its peak RSS, that RSS per interned state, and the SHA-256 of
its stdout checked against the digest CI pins.  Tier-1 then runs with
``--durations=10``.  A run takes about four minutes.

``<sha>`` is the first 12 hex digits of the reports' ``source_sha256``,
the digest of ``src/`` that the harness measures, so a change measured
before it is committed gets a name of its own.  The file also records
the commit checked out and whether ``src/`` differs from it.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "run.py"
CHILD = ROOT / "perfbench" / "child.py"
TRACED_WORKLOAD = "count-first-return"
# CI's "Count through n = 40" step pins this stdout; the walk interns the
# partitions of weight <= 41
COUNT_40 = ["count", "--max-n", "40"]
COUNT_40_SHA256 = "ac1699ab83ac5ea735d21860b2e77b6caeb5fe4d8f518a1731ae75ddc4ecffdb"
COUNT_40_STATES = 259_891
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
# pytest's --durations lines: "18.72s call     tests/test_cli.py::TestEnumerate::test_x"
DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown) +(\S.*)$")


def _harness(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HARNESS), *argv], cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode:
        sys.exit(f"perfbench/run.py {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-2])
    # the harness has checked that the package resolved under this checkout
    report["module"] = os.path.relpath(report["module"], ROOT)
    return report


def _count_40() -> dict:
    proc = subprocess.run(
        [sys.executable, "-E", "-s", str(CHILD), str(ROOT), "run", *COUNT_40],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"perfbench/child.py exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
    return {
        "command": COUNT_40,
        "rc": result["rc"],
        "wall_s": result["wall"],
        "peak_rss_mb": result["rss_kb"] / 1024,
        "bytes_per_state": result["rss_kb"] * 1024 / COUNT_40_STATES,
        "stdout_sha256": digest,
        "stdout_matches_ci": digest == COUNT_40_SHA256,
    }


def _git(*argv: str) -> str | None:
    try:
        proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    durations = [
        {"seconds": float(m[1]), "phase": m[2], "test": m[3]}
        for m in map(DURATION.match, lines)
        if m
    ]
    return {
        "command": ["python", *TIER1],
        "returncode": proc.returncode,
        "summary": lines[-1] if lines else "",
        "wall_s": wall,
        "durations": durations,
    }


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = {}
    for name in (workload["name"] for workload in spec["workloads"]):
        print(f"untraced {name} ...", file=sys.stderr)
        untraced[name] = _harness("--workload", name, "--trace", "0")
    print(f"traced {TRACED_WORKLOAD} ...", file=sys.stderr)
    traced = _harness("--workload", TRACED_WORKLOAD, "--trace", "1")
    print(f"{' '.join(COUNT_40)} ...", file=sys.stderr)
    count_40 = _count_40()
    print("tier-1 ...", file=sys.stderr)
    tier1 = _tier1()
    source = traced["source_sha256"]
    if any(report["source_sha256"] != source for report in untraced.values()):
        sys.exit("src/ changed while the snapshot ran")
    status = _git("status", "--porcelain", "--", "src")
    snapshot = {
        "source_sha256": source,
        "commit": _git("rev-parse", "HEAD"),
        "src_differs_from_commit": None if status is None else status != "",
        "untraced": untraced,
        "traced": traced,
        "count_40": count_40,
        "tier1": tier1,
    }
    out = ROOT / f"BENCH_{source[:12]}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(out)
    if not count_40["stdout_matches_ci"]:
        print(f"count --max-n 40 stdout hashes to {count_40['stdout_sha256']}", file=sys.stderr)
    return 0 if tier1["returncode"] == 0 and count_40["stdout_matches_ci"] else 1


if __name__ == "__main__":
    sys.exit(main())
