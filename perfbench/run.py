"""Benchmark of the plates-olives CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is a workload of ``BENCHMARK.json``, or ``all`` to run every workload
untraced, one after the other.  Each operation is one
``plates_olives.cli.main`` call in a fresh child interpreter
(``child.py``), and children run one at a time.  No in-process cache
outlives an invocation, as for a user of the CLI.  Children import
``plates_olives`` from ``src/`` of the checkout, and the run fails if it
resolves anywhere else.

``--trace 0`` repeats the workload's command until ``--seconds`` have
passed, with two set-up-only children per operation, and reports the
``end_to_end`` metrics.  ``--trace 1`` runs every workload's command once
with the spans of ``tracing.py`` installed, plus the chosen workload's
command once untraced, and reports the ``per_layer`` metrics.  The seed
only shuffles the order of the children within a round; no output may
depend on it.

Human-readable lines and a JSON report come first.  The last line of
stdout is the result object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
STATE = HERE / "out" / "counters.json"
# Every child must have ended this many seconds into the run.
RUN_LIMIT_S = 170.0
# Counters that must repeat exactly from one traced run of the same source to the next.
EXACT_COUNTERS = (
    "counting.states_expanded",
    "counting.edges_built",
    "counting.peak_live_states",
    "counting.edges_traversed",
    "counting.max_count_bits",
    "games.games",
    "games.states_expanded",
    "verify.checks",
    "verify.checks_failed",
)


class HarnessError(Exception):
    """The run cannot produce a trustworthy result."""


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from ``.git``
    directly so that nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


class Runner:
    """Spawns the child interpreters of one run, one at a time."""

    def __init__(self) -> None:
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.module: str | None = None

    def spawn(self, mode: str, argv: tuple[str, ...] = ()) -> dict:
        """Run one child and return its result, with ``setup`` the seconds
        from spawn to ``import plates_olives`` plus ``cli.build_parser()``."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise HarnessError("run time limit reached")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-E", "-s", str(CHILD), str(ROOT), mode, *argv],
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {timeout:.0f} s"}
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return {"error": f"child exit {proc.returncode}: {proc.stderr[-2000:]}"}
        if proc.returncode == 3:
            raise HarnessError(
                f"plates_olives resolved to {result['guard']}, not {result['expected']}"
            )
        result["setup"] = result["ready"] - start
        self.module = result["module"]
        return result


def judge(workload: Workload, result: dict) -> list[str]:
    """Every reason one operation failed; empty when it succeeded."""
    if "stdout" not in result:
        return [result.get("error") or "no output"]
    problems = workloads.check(workload, result["rc"], result["stdout"])
    if result["error"]:
        problems.append(result["error"])
    return problems


def summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest percentile that leaves at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values), "values": values}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced run: repeat the command until ``seconds`` have passed."""
    runner = Runner()
    rng = random.Random(seed)
    runner.spawn("setup")  # fills the bytecode and file caches; not timed
    start = time.perf_counter()
    ops, setups, problems, failed = [], [], [], 0
    while not ops or time.perf_counter() - start < seconds:
        plan = ["setup", "setup", "run"]
        rng.shuffle(plan)
        for mode in plan:
            result = runner.spawn(mode, workload.argv if mode == "run" else ())
            if "setup" in result:
                setups.append(result["setup"])
            if mode == "run":
                ops.append(result)
                found = judge(workload, result)
                failed += bool(found)
                problems += [f"operation {len(ops)}: {p}" for p in found]
    timed = [r for r in ops if "wall" in r]
    if not timed or not setups:
        raise HarnessError(f"no child completed: {problems[-1]}")
    summaries = {
        "wall_s": summary([r["wall"] for r in timed]),
        "cpu_s": summary([r["cpu"] for r in timed]),
        "setup_s": summary(setups),
        "peak_rss_mb": summary([r["rss_kb"] / 1024 for r in timed]),
    }
    return {
        "workload": workload.name,
        "module": runner.module,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "summaries": summaries,
        "metrics": {name: s["median"] for name, s in summaries.items()},
    }


def _span(trace: dict, name: str, key: str = "total_s") -> float:
    return trace["spans"].get(name, {}).get(key, 0)


def layer_metrics(layer: str, trace: dict, stdout: str) -> dict:
    """The per-layer metrics of ``layer`` from one traced operation."""
    if layer == "counting":
        advance = _span(trace, "counting.advance")
        legal = _span(trace, "counting.legal_moves")
        expanded = _span(trace, "counting.legal_moves", "calls")
        counters = trace["counters"]
        return {
            "counting.advance_s": advance,
            "counting.legal_moves_s": legal,
            "counting.advance_self_s": advance - legal,
            "counting.states_expanded": expanded,
            "counting.edges_built": counters["edges_built"],
            "counting.peak_live_states": counters["peak_live_states"],
            "counting.edges_traversed": counters["edges_traversed"],
            "counting.legal_moves_us_per_state": 1e6 * legal / max(expanded, 1),
            "counting.advance_self_ns_per_edge": 1e9 * (advance - legal)
            / max(counters["edges_traversed"], 1),
            "counting.max_count_bits": counters["max_count_bits"],
        }
    if layer == "games":
        histogram = _span(trace, "games.stats_histogram")
        games = _span(trace, "games.game_stats", "calls")
        return {
            "games.histogram_s": histogram,
            "games.game_stats_s": _span(trace, "games.game_stats"),
            "games.legal_moves_s": _span(trace, "games.legal_moves"),
            "games.dfs_self_s": _span(trace, "games.stats_histogram", "self_s"),
            "games.enumerate_s": trace.get("enumerate_s", 0.0),
            "games.games": games,
            "games.states_expanded": _span(trace, "games.legal_moves", "calls"),
            "games.us_per_game": 1e6 * histogram / max(games, 1),
        }
    checks = [line for line in stdout.splitlines() if line.startswith(("PASS [", "FAIL ["))]
    metrics = {
        f"verify.{suite}_s": _span(trace, f"verify.{suite}")
        for suite in ("paper-values", "identities", "oracle", "bounds", "claims")
    }
    metrics.update({
        "verify.counting_s": _span(trace, "counting.count"),
        "verify.checks": len(checks),
        "verify.checks_failed": sum(1 for c in checks if c.startswith("FAIL")),
    })
    return metrics


def check_repeat(key: str, counters: dict) -> list[str]:
    """Compare exact counters with the first traced run of the same source
    and inputs, which this records."""
    try:
        state = json.loads(STATE.read_text())
    except (OSError, ValueError):
        state = {}
    previous = state.get(key)
    if previous is None:
        state[key] = counters
        STATE.parent.mkdir(exist_ok=True)
        tmp = STATE.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, STATE)
        return []
    return [
        f"{name} is {counters[name]}, an earlier traced run had {previous.get(name)}"
        for name in counters
        if previous.get(name) != counters[name]
    ]


def trace(suite: tuple[Workload, ...], workload: Workload, seed: int) -> dict:
    """Traced run: every workload's command once with spans, plus the chosen
    workload's command once without them, for the tracing overhead.  That
    pair runs back to back, so slow spells of the machine touch both alike."""
    runner = Runner()
    rng = random.Random(seed)
    runner.spawn("setup")
    pair = [("trace", workload), ("run", workload)]
    rng.shuffle(pair)
    blocks = [[("trace", w)] for w in suite if w is not workload] + [pair]
    rng.shuffle(blocks)
    plan = [step for block in blocks for step in block]
    results, problems, failed = {}, [], 0
    for mode, w in plan:
        result = runner.spawn(mode, w.argv)
        if "stdout" not in result:
            raise HarnessError(f"{mode} {w.name}: {result['error']}")
        results[mode, w.name] = result
        found = judge(w, result)
        failed += bool(found)
        problems += [f"{mode} {w.name}: {p}" for p in found]
    metrics: dict = {}
    for w in suite:
        traced = results["trace", w.name]
        metrics.update(layer_metrics(w.layer, traced["trace"], traced["stdout"]))
    traced, plain = results["trace", workload.name], results["run", workload.name]
    if traced["stdout"] != plain["stdout"]:
        problems.append("traced and untraced stdout differ")
    metrics["cli.self_s"] = _span(traced["trace"], "cli.main", "self_s")
    metrics["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1
    key = _source_digest() + " " + " | ".join(" ".join(w.argv) for w in suite)
    problems += check_repeat(key, {k: metrics[k] for k in EXACT_COUNTERS})
    counting = next(w for w in suite if w.layer == "counting")
    return {
        "workload": workload.name,
        "module": runner.module,
        "attempted": len(plan),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "steps": results["trace", counting.name]["trace"]["steps"],
    }


def run(suite: tuple[Workload, ...], name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; the report's ``result`` is the final line's object."""
    if not (ROOT / "src" / "plates_olives" / "__init__.py").is_file():
        raise HarnessError(f"no plates_olives package under {ROOT / 'src'}")
    spec = _spec()
    declared = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workload = next(w for w in suite if w.name == name)
    environment = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }
    body = trace(suite, workload, seed) if traced else measure(workload, seed, seconds)
    if set(body["metrics"]) != set(units):
        raise HarnessError(f"measured {sorted(body['metrics'])}, declared {sorted(units)}")
    environment["loadavg_end"] = _loadavg()
    body.update(environment, seed=seed, commit=_git_commit(), source_sha256=_source_digest())
    body["result"] = {
        "correct": not body["problems"],
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {
            name: {"value": body["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return body


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  (plates_olives from {report['module']})")
    for name, metric in report["result"]["metrics"].items():
        samples = report.get("summaries", {}).get(name, {}).get("samples")
        extra = f"  (median of {samples})" if samples else ""
        value = metric["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<36} {shown} {metric['unit']}{extra}")
    print(f"  {'error_rate':<36} {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} operations failed)")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    if report.get("steps"):
        print("  step    live     new     edges  legal_moves_s    self_s  max_bits")
        for step, live, new, edges, legal, own, bits in report["steps"]:
            print(f"  {step:4d} {live:7d} {new:7d} {edges:9d} {legal:14.6f} {own:9.6f} {bits:9d}")


def main(argv: list[str] | None = None) -> int:
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced only")
    try:
        seconds = _spec()["run_seconds"] if args.seconds is None else args.seconds
        reports = [
            run(WORKLOADS, name, args.seed, seconds, bool(args.trace))
            for name in (names if args.workload == "all" else [args.workload])
        ]
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        _print_report(report)
        print(json.dumps({k: v for k, v in report.items() if k not in ("result", "steps")}))
    results = [r["result"] for r in reports]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{report['workload']}.{name}": metric
                for report in reports
                for name, metric in report["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
