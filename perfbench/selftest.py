"""Quick self-test of the benchmark harness on tiny inputs.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It drives the whole timed and traced path on ``count --max-n 6``,
``enumerate --n 3 --emit histogram`` and ``verify --suite paper-values``,
and shows that a corrupted stdout, a counter that does not repeat and a
package imported from the wrong place are each caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

import run
import workloads
from workloads import TINY_WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Exact counters of the tiny traced run at the seed commit.
TINY_COUNTERS = {
    "counting.states_expanded": 44,
    "counting.edges_built": 166,
    "counting.peak_live_states": 26,
    "counting.edges_traversed": 435,
    "counting.max_count_bits": 18,
    "games.games": 76,
    "games.states_expanded": 12,
    "verify.checks": 8,
    "verify.checks_failed": 0,
}


def _scratch() -> tempfile.TemporaryDirectory:
    (HERE / "out").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=HERE / "out")


def _corrupt(result: dict) -> dict:
    if "stdout" in result:
        result["stdout"] = result["stdout"].replace("772", "773")
    return result


class HarnessSelfTest(unittest.TestCase):
    def test_untraced_runs_report_every_end_to_end_metric(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in TINY_WORKLOADS:
            with self.subTest(workload=workload.name):
                report = run.run(TINY_WORKLOADS, workload.name, 7, 0.2, traced=False)
                result = report["result"]
                self.assertTrue(result["correct"], report["problems"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                self.assertTrue(report["module"].startswith(str(HERE.parent / "src")))

    def test_traced_run_reports_layers_and_checks_repeats(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        with _scratch() as tmp, mock.patch.object(run, "STATE", Path(tmp) / "counters.json"):
            first = run.run(TINY_WORKLOADS, "count-first-return", 1, 0.2, traced=True)
            self.assertTrue(first["result"]["correct"], first["problems"])
            self.assertEqual(set(first["result"]["metrics"]), names)
            self.assertEqual(
                {k: first["metrics"][k] for k in TINY_COUNTERS}, TINY_COUNTERS
            )
            self.assertEqual(len(first["steps"]), 12)

            second = run.run(TINY_WORKLOADS, "verify-all", 2, 0.2, traced=True)
            self.assertTrue(second["result"]["correct"], second["problems"])

            state = json.loads(run.STATE.read_text())
            (key,) = state
            state[key]["games.games"] += 1
            run.STATE.write_text(json.dumps(state))
            third = run.run(TINY_WORKLOADS, "oracle-histogram", 3, 0.2, traced=True)
            self.assertFalse(third["result"]["correct"])
            self.assertTrue(any("games.games" in p for p in third["problems"]))

    def test_corrupted_stdout_counts_as_failed_operation(self):
        spawn = run.Runner.spawn
        with mock.patch.object(
            run.Runner, "spawn", lambda self, *a: _corrupt(spawn(self, *a))
        ):
            report = run.run(TINY_WORKLOADS, "count-first-return", 5, 0.2, traced=False)
        result = report["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_semantic_checks_do_not_depend_on_the_digest(self):
        for workload, good, bad in (
            (TINY_WORKLOADS[0], "772", "773"),
            (TINY_WORKLOADS[1], "1,2,0,0,2", "1,2,0,0,3"),
            (TINY_WORKLOADS[2], "OK: 0 failed", "FAIL: 1 failed"),
        ):
            proc = subprocess.run(
                [sys.executable, "-E", "-s", str(run.CHILD), str(run.ROOT), "run",
                 *workload.argv],
                capture_output=True, text=True, timeout=120,
            )
            stdout = json.loads(proc.stdout.splitlines()[-1])["stdout"]
            self.assertEqual(workloads.check(workload, 0, stdout), [])
            corrupted = stdout.replace(good, bad)
            self.assertNotEqual(corrupted, stdout)
            repinned = replace(workload, digest=workloads.digest(corrupted))
            with self.subTest(workload=workload.name):
                self.assertEqual(len(workloads.check(workload, 0, corrupted)), 2)
                self.assertEqual(len(workloads.check(repinned, 0, corrupted)), 1)

    def test_package_from_elsewhere_is_refused(self):
        # A checkout whose src/plates_olives hands back the package of another tree.
        real = HERE.parent / "src" / "plates_olives"
        with _scratch() as tmp:
            fake = Path(tmp) / "src" / "plates_olives"
            fake.mkdir(parents=True)
            (fake / "__init__.py").write_text(
                "import importlib.util, sys\n"
                f"spec = importlib.util.spec_from_file_location('plates_olives', "
                f"{str(real / '__init__.py')!r}, submodule_search_locations=[{str(real)!r}])\n"
                "module = importlib.util.module_from_spec(spec)\n"
                "sys.modules['plates_olives'] = module\n"
                "spec.loader.exec_module(module)\n"
            )
            proc = subprocess.run(
                [sys.executable, "-E", "-s", str(run.CHILD), tmp, "setup"],
                capture_output=True, text=True, timeout=120,
            )
        self.assertEqual(proc.returncode, 3)
        self.assertIn("guard", json.loads(proc.stdout.splitlines()[-1]))

    def test_run_without_sources_fails_without_a_result(self):
        with _scratch() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-all",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
