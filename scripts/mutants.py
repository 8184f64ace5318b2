"""Check that the tests still kill a list of seeded mutants.

Usage, from anywhere::

    python3 scripts/mutants.py

Each mutant is one or more exact edits to the package, each of whose old
text must occur exactly once in its file, and a pytest selection, one or
more space-separated test ids, that should fail on the mutated code.  For
each mutant the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` to a temporary directory, applies the edits there, checks
that the copy's ``plates_olives`` is the one Python imports, and runs
``python -m pytest -q -x -p no:cacheprovider SELECTION`` in the copy.
Only pytest's exit status 1 (tests failed) counts as killed.

One JSON line is printed per mutant.  The script exits 1 if any mutant
survives, any edit does not apply, or pytest ends any other way.  The
checkout itself is never written.  Only the standard library is used.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tests/test_golden.py reads the README's examples
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PACKAGE = Path("src", "plates_olives")
PYTEST = ("-q", "-x", "-p", "no:cacheprovider")
COUNTING = "src/plates_olives/counting.py"
PARTITIONS = "src/plates_olives/partitions.py"
GAMES = "src/plates_olives/games.py"
REFERENCES = "src/plates_olives/references.py"
VERIFY = "src/plates_olives/verify.py"
VERIFY_TESTS = "tests/test_cli.py::TestVerifyCommand::"


class Mutant(NamedTuple):
    name: str
    selection: str  # space-separated test ids
    edits: tuple[tuple[str, str, str], ...]  # (file, old text, new text)


MUTANTS = (
    Mutant(
        "kernel-keeps-empty-slot",
        "tests/test_counting.py::TestWalkCounter",
        ((COUNTING, "nxt[empty] = 0", "pass"),),
    ),
    Mutant(
        "kernel-budget-check-inclusive",
        "tests/test_counting.py::TestGameCounts",
        ((COUNTING, "max_states) > max_states:", "max_states) >= max_states:"),),
    ),
    Mutant(
        "kernel-field-one-bit-narrow",
        "tests/test_counting.py::TestWalkCounter",
        ((COUNTING, "width = self.max_weight.bit", "width = (self.max_weight - 1).bit"),),
    ),
    # the counts are unchanged: only a caller holding the old layer sees this
    Mutant(
        "layer-cleared-in-place",
        "tests/test_counting.py::TestWalkCounter",
        ((COUNTING, "self.layer = {}", "self.layer.clear()"),),
    ),
    Mutant(
        "kernel-skips-heavier-below-cap",
        "tests/test_counting.py::TestWalkCounter",
        ((COUNTING, "weight < self.max_weight", "weight < self.max_weight - 1"),),
    ),
    Mutant(
        "grammar-always-allows-merges",
        "tests/test_partitions.py::TestLegalMoves",
        ((PARTITIONS, "_candidates(held, allow_complex)", "_candidates(held, True)"),),
    ),
    Mutant(
        "grammar-candidates-unsorted",
        "tests/test_partitions.py::TestLegalMoves",
        ((PARTITIONS, "tuple(sorted(moves, key=Move.token))", "tuple(moves)"),),
    ),
    Mutant(
        "grammar-checks-a-doubled-pair-once",
        "tests/test_partitions.py::TestLegalMoves",
        ((PARTITIONS, "if part not in rest:", "if part not in parts:"),),
    ),
    Mutant(
        "walk-tail-loses-end-key",
        "tests/test_games.py::TestClosedWalks",
        ((GAMES, "return [((), key)]", "return [((), None)]"),),
    ),
    Mutant(
        "walk-tails-reversed",
        "tests/test_games.py::TestClosedWalks",
        ((GAMES, "left - 1)\n        ]", "left - 1)\n        ][::-1]"),),
    ),
    # the same walks come out, each node's entries in reverse
    Mutant(
        "walk-children-in-order",
        "tests/test_games.py::TestEnumerate",
        ((GAMES, "reversed(node(key", "(node(key"),),
    ),
    Mutant(
        "games-empty-the-table-early",
        "tests/test_games.py::TestClosedWalks",
        ((GAMES, "(w or young or left == 1)", "(w or young)"),),
    ),
    Mutant(
        "nodes-keyed-by-successor",
        "tests/test_games.py::TestClosedWalks",
        ((GAMES, "move, nxt.parts)", "move, nxt)"),),
    ),
    # the walk's output is unchanged: only the node-key contract sees this
    Mutant(
        "nodes-keyed-by-partition",
        "tests/test_games.py::TestClosedWalks",
        (
            (GAMES, "move, nxt.parts)", "move, nxt)"),
            (GAMES, "legal_moves(Partition(parts),", "legal_moves(parts,"),
            (GAMES, "start: Hashable = EMPTY.parts,", "start: Hashable = EMPTY,"),
            (GAMES, "start = ((), (0,", "start = (EMPTY, (0,"),
        ),
    ),
    Mutant(
        "game-stats-counts-closing-ps",
        "tests/test_games.py",
        ((GAMES, "tally = [0, 0, -1, 0]", "tally = [0, 0, 0, 0]"),),
    ),
    Mutant(
        "tally-columns-swapped",
        "tests/test_games.py",
        (
            (
                GAMES,
                "OLIVE_ADD_FIRST,\n        MoveKind.OLIVE_ADD_LATER,",
                "OLIVE_ADD_LATER,\n        MoveKind.OLIVE_ADD_FIRST,",
            ),
        ),
    ),
    # the same paths come out, down-steps first
    Mutant(
        "dyck-down-step-first",
        "tests/test_counting.py::TestWeightedDyckSum"
        " tests/test_golden.py::test_dyck_path_order",
        (
            (
                REFERENCES,
                "if h:\n                stack.append((prefix + (-1,), h - 1))\n"
                "            stack.append((prefix + (1,), h + 1))",
                "stack.append((prefix + (1,), h + 1))\n"
                "            if h:\n                stack.append((prefix + (-1,), h - 1))",
            ),
        ),
    ),
    Mutant(
        "claims-tally-allows-extra-merges",
        VERIFY_TESTS + "test_more_merges_than_first_olives_fails_tallies",
        ((VERIFY, " or p_c > v_f)", ")"),),
    ),
    Mutant(
        "claims-dyck-allows-a-dip",
        VERIFY_TESTS + "test_olive_projection_that_is_no_dyck_path_fails",
        ((VERIFY, "(low < 0 or height", "(height"),),
    ),
    Mutant(
        "claims-caps-always-pass",
        VERIFY_TESTS + "test_cap_one_short_fails_only_the_capped_checks",
        ((VERIFY, '"move-capacity-caps", cap_ok,', '"move-capacity-caps", True,'),),
    ),
    Mutant(
        "claims-distinct-sizes-always-pass",
        VERIFY_TESTS + "test_cap_one_short_fails_only_the_capped_checks",
        ((VERIFY, '-capped", distinct_ok,', '-capped", True,'),),
    ),
    Mutant(
        "claims-graph-always-simple",
        VERIFY_TESTS + "test_two_moves_to_one_state_fail_only_simplicity",
        ((VERIFY, "len(successors) == len(set(successors))", "True"),),
    ),
    Mutant(
        "bounds-ratio-always-decreasing",
        VERIFY_TESTS + "test_rising_ratio_fails_only_monotonicity",
        ((VERIFY, "not any(row.monotone_violation for row in table)", "True"),),
    ),
    Mutant(
        "bounds-closed-always-dominates",
        VERIFY_TESTS + "test_closed_count_below_games_fails_only_dominance",
        ((VERIFY, "all(closed[n] >= counts[n] for n in range(9))", "True"),),
    ),
    Mutant(
        "bounds-lower-bound-always-holds",
        VERIFY_TESTS + "test_count_below_double_factorial_fails_the_bound",
        (
            (
                VERIFY,
                "all(counts[n] >= references.double_factorial(2 * n - 1)"
                " for n in range(1, 19))",
                "True",
            ),
        ),
    ),
)


def _apply(copy: Path, edits: tuple[tuple[str, str, str], ...]) -> str | None:
    """Apply ``edits`` in ``copy``; the reason one does not apply, or None."""
    for name, old, new in edits:
        path = copy / name
        text = path.read_text()
        if (found := text.count(old)) != 1:
            return f"{name}: old text found {found} times, not once"
        path.write_text(text.replace(old, new))
    return None


def _run(mutant: Mutant) -> dict:
    result = {"mutant": mutant.name, "selection": mutant.selection}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        if reason := _apply(copy, mutant.edits):
            return result | {"result": "not applied", "reason": reason}
        env = os.environ | {"PYTHONPATH": str(copy / "src")}

        def python(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, *argv], cwd=copy, env=env, capture_output=True, text=True
            )

        # pytest imports the package the way this probe does: from the copy
        probe = "import os, plates_olives as p; print(os.path.realpath(p.__file__))"
        found = python("-c", probe).stdout.strip()
        if os.path.dirname(found) != os.path.realpath(copy / PACKAGE):
            return result | {"result": "wrong package", "found": found}
        start = time.perf_counter()
        proc = python("-m", "pytest", *PYTEST, *mutant.selection.split())
    lines = proc.stdout.strip().splitlines()
    return result | {
        "result": {1: "killed", 0: "survived"}.get(proc.returncode, "error"),
        "status": proc.returncode,
        "failed": [line.split()[1] for line in lines if line.startswith("FAILED ")],
        "summary": lines[-1] if lines else proc.stderr.strip(),
        "seconds": round(time.perf_counter() - start, 2),
    }


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        result = _run(mutant)
        print(json.dumps(result), flush=True)
        failed += result["result"] != "killed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
