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
CLI = "src/plates_olives/cli.py"
# one row of the verify fault table, or of the cache-case table, by its id
FAULT_ROW = "tests/test_cli.py::TestVerifyCommand::test_fault_fails_named_checks[{}]"
CACHE_ROW = "tests/test_cli.py::TestCache::test_cache_case[{}]"


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
        FAULT_ROW.format("claims-more-merges-than-first-olives"),
        ((VERIFY, " or p_c > v_f)", ")"),),
    ),
    Mutant(
        "claims-dyck-allows-a-dip",
        FAULT_ROW.format("claims-dip-with-two-up-steps"),
        ((VERIFY, "(low < 0 or height", "(height"),),
    ),
    Mutant(
        "claims-caps-always-pass",
        FAULT_ROW.format("claims-cap-one-short"),
        ((VERIFY, '"move-capacity-caps", cap_ok,', '"move-capacity-caps", True,'),),
    ),
    Mutant(
        "claims-distinct-sizes-always-pass",
        FAULT_ROW.format("claims-cap-one-short"),
        ((VERIFY, '-capped", distinct_ok,', '-capped", True,'),),
    ),
    Mutant(
        "claims-graph-always-simple",
        FAULT_ROW.format("claims-two-moves-to-one-state"),
        ((VERIFY, "len(successors) == len(set(successors))", "True"),),
    ),
    Mutant(
        "bounds-ratio-always-decreasing",
        FAULT_ROW.format("bounds-m18-doubled"),
        ((VERIFY, "not any(row.monotone_violation for row in table)", "True"),),
    ),
    Mutant(
        "bounds-closed-always-dominates",
        FAULT_ROW.format("bounds-closed-row-4-below-m4"),
        ((VERIFY, "all(closed[n] >= counts[n] for n in range(9))", "True"),),
    ),
    Mutant(
        "bounds-lower-bound-always-holds",
        FAULT_ROW.format("bounds-m5-below-double-factorial"),
        (
            (
                VERIFY,
                "all(counts[n] >= references.double_factorial(2 * n - 1)"
                " for n in range(1, 19))",
                "True",
            ),
        ),
    ),
    Mutant(
        "paper-game-counts-always-pass",
        FAULT_ROW.format("paper-m3-one-high"),
        ((VERIFY, "got == GOLDEN_GAME_COUNTS", "True"),),
    ),
    Mutant(
        "paper-closed-2-3-always-pass",
        FAULT_ROW.format("paper-closed-row-2-one-low"),
        ((VERIFY, "with_merges[2:4] == QUOTED_CLOSED_TRIPLE[:2]", "True"),),
    ),
    Mutant(
        "paper-n4-discrepancy-always-pass",
        FAULT_ROW.format("paper-young-row-5-one-high"),
        (
            (
                VERIFY,
                "with_merges == CLOSED_WITH_MERGES\n"
                "        and without == CLOSED_WITHOUT_MERGES\n"
                "        and QUOTED_CLOSED_TRIPLE[2] not in (with_merges[4], without[4])",
                "True",
            ),
        ),
    ),
    Mutant(
        "paper-renewal-always-pass",
        FAULT_ROW.format("paper-m3-one-high"),
        ((VERIFY, "renewal == with_merges", "True"),),
    ),
    Mutant(
        "paper-tangent-always-pass",
        FAULT_ROW.format("paper-tangent-one-high"),
        ((VERIFY, "tangent == TANGENT_TABLE", "True"),),
    ),
    Mutant(
        "paper-geometric-always-pass",
        FAULT_ROW.format("paper-geometric-one-low"),
        (
            (
                VERIFY,
                "references.GEOMETRIC_CLASS_COUNTS\n"
                "        == ((0, 1), (1, 2), (2, 19), (3, 428), (4, 17746))",
                "True",
            ),
        ),
    ),
    Mutant(
        "paper-catalan-always-pass",
        FAULT_ROW.format("paper-catalan-one-high"),
        ((VERIFY, "cats == CATALAN_TABLE", "True"),),
    ),
    Mutant(
        "paper-ratio-at-18-always-pass",
        FAULT_ROW.format("paper-m18-doubled"),
        ((VERIFY, "abs(r18 - RATIO_AT_18) < RATIO_TOLERANCE", "True"),),
    ),
    Mutant(
        "identities-brute-always-pass",
        FAULT_ROW.format("identities-brute-one-high-at-5"),
        (
            (
                VERIFY,
                "all(brute[v] == double_factorial(2 * v - 1) for v in range(13))",
                "True",
            ),
        ),
    ),
    Mutant(
        "identities-dp-always-pass",
        FAULT_ROW.format("identities-dp-one-high-at-150"),
        ((VERIFY, "all(dp[v] == double_factorial(2 * v - 1) for v in range(201))", "True"),),
    ),
    Mutant(
        "identities-brute-vs-dp-always-pass",
        FAULT_ROW.format("identities-brute-one-high-at-5"),
        ((VERIFY, "brute == dp[:13]", "True"),),
    ),
    Mutant(
        "identities-young-always-pass",
        FAULT_ROW.format("identities-young-row-5-one-high"),
        (
            (
                VERIFY,
                "all(young[n] == double_factorial(2 * n - 1) for n in range(11))",
                "True",
            ),
        ),
    ),
    Mutant(
        "identities-proper-dyck-always-pass",
        FAULT_ROW.format("identities-proper-dyck-one-high"),
        (
            (
                VERIFY,
                "references.count_proper_dyck_paths(n) == references.catalan(n)",
                "True",
            ),
        ),
    ),
    Mutant(
        "identities-zigzag-always-pass",
        FAULT_ROW.format("identities-zigzag-one-high"),
        (
            (
                VERIFY,
                "references.count_zigzag_permutations(2 * n + 2) == references.tangent_numbers(n)",
                "True",
            ),
        ),
    ),
    Mutant(
        "identities-recurrence-always-pass",
        FAULT_ROW.format("identities-double-factorial-one-high-at-30"),
        ((VERIFY, "double_factorial(m) == m * double_factorial(m - 2)", "True"),),
    ),
    Mutant(
        "claims-profile-always-matches",
        FAULT_ROW.format("claims-profile-one-merge-too-many"),
        (
            (
                VERIFY,
                "kinds.count(kind) == n for kind, n in profile.items()",
                "True for kind, n in profile.items()",
            ),
        ),
    ),
    Mutant(
        "bounds-bound-table-always-builds",
        FAULT_ROW.format("bounds-bound-table-refuses"),
        (
            (
                VERIFY,
                '_check(out, "bound-table-builds", False, str(exc))',
                '_check(out, "bound-table-builds", True, str(exc))',
            ),
        ),
    ),
    Mutant(
        "cache-keeps-unknown-value",
        CACHE_ROW.format("first-return-3-is-0"),
        ((CLI, "None if count == known[n] else", "None if True else"),),
    ),
    Mutant(
        "cache-keeps-young-off-double-factorial",
        CACHE_ROW.format("young-6-is-10396"),
        ((CLI, 'return None if count == floor else f"{count} is not (2n-1)!!"', "return None"),),
    ),
    Mutant(
        "cache-keeps-count-below-bound",
        CACHE_ROW.format("first-return-6-is-10394"),
        ((CLI, "if floor is None or count < floor:", "if False:"),),
    ),
    Mutant(
        "cache-keeps-negative-n",
        CACHE_ROW.format("first-return-minus-1-is-1"),
        ((CLI, "if n < 0:", "if False:"),),
    ),
    # a JSON number reaches int(), where 1e400, read as inf, overflows
    Mutant(
        "cache-reads-json-numbers",
        CACHE_ROW.format("count-is-json-1e400"),
        ((CLI, "if isinstance(text, str):", "if True:"),),
    ),
    Mutant(
        "cache-reads-any-version",
        CACHE_ROW.format("version-mismatch"),
        ((CLI, "if version != CACHE_VERSION:", "if False:"),),
    ),
    Mutant(
        "self-check-only-on-full-hit",
        CACHE_ROW.format("self-check-catches-corrupt-m6-on-partial-hit"),
        (
            (
                CLI,
                "if self_check and counts[: len(hits)] != hits:",
                "if self_check and len(hits) == max_n + 1 and counts[: len(hits)] != hits:",
            ),
        ),
    ),
    Mutant(
        "cache-drops-not-saved",
        CACHE_ROW.format("young-1000000000-is-7"),
        ((CLI, "self.save()", "pass"),),
    ),
    Mutant(
        "self-check-served-from-full-hit",
        CACHE_ROW.format("self-check-catches-corrupt-m6"),
        ((CLI, "if len(hits) == max_n + 1 and not self_check:", "if len(hits) == max_n + 1:"),),
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
