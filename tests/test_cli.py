"""Command line surface: exact output, cache behavior, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import tracemalloc
from functools import cache, reduce
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

import pytest

from plates_olives import analysis, counting, games, partitions, references, verify
from plates_olives.cli import VARIANTS, CacheFile, main
from plates_olives.errors import InvalidArgument, PlatesOlivesError
from plates_olives.counting import count_games
from plates_olives.games import parse_game
from plates_olives.partitions import MoveKind, Partition

GOLDEN_COUNT_TABLE = "n  count\n0      1\n1      2\n2     10\n3     76\n4    772\n"
# SHA-256 of the full ``verify`` stdout, the same digest the benchmark pins
VERIFY_ALL_DIGEST = "90cd3593a4ad40510ceb4806c32e65f08df3e238d96cefd225fb6f2b5db13394"
# SHA-256 of ``enumerate --n 7 --oracle-ceiling 7 --emit histogram``'s 52 lines
HISTOGRAM_7_DIGEST = "08d129803001e582bb00d5c85a72033856d606c8b2b56b6a3eaaaddcaf633b15"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCount:
    def test_table_golden(self, capsys):
        rc, out, err = run(capsys, ["count", "--max-n", "4"])
        assert rc == 0
        assert out == GOLDEN_COUNT_TABLE
        assert err == ""

    def test_csv_closed_variant(self, capsys):
        rc, out, _ = run(
            capsys, ["count", "--max-n", "4", "--variant", "closed", "--format", "csv"]
        )
        assert rc == 0
        assert out.splitlines() == [
            "n,count",
            "0,1",
            "1,3",
            "2,15",
            "3,107",
            "4,1015",
        ]

    def test_json_young_variant(self, capsys):
        rc, out, _ = run(
            capsys, ["count", "--max-n", "2", "--variant", "young", "--format", "json"]
        )
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records == [
            {"n": 0, "count": "1", "variant": "young"},
            {"n": 1, "count": "1", "variant": "young"},
            {"n": 2, "count": "3", "variant": "young"},
        ]

    def test_json_counts_are_strings(self, capsys):
        # large counts must survive as exact decimal strings
        rc, out, _ = run(capsys, ["count", "--max-n", "18", "--format", "json"])
        assert rc == 0
        last = json.loads(out.splitlines()[-1])
        assert last["count"] == "192006280895048080286802"

    def test_negative_max_n(self, capsys):
        rc, out, err = run(capsys, ["count", "--max-n", "-1"])
        assert rc == 1
        assert out == ""
        assert err != ""

    def test_no_step_game_needs_one_state(self, capsys):
        argv = ["count", "--max-n", "0", "--max-states", "1", "--format", "csv"]
        rc, out, _ = run(capsys, argv)
        assert (rc, out) == (0, "n,count\n0,1\n")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_oversized_request_fails_before_any_work(self, capsys, monkeypatch, variant):
        # n = 63 needs at least 10,566,509 states in every variant, past the
        # default budget; a state the counter expands would fail the test
        # rather than fill memory
        def no_work(*args):
            raise AssertionError("expanded a state past the budget")

        monkeypatch.setattr(counting, "legal_moves", no_work)
        rc, out, err = run(capsys, ["count", "--max-n", "63", "--variant", variant])
        assert (rc, out) == (1, "")
        assert err == "error: more than 10000000 distinct states; raise max_states to continue\n"


class TestEnumerate:
    def test_zero_saddles(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "0"])
        assert rc == 0
        assert out == "P+ P-s\n"

    def test_one_saddle(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "1"])
        assert rc == 0
        assert out == "P+ O+f O-:1 P-s\nP+ P+ P-s P-s\n"

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_round_trip(self, capsys, n):
        rc, out, _ = run(capsys, ["enumerate", "--n", str(n)])
        assert rc == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert len(set(lines)) == len(lines)
        for line in lines:
            assert parse_game(line).text == line

    def test_histogram(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "3", "--emit", "histogram"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "v_f,v_l,p_s,p_c,count"
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        assert sum(row[-1] for row in rows) == 76
        assert rows == sorted(rows)
        for v_f, v_l, p_s, p_c, _count in rows:
            assert v_f + v_l + p_s + p_c == 3
            assert p_c <= v_f

    def test_format_flag_rejected(self, capsys):
        # enumerate output shapes are pinned; there is no --format here
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "2", "--emit", "histogram", "--format", "csv"])
        assert exc.value.code == 2

    def test_skeletons(self, capsys):
        rc, out, _ = run(capsys, ["enumerate", "--n", "2", "--emit", "skeletons"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == len(set(lines)) == 10
        # first collisions: distinct removal indices from states like <3,2>
        _, full, _ = run(capsys, ["enumerate", "--n", "4", "--emit", "skeletons"])
        full_lines = full.splitlines()
        assert len(full_lines) == len(set(full_lines)) == 762 < 772

    def test_ceiling_guard(self, capsys):
        rc, out, err = run(capsys, ["enumerate", "--n", "9"])
        assert rc == 1
        assert out == ""
        assert "ceiling" in err

    def test_ceiling_can_be_lowered(self, capsys):
        rc, out, err = run(capsys, ["enumerate", "--n", "6", "--oracle-ceiling", "5"])
        assert rc == 1
        assert "ceiling" in err

    def test_negative_ceiling_rejected(self, capsys):
        rc, out, err = run(capsys, ["enumerate", "--n", "0", "--oracle-ceiling", "-1"])
        assert rc == 1
        assert out == ""
        assert err == "error: oracle ceiling must be nonnegative\n"

    def test_ceiling_opt_in(self, capsys):
        rc, out, _ = run(
            capsys, ["enumerate", "--n", "7", "--oracle-ceiling", "7", "--emit", "histogram"]
        )
        assert rc == 0
        rows = out.splitlines()[1:]
        assert sum(int(r.split(",")[-1]) for r in rows) == count_games(7) == 2758931
        assert hashlib.sha256(out.encode()).hexdigest() == HISTOGRAM_7_DIGEST


class TestRatio:
    def test_csv_rows(self, capsys):
        rc, out, _ = run(capsys, ["ratio", "--max-n", "2", "--format", "csv"])
        assert rc == 0
        assert out.splitlines() == [
            "n,count,ratio,lower_envelope,upper_envelope,monotone_violation",
            "1,2,2.000000,0.735759,1.471518,false",
            "2,10,1.581139,0.735759,1.471518,false",
        ]

    def test_no_violations_through_18(self, capsys):
        rc, out, _ = run(capsys, ["ratio", "--max-n", "18", "--format", "csv"])
        assert rc == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 18
        assert all(row.endswith(",false") for row in rows)
        assert rows[-1].split(",")[2] == "1.092056"


class TestBounds:
    def test_first_row(self, capsys):
        rc, out, _ = run(capsys, ["bounds", "--max-n", "1", "--format", "csv"])
        assert rc == 0
        assert out.splitlines() == [
            "n,count,double_factorial_lower,envelope_lower,envelope_upper,crude_envelope",
            "1,2,1,7.357589E-1,1.471518E+0,108",
        ]

    def test_lower_bound_holds(self, capsys):
        rc, out, _ = run(capsys, ["bounds", "--max-n", "12", "--format", "csv"])
        assert rc == 0
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert int(cells[1]) >= int(cells[2])


class Fault(NamedTuple):
    """A row of TestVerifyCommand's fault table: ``make(real)`` replaces
    ``module.attr``, and ``verify --suite suite --oracle-ceiling ceiling``
    then fails exactly the checks in ``fails``, each with its detail."""

    suite: str
    module: ModuleType
    attr: str
    make: Callable
    fails: dict[str, str]
    ceiling: int = games.DEFAULT_ORACLE_CEILING


def inc(value):
    return value + 1


def entry(index, change):
    """A fake of a list-valued function: entry ``index`` goes through ``change``."""

    def make(real):
        def fake(*args, **kwargs):
            out = real(*args, **kwargs)
            out[index] = change(out[index])
            return out

        return fake

    return make


def value_at(arg, change):
    """A fake whose value at first argument ``arg`` goes through ``change``."""

    def make(real):
        def fake(first, *args, **kwargs):
            out = real(first, *args, **kwargs)
            return change(out) if first == arg else out

        return fake

    return make


def game_tally(text, edit):
    """A fake of ``games.game_tallies``: the tally of one game goes through ``edit``."""
    moves = parse_game(text).moves

    def make(real):
        def fake(n, **kwargs):
            for game, tally in real(n, **kwargs):
                yield game, edit(list(tally)) if tuple(game) == moves else tally

        return fake

    return make


def dip(up):
    """The olive path of DyckPath((-1, 1)), lowest height -1, given ``up``
    up-steps: with v = 2 of them, the dip alone is at fault."""

    def edit(tally):
        assert tally[0] + tally[1] == 2
        return [*tally[:4], up, 0, -1]

    return edit


def merge_and_round_trip_too_many(real):
    def fake(n, **kwargs):
        for moves, (v_f, v_l, p_s, p_c, up, height, low) in real(n, **kwargs):
            # one merge too many is an impossible tally, v + p = n + 1; one
            # olive round trip too many at n = 2 makes the semilength v + 1
            yield moves, [v_f, v_l, p_s, p_c + (p_c > 0), up + (n == 2), height, low]

    return fake


def refused(real):
    def bound_table(counts):
        raise PlatesOlivesError("count 1 at n=3 fell below the proven bound 15")

    return bound_table


# the first game of length 2 the oracle walks, and the first with a merge
FIRST_OF_TWO = "P+ O+f O+l:1 O-:2 O-:1 P-s"
FIRST_MERGE = "P+ O+f P+ O+f P-c:1,1 O-:2 O-:1 P-s"
MERGE = MoveKind.PLATE_REMOVE_COMPLEX
DISCREPANCY = "closed-walks-n4-recorded-discrepancy"
RENEWAL = "closed-walks-renewal-consistency"
FAULTS = {
    "paper-m3-one-high": Fault(
        "paper-values", counting, "count_games_through", entry(3, inc),
        {"game-counts-0-4": "got (1, 2, 10, 77, 772)",
         RENEWAL: "renewal over game counts gives (1, 3, 15, 108, 1017)"},
    ),
    "paper-m18-doubled": Fault(
        "paper-values", counting, "count_games_through", entry(18, lambda m: 2 * m),
        {"ratio-at-18": "r_18 = 1.1349295602"},
    ),
    "paper-closed-row-2-one-low": Fault(
        "paper-values", counting, "count_closed_walks_through", entry(2, lambda c: c - 1),
        {"closed-walks-2-3": "got (14, 107), quoted (15, 107)",
         DISCREPANCY: "with merges 1015, without 945, quoted 981 matches neither",
         RENEWAL: "renewal over game counts gives (1, 3, 15, 107, 1015)"},
    ),
    "paper-young-row-5-one-high": Fault(
        "paper-values", counting, "count_young_walks_through", entry(5, inc),
        {DISCREPANCY: "with merges 1015, without 946, quoted 981 matches neither"},
    ),
    "paper-tangent-one-high": Fault(
        "paper-values", references, "tangent_numbers", value_at(4, inc),
        {"tangent-numbers-0-4": "got (1, 2, 16, 272, 7937)"},
    ),
    # no real run can fail this check, but it reads the module attribute
    "paper-geometric-one-low": Fault(
        "paper-values", references, "GEOMETRIC_CLASS_COUNTS",
        lambda real: real[:4] + ((4, 17745),),
        {"geometric-class-table": "fixed reference table"},
    ),
    "paper-catalan-one-high": Fault(
        "paper-values", references, "catalan", value_at(4, inc),
        {"catalan-0-4": "got (1, 1, 2, 5, 15)"},
    ),
    "identities-brute-one-high-at-5": Fault(
        "identities", references, "weighted_dyck_sum_by_enumeration", value_at(5, inc),
        {"weighted-dyck-brute-vs-double-factorial": "v <= 12 by path enumeration",
         "weighted-dyck-brute-vs-dp": "dual routes agree where both run"},
    ),
    # brute-vs-dp reads only v <= 12
    "identities-dp-one-high-at-150": Fault(
        "identities", references, "weighted_dyck_sum_by_dp_through", entry(150, inc),
        {"weighted-dyck-dp-vs-double-factorial": "v <= 200 by dynamic program"},
    ),
    "identities-young-row-5-one-high": Fault(
        "identities", counting, "count_young_walks_through", entry(5, inc),
        {"young-walks-vs-double-factorial": "lengths 0..20"},
    ),
    "identities-proper-dyck-one-high": Fault(
        "identities", references, "count_proper_dyck_paths", value_at(10, inc),
        {"proper-dyck-vs-catalan": "n <= 10 by path generation"},
    ),
    "identities-zigzag-one-high": Fault(
        "identities", references, "count_zigzag_permutations", value_at(8, inc),
        {"zigzag-filter-vs-tangent": "permutation sizes 2, 4, 6, 8"},
    ),
    # no (2v - 1)!! reads an even m
    "identities-double-factorial-one-high-at-30": Fault(
        "identities", references, "double_factorial", value_at(30, inc),
        {"double-factorial-recurrence": "m <= 35"},
    ),
    "oracle-m3-one-high": Fault(
        "oracle", counting, "count_games_through", entry(3, inc),
        {"enumeration-vs-dp-n3": "enumerated 76, counted 77"},
    ),
    # r_18 rises from 1.0921 past r_17 = 1.0946
    "bounds-m18-doubled": Fault(
        "bounds", counting, "count_games_through", entry(18, lambda m: 2 * m),
        {"ratio-strictly-decreasing": "r_n decreasing for 1 <= n <= 18"},
    ),
    # one below M_4 = 772
    "bounds-closed-row-4-below-m4": Fault(
        "bounds", counting, "count_closed_walks_through", entry(4, lambda c: 771),
        {"closed-dominates-first-return": "interim returns only add walks, n <= 8"},
    ),
    # one below 9!! = 945: r_5 falls below r_6, and the bound table refuses it
    "bounds-m5-below-double-factorial": Fault(
        "bounds", counting, "count_games_through", entry(5, lambda m: 944),
        {"double-factorial-lower-bound": "M_n >= (2n-1)!! for n <= 18",
         "ratio-strictly-decreasing": "r_n decreasing for 1 <= n <= 18",
         "bound-table-builds": "count 944 at n=5 fell below the proven bound 945"},
    ),
    "bounds-bound-table-refuses": Fault(
        "bounds", analysis, "bound_table", refused,
        {"bound-table-builds": "count 1 at n=3 fell below the proven bound 15"},
    ),
    # one P-c at <3,3>, still within its cap
    "claims-profile-one-merge-too-many": Fault(
        "claims", partitions, "move_capacity_profile",
        value_at(Partition((3, 3)), lambda p: {**p, MERGE: p[MERGE] + 1}),
        {"profile-matches-legal-moves": "weight <= 20"}, ceiling=2,
    ),
    "claims-cap-one-short": Fault(
        "claims", partitions, "w_cap", lambda real: lambda t: real(t) - 1,
        {"distinct-part-sizes-capped": "weight <= 20", "move-capacity-caps": "weight <= 20"},
        ceiling=2,
    ),
    # at <2,1> the second move keeps its kind but lands where the first does
    "claims-two-moves-to-one-state": Fault(
        "claims", partitions, "legal_moves",
        value_at(Partition((2, 1)), lambda m: [m[0], (m[1][0], m[0][1]), *m[2:]]),
        {"transition-graph-simple": "weight <= 20"}, ceiling=2,
    ),
    "claims-merge-and-round-trip-too-many": Fault(
        "claims", games, "game_tallies", merge_and_round_trip_too_many,
        {"per-game-move-tallies": f"stats violation in {FIRST_MERGE}",
         "olive-dyck-projection": f"dyck semilength mismatch in {FIRST_OF_TWO}"},
    ),
    # v + p = n still holds, but p_c > v_f
    "claims-more-merges-than-first-olives": Fault(
        "claims", games, "game_tallies",
        game_tally(FIRST_MERGE, lambda t: [0, t[0] + t[1], *t[2:]]),
        {"per-game-move-tallies": f"stats violation in {FIRST_MERGE}"},
    ),
    "claims-dip-with-one-up-step": Fault(
        "claims", games, "game_tallies", game_tally(FIRST_OF_TWO, dip(1)),
        {"olive-dyck-projection": f"path dips below the axis in {FIRST_OF_TWO}"},
    ),
    "claims-dip-with-two-up-steps": Fault(
        "claims", games, "game_tallies", game_tally(FIRST_OF_TWO, dip(2)),
        {"olive-dyck-projection": f"path dips below the axis in {FIRST_OF_TWO}"},
    ),
    # an olive path that never dips but ends at height 2
    "claims-ends-above-the-axis": Fault(
        "claims", games, "game_tallies", game_tally(FIRST_OF_TWO, lambda t: [*t[:5], 2, 0]),
        {"olive-dyck-projection": f"path does not end at height 0 in {FIRST_OF_TWO}"},
    ),
}


@cache
def verify_output(*argv):
    """The stdout of a ``verify`` run with no fault, which must pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--suite", "paper-values"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "OK: 0 failed"
        assert all(line.startswith("PASS [paper-values] ") for line in lines[:-1])

    def test_all_suites(self, capsys, monkeypatch):
        real = games.game_tallies
        lengths = []

        def counted(n, ceiling):
            lengths.append(n)
            return real(n, ceiling=ceiling)

        monkeypatch.setattr(games, "game_tallies", counted)
        rc, out, _ = run(capsys, ["verify"])
        assert rc == 0
        # the oracle and claims suites share one pass per game length
        assert sorted(lengths) == list(range(games.DEFAULT_ORACLE_CEILING + 1))
        lines = out.splitlines()
        assert lines[-1] == "OK: 0 failed"
        suites = {line.split("[", 1)[1].split("]")[0] for line in lines[:-1]}
        assert suites == {"paper-values", "identities", "oracle", "bounds", "claims"}
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST

    def test_claims_read_every_length_the_pass_walks(self, monkeypatch):
        real = games.game_tallies
        lengths = []

        def tallies(n, ceiling):
            lengths.append(n)
            if n < 7:
                return real(n, ceiling=ceiling)
            # one game with an impossible tally, so no n = 7 game is walked
            return iter([(list(parse_game("P+ P-s").moves), (0,) * 7)])

        monkeypatch.setattr(games, "game_tallies", tallies)
        checks = verify.run_suites(["claims"], ceiling=7)
        results = {check.name: check for _, check in checks}
        assert lengths == list(range(8))
        tally = results["per-game-move-tallies"]
        assert (tally.ok, tally.detail) == (False, "stats violation in P+ P-s")
        assert results["olive-dyck-projection"].ok

    def test_negative_oracle_ceiling_rejected(self, capsys):
        rc, out, err = run(capsys, ["verify", "--suite", "claims", "--oracle-ceiling", "-1"])
        assert rc == 1
        assert out == ""
        assert err == "error: oracle ceiling must be nonnegative\n"

    def test_ceiling_past_the_budget_walks_no_game(self, capsys, monkeypatch):
        # the games through n = 62 need more states than the counters'
        # default budget, so the oracle's count fails before any game is
        # walked; no smaller ceiling reaches the budget
        def no_walk(n, ceiling):
            raise AssertionError("walked the games of a length")

        monkeypatch.setattr(games, "game_tallies", no_walk)
        argv = ["verify", "--suite", "oracle", "--oracle-ceiling", "62"]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "")
        assert err == "error: more than 10000000 distinct states; raise max_states to continue\n"

    @pytest.mark.parametrize("fault", list(FAULTS.values()), ids=list(FAULTS))
    def test_fault_fails_named_checks(self, capsys, monkeypatch, fault):
        argv = ["verify", "--suite", fault.suite, "--oracle-ceiling", str(fault.ceiling)]
        # the clean output, with exactly the named checks turned to FAIL
        expected = verify_output(*argv)
        for name, detail in fault.fails.items():
            passed = f"PASS [{fault.suite}] {name}\n"
            assert passed in expected
            expected = expected.replace(passed, f"FAIL [{fault.suite}] {name}: {detail}\n")
        expected = expected.replace("OK: 0 failed", f"FAIL: {len(fault.fails)} failed")
        real = getattr(fault.module, fault.attr)
        monkeypatch.setattr(fault.module, fault.attr, fault.make(real))
        assert run(capsys, argv) == (1, expected, "")

    def test_every_check_fails_in_some_row(self):
        failed = {(fault.suite, name) for fault in FAULTS.values() for name in fault.fails}
        checks = {
            (suite, line.split("] ", 1)[1])
            for suite in ("paper-values", "identities", "bounds", "claims")
            for line in verify_output(
                "verify", "--suite", suite, "--oracle-ceiling", str(games.DEFAULT_ORACLE_CEILING)
            ).splitlines()[:-1]
        }
        assert checks - failed == set()
        assert any(suite == "oracle" for suite, _ in failed)

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_unknown_suite_name_fails_before_any_suite_runs(self, monkeypatch):
        ran = []
        for name in list(verify.SUITES):
            monkeypatch.setitem(
                verify.SUITES, name, lambda *args, name=name: ran.append(name) or []
            )
        with pytest.raises(InvalidArgument, match="unknown suite 'typo'"):
            verify.run_suites(["paper-values", "typo"])
        assert ran == []


class CacheCase(NamedTuple):
    """A row of TestCache's table.  The cache file starts absent, as the
    raw ``text``, or as a cold run of ``fill`` writes it with each
    "key/.../key" path of ``edit`` set to its value.  ``argv`` then runs
    with ``--cache``, exits ``status`` and prints ``stdout`` (None: what a
    cold run of ``argv`` prints) and ``stderr`` (``{cache}`` stands for the
    path).  Afterwards the file holds what a cold run of ``fill``, or of
    ``argv`` if there is none, writes when ``saved``, and exactly what it
    held before otherwise."""

    argv: str
    status: int
    stdout: str | None
    stderr: str
    saved: bool
    fill: str | None = None
    edit: dict[str, str] = {}
    text: str | None = None


def dropped(variant, n, value, reason):
    """``count --max-n 6`` over a cold file whose row n is ``value``: the
    cache drops it for ``reason`` and the count is as without a cache."""
    argv = f"count --max-n 6 --variant {variant}"
    warning = f"warning: cache drops {variant} n={n}: {reason}\n"
    edit = {f"counts/{variant}/{n}": value}
    return CacheCase(argv, 0, None, warning, True, fill=argv, edit=edit)


def five_rows_and(value):
    """A file with the right first-return rows 0..4 and the raw JSON
    ``value`` as row 5."""
    rows = ", ".join(f'"{n}": "{c}"' for n, c in enumerate((1, 2, 10, 76, 772)))
    return f'{{"version": "1", "counts": {{"first-return": {{{rows}, "5": {value}}}}}}}'


TABLE_0_2 = "n  count\n0      1\n1      2\n2     10\n"
TABLE_0_3 = "n  count\n0      1\n1      2\n2     10\n3     76\n"
M6_CORRUPT = {"counts/first-return/6": "999999"}
SELF_CHECK_FAILED = (
    "error: cache self-check failed for first-return: "
    "cached [1, 2, 10, 76, 772, 9856, 999999] != recomputed [1, 2, 10, 76, 772, 9856, 152099]\n"
)
MALFORMED = "warning: cache {cache} ignored: malformed counts table\n"
CACHE_CASES = {
    "warm-hit-prints-the-cold-table": CacheCase(
        "count --max-n 6", 0, None, "", True, fill="count --max-n 6"
    ),
    "self-check-passes-on-honest-cache": CacheCase(
        "count --max-n 4 --self-check", 0, GOLDEN_COUNT_TABLE, "", True, fill="count --max-n 4"
    ),
    # M_6 = 152099; a wrong value above (2n-1)!! = 10395 contradicts no
    # known count, so only --self-check can catch it
    "self-check-catches-corrupt-m6": CacheCase(
        "count --max-n 6 --self-check", 1, "", SELF_CHECK_FAILED, False,
        fill="count --max-n 6", edit=M6_CORRUPT,
    ),
    # rows 0..6 are cached and 7 is not, so the counts are recomputed
    # anyway; the cached prefix must be compared, not overwritten
    "self-check-catches-corrupt-m6-on-partial-hit": CacheCase(
        "count --max-n 7 --self-check", 1, "", SELF_CHECK_FAILED, False,
        fill="count --max-n 6", edit=M6_CORRUPT,
    ),
    # by design the cache is trusted unless --self-check is passed
    "corrupt-m6-served-without-self-check": CacheCase(
        "count --max-n 6", 0,
        "n   count\n0       1\n1       2\n2      10\n3      76\n4     772\n5    9856\n6  999999\n",
        "", False, fill="count --max-n 6", edit=M6_CORRUPT,
    ),
    "first-return-3-is-0": CacheCase(
        "count --max-n 3", 0, TABLE_0_3,
        "warning: cache drops first-return n=3: 0 is not the known value 76\n", True,
        fill="count --max-n 3", edit={"counts/first-return/3": "0"},
    ),
    "first-return-6-is-10394": dropped(
        "first-return", "6", "10394", "10394 is below the proven bound (2n-1)!!"
    ),
    "first-return-minus-1-is-1": dropped("first-return", "-1", "1", "n is negative"),
    "closed-4-is-981": dropped("closed", "4", "981", "981 is not the known value 1015"),
    "closed-6-is-minus-5": dropped("closed", "6", "-5", "-5 is below the proven bound (2n-1)!!"),
    "young-6-is-10396": dropped("young", "6", "10396", "10396 is not (2n-1)!!"),
    # the bound stops multiplying once it passes the count; the row lies
    # outside the requested range, so only the drop itself can rewrite the file
    "young-1000000000-is-7": dropped("young", "1000000000", "7", "7 is not (2n-1)!!"),
    **{
        f"{command}-empty-table": CacheCase(
            f"{command} --max-n 0", 1, "", "error: max_n must be at least 1\n", False
        )
        for command in ("ratio", "bounds")
    },
    "version-mismatch": CacheCase(
        "count --max-n 3", 0, TABLE_0_3,
        "warning: cache {cache} ignored: version '0' is not '1'\n", True,
        fill="count --max-n 3", edit={"version": "0", "counts/first-return/3": "999"},
    ),
    "garbage-file": CacheCase(
        "count --max-n 2", 0, TABLE_0_2, "warning: cache {cache} ignored: not valid JSON\n", True,
        text="not json at all",
    ),
    "malformed-table": CacheCase(
        "count --max-n 2", 0, TABLE_0_2, MALFORMED, True,
        text=json.dumps({"version": "1", "counts": {"first-return": ["10"]}}),
    ),
    "missing-file": CacheCase("count --max-n 4", 0, GOLDEN_COUNT_TABLE, "", True),
    # save() writes every key and count as a decimal string; a JSON
    # number is never one, even where int() would take it
    **{
        f"count-is-json-{value}": CacheCase(
            "count --max-n 5", 0, GOLDEN_COUNT_TABLE + "5   9856\n", MALFORMED, True,
            text=five_rows_and(value),
        )
        for value in ("1e400", "9856.9", "true")
    },
}


@cache
def cold_run(argv):
    """The stdout of ``argv`` run with a cache file that does not exist
    yet, and the bytes that run leaves in the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "counts.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([*argv.split(), "--cache", str(path)]) == 0
        assert err.getvalue() == ""
        return out.getvalue(), path.read_bytes()


class TestCache:
    @pytest.mark.parametrize("case", list(CACHE_CASES.values()), ids=list(CACHE_CASES))
    def test_cache_case(self, capsys, tmp_path, case):
        cache = tmp_path / "counts.json"
        if case.fill:
            cache.write_bytes(cold_run(case.fill)[1])
        if case.edit:
            data = json.loads(cache.read_text())
            for path, value in case.edit.items():
                *keys, last = path.split("/")
                reduce(dict.__getitem__, keys, data)[last] = value
            cache.write_text(json.dumps(data))
        if case.text:
            cache.write_text(case.text)
        before = cache.read_bytes() if cache.exists() else None
        argv = [*case.argv.split(), "--cache", str(cache)]
        stdout = cold_run(case.argv)[0] if case.stdout is None else case.stdout
        assert run(capsys, argv) == (case.status, stdout, case.stderr.format(cache=cache))
        if not case.saved:
            assert (cache.read_bytes() if cache.exists() else None) == before
            return
        assert cache.read_bytes() == cold_run(case.fill or case.argv)[1]
        if case.status == 0:
            # the file now serves the same table with nothing to warn about
            assert run(capsys, argv) == (0, stdout, "")

    def test_variants_share_one_file(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        run(capsys, ["count", "--max-n", "3", "--cache", str(cache)])
        run(capsys, ["count", "--max-n", "3", "--variant", "closed", "--cache", str(cache)])
        data = json.loads(cache.read_text())
        assert set(data["counts"]) == {"first-return", "closed"}
        assert data["counts"]["closed"]["3"] == "107"

    # a cached count can no longer be impossible, so the guards in
    # analysis are reached through a faulty kernel
    def test_bounds_reject_count_below_proven_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "count_games_through", lambda n, max_states: [1, 2, 10, 1])
        rc, out, err = run(capsys, ["bounds", "--max-n", "3"])
        assert rc == 1
        assert out == ""
        assert err == "error: count 1 at n=3 fell below the proven bound 15\n"

    def test_ratio_rejects_nonpositive_cached_count(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "count_games_through", lambda n, max_states: [1, 2, 10, 0])
        rc, out, err = run(capsys, ["ratio", "--max-n", "3"])
        assert rc == 1
        assert out == ""
        assert err == "error: count must be positive\n"

    def test_dropped_row_is_removed_from_file(self, capsys, tmp_path):
        # the bad row lies outside the requested range, so only the drop
        # itself can rewrite the file
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "6", "--variant", "young", "--cache", str(cache)]
        _, fresh, _ = run(capsys, argv)
        data = json.loads(cache.read_text())
        data["counts"]["young"]["1000000000"] = "7"
        cache.write_text(json.dumps(data))
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (0, fresh)
        assert err == "warning: cache drops young n=1000000000: 7 is not (2n-1)!!\n"
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (0, fresh, "")
        assert "1000000000" not in json.loads(cache.read_text())["counts"]["young"]

    def test_drops_in_every_variant_rewrite_the_file_once(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "counts.json"
        bad = {"first-return": {"3": "0"}, "closed": {"4": "981"}, "young": {"2": "4"}}
        cache.write_text(json.dumps({"version": "1", "counts": bad}))
        saves = []
        real_save = CacheFile.save

        def counted_save(self):
            saves.append(self.path)
            real_save(self)

        monkeypatch.setattr(CacheFile, "save", counted_save)
        loaded = CacheFile(cache)
        assert saves == [cache]
        assert capsys.readouterr().err.splitlines() == [
            "warning: cache drops first-return n=3: 0 is not the known value 76",
            "warning: cache drops closed n=4: 981 is not the known value 1015",
            "warning: cache drops young n=2: 4 is not (2n-1)!!",
        ]
        assert loaded.counts == {"first-return": {}, "closed": {}, "young": {}}
        assert json.loads(cache.read_text()) == {"version": "1", "counts": {}}

    def test_directory_path_is_not_saved(self, capsys, tmp_path):
        # an unwritable directory cannot be tested this way as root, who
        # may write anywhere; a directory fails the final replace for anyone
        cache = tmp_path / "counts.json"
        cache.mkdir()
        rc, out, err = run(capsys, ["count", "--max-n", "4", "--cache", str(cache)])
        assert (rc, out) == (0, GOLDEN_COUNT_TABLE)
        assert err.splitlines() == [
            f"warning: cache {cache} ignored: Is a directory",
            f"warning: cache {cache} not saved: Is a directory",
        ]
        assert list(tmp_path.iterdir()) == [cache]
        assert cache.is_dir() and not any(cache.iterdir())

    # rows 0..3 of every variant are cached, so a hit could serve these;
    # the counter's own error must come out as it does without a cache,
    # and the file must stay as it was
    @pytest.mark.parametrize(
        "argv",
        [
            *(["count", "--max-n", "-1", "--variant", v] for v in VARIANTS),
            *([table, "--max-n", "-1"] for table in ("ratio", "bounds")),
            *([cmd, "--max-n", "3", "--max-states", "0"] for cmd in ("count", "ratio", "bounds")),
        ],
        ids=" ".join,
    )
    def test_bad_argument_is_rejected_as_without_a_cache(self, capsys, tmp_path, argv):
        cache = tmp_path / "counts.json"
        for variant in VARIANTS:
            run(capsys, ["count", "--max-n", "3", "--variant", variant, "--cache", str(cache)])
        filled = cache.read_bytes()
        missing = tmp_path / "missing.json"
        uncached = rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "") and err.startswith("error: ")
        assert run(capsys, argv + ["--cache", str(missing)]) == uncached
        assert run(capsys, argv + ["--cache", str(cache)]) == uncached
        assert not missing.exists()
        assert cache.read_bytes() == filled

    def test_huge_request_fails_before_reading_every_row(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        run(capsys, ["count", "--max-n", "6", "--cache", str(cache)])
        argv = ["count", "--max-n", "1000000", "--max-states", "10"]
        _, _, uncached = run(capsys, argv)
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, argv + ["--cache", str(cache)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (1, "")
        assert err == uncached == (
            "error: more than 10 distinct states; raise max_states to continue\n"
        )
        assert peak < 1_000_000

    def test_env_var_fallback(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env.json"
        monkeypatch.setenv("OLIVE_CACHE", str(cache))
        rc, _, _ = run(capsys, ["count", "--max-n", "3"])
        assert rc == 0
        assert cache.exists()

    def test_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        env_cache = tmp_path / "env.json"
        flag_cache = tmp_path / "flag.json"
        monkeypatch.setenv("OLIVE_CACHE", str(env_cache))
        rc, _, _ = run(capsys, ["count", "--max-n", "2", "--cache", str(flag_cache)])
        assert rc == 0
        assert flag_cache.exists()
        assert not env_cache.exists()


class TestErrors:
    def test_internal_value_error_is_not_a_user_error(self, capsys, monkeypatch):
        # only argument checks print "error: ..."; any other ValueError is a bug
        def broken(max_n, max_states):
            raise ValueError("internal failure")

        monkeypatch.setattr(counting, "count_games_through", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["count", "--max-n", "3"])
        assert capsys.readouterr().err == ""


class TestParser:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        # verify takes no state budget: its counts run under the default one
        for argv in (
            ["count", "--max-n", "3", "--plot"],
            ["verify", "--max-states", "5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_bad_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--max-n", "3", "--variant", "open"])
        assert exc.value.code == 2
