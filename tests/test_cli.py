"""Command line surface: exact output, cache behavior, exit codes."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest

from plates_olives import analysis, counting, games, partitions
from plates_olives.cli import VARIANTS, CacheFile, main
from plates_olives.errors import PlatesOlivesError
from plates_olives.counting import count_games
from plates_olives.games import enumerate_games, parse_game
from plates_olives.partitions import MoveKind, Partition

GOLDEN_COUNT_TABLE = "n  count\n0      1\n1      2\n2     10\n3     76\n4    772\n"
# SHA-256 of the full ``verify`` stdout, the same digest the benchmark pins
VERIFY_ALL_DIGEST = "90cd3593a4ad40510ceb4806c32e65f08df3e238d96cefd225fb6f2b5db13394"


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

    def test_ceiling_opt_in(self, capsys):
        rc, out, _ = run(
            capsys, ["enumerate", "--n", "7", "--oracle-ceiling", "7", "--emit", "histogram"]
        )
        assert rc == 0
        rows = out.splitlines()[1:]
        assert sum(int(r.split(",")[-1]) for r in rows) == count_games(7) == 2758931


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

    def test_negative_oracle_ceiling_rejected(self, capsys):
        rc, out, err = run(capsys, ["verify", "--suite", "claims", "--oracle-ceiling", "-1"])
        assert rc == 1
        assert out == ""
        assert err == "error: oracle ceiling must be nonnegative\n"

    def test_wrong_count_fails_oracle(self, capsys, monkeypatch):
        real = counting.count_games_through

        def off_by_one(max_n, max_states):
            counts = real(max_n, max_states=max_states)
            counts[3] += 1
            return counts

        monkeypatch.setattr(counting, "count_games_through", off_by_one)
        rc, out, _ = run(capsys, ["verify", "--suite", "oracle"])
        assert rc == 1
        assert "FAIL [oracle] enumeration-vs-dp-n3: enumerated 76, counted 77\n" in out
        assert out.endswith("FAIL: 1 failed\n")

    def test_each_claim_names_its_own_first_offender(self, capsys, monkeypatch):
        real = games.game_tallies

        def tallies(n, ceiling):
            for moves, (v_f, v_l, p_s, p_c, up, height, low) in real(n, ceiling=ceiling):
                if p_c:  # one merge too many is an impossible tally: v + p = n + 1
                    p_c += 1
                if n == 2:  # one olive round trip too many: semilength v + 1
                    up += 1
                yield moves, [v_f, v_l, p_s, p_c, up, height, low]

        monkeypatch.setattr(games, "game_tallies", tallies)
        first_merge = next(
            g.text for n in range(7) for g in enumerate_games(n) if "P-c" in g.text
        )
        first_of_two = next(enumerate_games(2)).text
        rc, out, _ = run(capsys, ["verify", "--suite", "claims"])
        assert rc == 1
        assert (
            f"FAIL [claims] per-game-move-tallies: stats violation in {first_merge}\n"
            in out
        )
        assert (
            "FAIL [claims] olive-dyck-projection: dyck semilength mismatch in "
            f"{first_of_two}\n" in out
        )
        assert out.endswith("FAIL: 2 failed\n")

    def test_profile_off_by_one_fails_only_its_check(self, capsys, monkeypatch):
        real = partitions.move_capacity_profile

        def profile(state):
            counts = real(state)
            if state == Partition((3, 3)):  # one P-c, still within its cap
                counts[MoveKind.PLATE_REMOVE_COMPLEX] += 1
            return counts

        monkeypatch.setattr(partitions, "move_capacity_profile", profile)
        argv = ["verify", "--suite", "claims", "--oracle-ceiling", "2"]
        rc, out, _ = run(capsys, argv)
        assert rc == 1
        assert out.splitlines() == [
            "PASS [claims] distinct-part-sizes-capped",
            "PASS [claims] move-capacity-caps",
            "FAIL [claims] profile-matches-legal-moves: weight <= 20",
            "PASS [claims] transition-graph-simple",
            "PASS [claims] per-game-move-tallies",
            "PASS [claims] olive-dyck-projection",
            "FAIL: 1 failed",
        ]

    @pytest.mark.parametrize("suite", ["paper-values", "identities", "oracle", "bounds"])
    def test_every_counting_suite_honours_max_states(self, capsys, suite):
        rc, out, err = run(capsys, ["verify", "--suite", suite, "--max-states", "5"])
        assert (rc, out) == (1, "")
        assert err == "error: more than 5 distinct states; raise max_states to continue\n"

    def test_bound_table_failure_is_reported(self, capsys, monkeypatch):
        def below_bound(counts):
            raise PlatesOlivesError("count 1 at n=3 fell below the proven bound 15")

        monkeypatch.setattr(analysis, "bound_table", below_bound)
        rc, out, _ = run(capsys, ["verify", "--suite", "bounds"])
        assert rc == 1
        assert (
            "FAIL [bounds] bound-table-builds: "
            "count 1 at n=3 fell below the proven bound 15\n" in out
        )
        assert out.endswith("FAIL: 1 failed\n")

    def test_olive_projection_that_is_no_dyck_path_fails(self, capsys, monkeypatch):
        real = games.game_tallies
        first_of_two = next(enumerate_games(2))

        def tallies(n, ceiling):
            for moves, tally in real(n, ceiling=ceiling):
                if n == 2 and tuple(moves) == first_of_two.moves:
                    # the olive path of DyckPath((-1, 1)): lowest height -1
                    tally = [*tally[:4], 1, 0, -1]
                yield moves, tally

        monkeypatch.setattr(games, "game_tallies", tallies)
        rc, out, _ = run(capsys, ["verify", "--suite", "claims"])
        assert rc == 1
        assert (
            "FAIL [claims] olive-dyck-projection: path dips below the axis in "
            f"{first_of_two.text}\n" in out
        )
        assert "PASS [claims] per-game-move-tallies" in out
        assert out.endswith("FAIL: 1 failed\n")

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


class TestCache:
    def test_cold_then_warm_identical(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "6", "--cache", str(cache)]
        rc1, cold, _ = run(capsys, argv)
        assert rc1 == 0 and cache.exists()
        rc2, warm, _ = run(capsys, argv)
        assert rc2 == 0
        assert warm == cold

    def test_variants_share_one_file(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        run(capsys, ["count", "--max-n", "3", "--cache", str(cache)])
        run(capsys, ["count", "--max-n", "3", "--variant", "closed", "--cache", str(cache)])
        data = json.loads(cache.read_text())
        assert set(data["counts"]) == {"first-return", "closed"}
        assert data["counts"]["closed"]["3"] == "107"

    def test_self_check_passes_on_honest_cache(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "4", "--cache", str(cache)]
        run(capsys, argv)
        rc, out, _ = run(capsys, argv + ["--self-check"])
        assert rc == 0
        assert out == GOLDEN_COUNT_TABLE

    # M_6 = 152099; a wrong value above (2n-1)!! = 10395 contradicts no
    # known count, so only --self-check can catch it
    def test_self_check_catches_corruption(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "6", "--cache", str(cache)]
        run(capsys, argv)
        data = json.loads(cache.read_text())
        data["counts"]["first-return"]["6"] = "999999"
        cache.write_text(json.dumps(data))
        rc, out, err = run(capsys, argv + ["--self-check"])
        assert rc == 1
        assert out == ""
        assert "self-check failed" in err

    def test_self_check_catches_corruption_on_partial_hit(self, capsys, tmp_path):
        # rows 0..6 are cached and 7 is not, so the counts are recomputed
        # anyway; the cached prefix must be compared, not overwritten
        cache = tmp_path / "counts.json"
        run(capsys, ["count", "--max-n", "6", "--cache", str(cache)])
        data = json.loads(cache.read_text())
        data["counts"]["first-return"]["6"] = "999999"
        cache.write_text(json.dumps(data))
        corrupted = cache.read_bytes()
        argv = ["count", "--max-n", "7", "--self-check", "--cache", str(cache)]
        rc, out, err = run(capsys, argv)
        assert rc == 1
        assert out == ""
        assert "self-check failed" in err and "999999" in err
        assert cache.read_bytes() == corrupted

    def test_corruption_without_self_check_is_served(self, capsys, tmp_path):
        # by design the cache is trusted unless --self-check is passed
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "6", "--cache", str(cache)]
        run(capsys, argv)
        data = json.loads(cache.read_text())
        data["counts"]["first-return"]["6"] = "999999"
        cache.write_text(json.dumps(data))
        rc, out, err = run(capsys, argv)
        assert rc == 0
        assert out.splitlines()[-1] == "6  999999"
        assert err == ""

    def test_impossible_cached_count_is_dropped_and_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "3", "--cache", str(cache)]
        run(capsys, argv)
        data = json.loads(cache.read_text())
        data["counts"]["first-return"]["3"] = "0"
        cache.write_text(json.dumps(data))
        rc, out, err = run(capsys, argv)
        assert rc == 0
        assert out == "n  count\n0      1\n1      2\n2     10\n3     76\n"
        assert err == "warning: cache drops first-return n=3: 0 is not the known value 76\n"
        assert json.loads(cache.read_text())["counts"]["first-return"]["3"] == "76"

    @pytest.mark.parametrize(
        "variant, n, value, reason",
        [
            ("first-return", "6", "10394", "10394 is below the proven bound (2n-1)!!"),
            ("first-return", "-1", "1", "n is negative"),
            ("closed", "4", "981", "981 is not the known value 1015"),
            ("closed", "6", "-5", "-5 is below the proven bound (2n-1)!!"),
            ("young", "6", "10396", "10396 is not (2n-1)!!"),
            # the bound stops multiplying once it passes the count
            ("young", "1000000000", "7", "7 is not (2n-1)!!"),
        ],
    )
    def test_each_contradiction_is_named(self, capsys, tmp_path, variant, n, value, reason):
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "6", "--variant", variant, "--cache", str(cache)]
        _, fresh, _ = run(capsys, argv)
        data = json.loads(cache.read_text())
        data["counts"][variant][n] = value
        cache.write_text(json.dumps(data))
        rc, out, err = run(capsys, argv)
        assert rc == 0
        assert out == fresh
        assert err == f"warning: cache drops {variant} n={n}: {reason}\n"

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

    @pytest.mark.parametrize("command", ["ratio", "bounds"])
    def test_empty_table_rejected_before_counting(self, capsys, tmp_path, command):
        cache = tmp_path / "counts.json"
        rc, out, err = run(capsys, [command, "--max-n", "0", "--cache", str(cache)])
        assert rc == 1
        assert out == ""
        assert err == "error: max_n must be at least 1\n"
        assert not cache.exists()

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

    def test_version_mismatch_invalidates(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        argv = ["count", "--max-n", "3", "--cache", str(cache)]
        run(capsys, argv)
        data = json.loads(cache.read_text())
        data["version"] = "0"
        data["counts"]["first-return"]["3"] = "999"
        cache.write_text(json.dumps(data))
        rc, out, err = run(capsys, argv)
        assert rc == 0
        assert out == "n  count\n0      1\n1      2\n2     10\n3     76\n"
        assert err == f"warning: cache {cache} ignored: version '0' is not '1'\n"
        assert json.loads(cache.read_text())["version"] == "1"

    def test_garbage_file_invalidates(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        cache.write_text("not json at all")
        rc, out, err = run(capsys, ["count", "--max-n", "2", "--cache", str(cache)])
        assert rc == 0
        assert out.splitlines()[-1] == "2     10"
        assert err == f"warning: cache {cache} ignored: not valid JSON\n"
        assert json.loads(cache.read_text())["counts"]["first-return"]["2"] == "10"

    def test_malformed_table_invalidates(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        cache.write_text(json.dumps({"version": "1", "counts": {"first-return": ["10"]}}))
        rc, out, err = run(capsys, ["count", "--max-n", "2", "--cache", str(cache)])
        assert rc == 0
        assert out.splitlines()[-1] == "2     10"
        assert err == f"warning: cache {cache} ignored: malformed counts table\n"
        assert json.loads(cache.read_text())["counts"]["first-return"]["2"] == "10"

    def test_missing_file_is_silent(self, capsys, tmp_path):
        cache = tmp_path / "counts.json"
        rc, out, err = run(capsys, ["count", "--max-n", "4", "--cache", str(cache)])
        assert (rc, out, err) == (0, GOLDEN_COUNT_TABLE, "")
        assert cache.exists()

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

    # save() writes every key and count as a decimal string; a JSON
    # number is never one, even where int() would take it
    @pytest.mark.parametrize("value", ["1e400", "9856.9", "true"])
    def test_count_that_is_not_a_decimal_string_invalidates(self, capsys, tmp_path, value):
        cache = tmp_path / "counts.json"
        rows = ", ".join(f'"{n}": "{c}"' for n, c in enumerate((1, 2, 10, 76, 772)))
        cache.write_text(
            f'{{"version": "1", "counts": {{"first-return": {{{rows}, "5": {value}}}}}}}'
        )
        rc, out, err = run(capsys, ["count", "--max-n", "5", "--cache", str(cache)])
        assert (rc, out) == (0, GOLDEN_COUNT_TABLE + "5   9856\n")
        assert err == f"warning: cache {cache} ignored: malformed counts table\n"
        assert json.loads(cache.read_text())["counts"]["first-return"]["5"] == "9856"

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
        with pytest.raises(SystemExit) as exc:
            main(["count", "--max-n", "3", "--plot"])
        assert exc.value.code == 2

    def test_bad_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--max-n", "3", "--variant", "open"])
        assert exc.value.code == 2
