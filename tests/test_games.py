"""Game validation, enumeration order, skeletons, stats, Dyck projection."""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plates_olives import games
from plates_olives.counting import count_young_walks
from plates_olives.errors import (
    CeilingExceeded,
    IllegalMove,
    InvalidArgument,
    NotClosed,
    PrematureEmpty,
)
from plates_olives.games import (
    DyckPath,
    Game,
    enumerate_games,
    game_stats,
    game_tallies,
    olive_dyck_path,
    parse_game,
    skeleton,
    stats_histogram,
    validate_game,
    young_closed_walks,
)
from plates_olives.partitions import (
    EMPTY,
    Move,
    MoveKind,
    legal_moves,
    partitions_of_weight,
)
from plates_olives.references import (
    catalan,
    count_proper_dyck_paths,
    dyck_paths,
    tangent_numbers,
    updown_numbers,
    weighted_dyck_sum_by_enumeration,
)

# the two games of length 1: all plates, and one olive in and out
TWO_PLATES = "P+ P+ P-s P-s"
ONE_OLIVE = "P+ O+f O-:1 P-s"

GOLDEN_COUNTS = (1, 2, 10, 76, 772)


@st.composite
def closed_walks(draw, max_out=30):
    """Moves and states of a random game: P+, random legal moves that keep
    off the empty table, random weight-lowering ones back down to <1>, and
    the closing P-s.  Every choice is drawn from ``legal_moves``."""
    moves, states = [], [EMPTY]

    def step(keep):
        options = [(m, q) for m, q in legal_moves(states[-1]) if keep(q)]
        move, nxt = draw(st.sampled_from(options))
        moves.append(move)
        states.append(nxt)

    step(lambda q: True)
    for _ in range(draw(st.integers(0, max_out))):
        step(lambda q: not q.is_empty)
    while states[-1].weight > 1:
        here = states[-1].weight
        step(lambda q: 0 < q.weight < here)
    step(lambda q: q.is_empty)
    return moves, states


def reference_walks(length, allow_complex, interim_empty):
    """Every closed walk of ``length`` moves from the empty table, as
    (moves, states) tuples in token order: plain recursion over
    ``legal_moves``, with no node or tail cache, and the grammar's list
    looked up once per state.  ``interim_empty`` allows the empty table
    before the last move."""
    grammar = cache(legal_moves)

    def walks(state, left):
        if not left:
            if state.is_empty:
                yield (), (state,)
            return
        for move, nxt in grammar(state, allow_complex):
            if nxt.weight >= left or (nxt.is_empty and left > 1 and not interim_empty):
                continue  # too heavy to drain in time, or empty too early
            for moves, states in walks(nxt, left - 1):
                yield (move, *moves), (state, *states)

    return walks(EMPTY, length)


class TestValidateGame:
    def test_two_plate_game(self):
        game = parse_game(TWO_PLATES)
        assert game.n == 1
        assert [str(p) for p in game.trace] == ["<>", "<1>", "<1,1>", "<1>", "<>"]
        assert game.text == TWO_PLATES
        assert str(game) == game.text

    def test_one_olive_game(self):
        game = parse_game(ONE_OLIVE)
        assert game.n == 1
        assert [str(p) for p in game.trace] == ["<>", "<1>", "<2>", "<1>", "<>"]

    def test_premature_empty(self):
        with pytest.raises(PrematureEmpty):
            parse_game("P+ P-s P+ P-s")
        # the table clears before O+f is reached; the first failing move decides
        with pytest.raises(PrematureEmpty):
            parse_game("P+ P-s O+f O-:1 P-s")

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            parse_game("P+ P+ P-s")
        with pytest.raises(NotClosed):
            parse_game("P+ O+f")
        with pytest.raises(NotClosed):
            validate_game(())

    def test_illegal_move_in_replay(self):
        with pytest.raises(IllegalMove):
            parse_game("P-s P+")
        # olive-add classification is checked against the state, not the token
        with pytest.raises(IllegalMove):
            parse_game("P+ O+l:1 O-:2 P-s")
        with pytest.raises(IllegalMove):
            parse_game("P+ O+f O+f O-:1 O-:1 P-s")

    def test_token_that_does_not_print_back_rejected(self):
        with pytest.raises(ValueError, match="malformed move token 'O-:01'"):
            parse_game("P+ O+f O-:01 P-s")

    def test_game_shape_invariants(self):
        for n in range(4):
            for game in enumerate_games(n):
                assert game.moves[0] == Move(MoveKind.PLATE_ADD)
                assert game.moves[-1] == Move(MoveKind.PLATE_REMOVE_SIMPLE)
                assert len(game.moves) == 2 * n + 2
                assert len(game.trace) == 2 * n + 3
                assert game.trace[0] == EMPTY and game.trace[-1] == EMPTY
                assert not any(p.is_empty for p in game.trace[1:-1])
                exchanges = [m.exchange for m in game.moves]
                adds = sum(1 for taken, put in exchanges if sum(put) > sum(taken))
                assert adds - 1 == n


    @settings(deadline=None)
    @given(closed_walks())
    def test_random_legal_walks_validate_and_round_trip(self, walk):
        moves, states = walk
        game = validate_game(moves)
        assert game.trace == tuple(states)
        assert parse_game(game.text) == game


class TestEnumerate:
    @pytest.mark.parametrize("n, expected", list(enumerate(GOLDEN_COUNTS)))
    def test_golden_counts(self, n, expected):
        assert sum(1 for _ in enumerate_games(n)) == expected

    def test_zero_length_game(self):
        games = list(enumerate_games(0))
        assert [g.text for g in games] == ["P+ P-s"]

    def test_lexicographic_order(self):
        for n in range(4):
            texts = [g.text for g in enumerate_games(n)]
            assert texts == sorted(texts)
            assert len(set(texts)) == len(texts)

    def test_ceiling(self):
        with pytest.raises(CeilingExceeded):
            next(enumerate_games(7))
        # opting in raises the ceiling
        assert next(enumerate_games(7, ceiling=7)).n == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_games(-1))

    def test_round_trip_text(self):
        for game in enumerate_games(3):
            assert parse_game(game.text).moves == game.moves


class TestSkeleton:
    def test_examples(self):
        assert skeleton(parse_game(TWO_PLATES)) == ("P+", "P+", "P-s", "P-s")
        assert skeleton(parse_game(ONE_OLIVE)) == ("P+", "O+f", "O-", "P-s")

    def test_endpoints_forced(self):
        for n in range(4):
            for game in enumerate_games(n):
                labels = skeleton(game)
                assert labels[0] == "P+" and labels[-1] == "P-s"

    def test_skeletons_consistent_with_stats(self):
        # game_stats and game_tallies both read _TALLY_COLUMN, so this is
        # the check of game_stats that does not: every game with n <= 5
        for n in range(6):
            distinct = set()
            count = 0
            for game in enumerate_games(n):
                labels = skeleton(game)
                distinct.add(labels)
                count += 1
                tally = Counter(labels)
                stats = game_stats(game)
                assert tally["O+f"] == stats.v_f
                assert tally["O+l"] == stats.v_l
                assert tally["O-"] == stats.v
                assert tally["P-s"] == stats.p_s + 1
                assert tally["P-c"] == stats.p_c
            assert len(distinct) <= count


class TestGameStats:
    def test_examples(self):
        assert game_stats(parse_game(TWO_PLATES)) == (0, 0, 1, 0)
        assert game_stats(parse_game(ONE_OLIVE)) == (1, 0, 0, 0)

    def test_identities_exhaustive(self):
        # v + p = n always; complex removals never outnumber first olive-adds
        for n in range(5):
            for game in enumerate_games(n):
                stats = game_stats(game)
                assert stats.v + stats.p == n
                assert stats.p_c <= stats.v_f

    def test_tally_columns_pinned(self):
        assert games._TALLY_COLUMN == {
            "P+": None, "O+f": 0, "O+l": 1, "O-": None, "P-s": 2, "P-c": 3
        }


class TestDyckPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyckPath((1, -1, -1, 1))
        with pytest.raises(ValueError):
            DyckPath((1, 1))
        with pytest.raises(ValueError):
            DyckPath((2, -2))
        # steps are compared by type as well as value, as Move's are
        with pytest.raises(ValueError, match="steps must be"):
            DyckPath((True, -1))
        with pytest.raises(ValueError, match="steps must be"):
            DyckPath((1.0, -1.0))

    @pytest.mark.parametrize(
        "steps, message",
        [
            # the first fault along the path is the one named
            ((1, -1, -1, 2), "path dips below the axis"),
            ((-1, 1.0), "path dips below the axis"),
            ((1, 2, -1, -1), "steps must be \\+1 or -1"),
            ((True, -1), "steps must be \\+1 or -1"),
            ((1, -1, 1, True), "steps must be \\+1 or -1"),
            ((1, 1, -1), "path does not end at height 0"),
        ],
    )
    def test_first_fault_is_named(self, steps, message):
        with pytest.raises(ValueError, match=message):
            DyckPath(steps)

    def test_heights(self):
        path = DyckPath((1, 1, -1, -1))
        assert path.heights() == (0, 1, 2, 1, 0)
        assert path.semilength == 2
        assert DyckPath(()).heights() == (0,)

    def test_projection_examples(self):
        assert olive_dyck_path(parse_game(ONE_OLIVE)).steps == (1, -1)
        assert olive_dyck_path(parse_game(TWO_PLATES)).steps == ()

    def test_heights_track_olive_counts(self):
        olive_kinds = (
            MoveKind.OLIVE_ADD_FIRST,
            MoveKind.OLIVE_ADD_LATER,
            MoveKind.OLIVE_REMOVE,
        )
        for n in range(5):
            for game in enumerate_games(n):
                path = olive_dyck_path(game)
                assert path.semilength == game_stats(game).v
                # path heights are the olive totals sampled at olive moves
                sampled = [0]
                for move, state in zip(game.moves, game.trace[1:]):
                    if move.kind in olive_kinds:
                        sampled.append(state.olive_count)
                assert list(path.heights()) == sampled


def _int_tuple(key) -> bool:
    """A plain node key: a state's parts."""
    return type(key) is tuple and {*map(type, key)} <= {int}


def _tally_key(key) -> bool:
    """A tally node key: the parts and the tallies so far."""
    return type(key) is tuple and len(key) == 2 and all(map(_int_tuple, key))


class TestClosedWalks:
    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: enumerate_games(-1), ValueError),
            (lambda: enumerate_games(7), CeilingExceeded),
            (lambda: game_tallies(-1), InvalidArgument),
            (lambda: game_tallies(7), CeilingExceeded),
            (lambda: enumerate_games(0, ceiling=-1), InvalidArgument),
            (lambda: stats_histogram(0, ceiling=-1), InvalidArgument),
            (lambda: game_tallies(0, ceiling=-1), InvalidArgument),
            (lambda: young_closed_walks(3), InvalidArgument),
            (lambda: count_young_walks(3), InvalidArgument),
            (lambda: dyck_paths(-1), ValueError),
            (lambda: weighted_dyck_sum_by_enumeration(-1), ValueError),
            (lambda: count_proper_dyck_paths(-1), ValueError),
            (lambda: partitions_of_weight(-1), ValueError),
            (lambda: catalan(-1), ValueError),
            (lambda: updown_numbers(-1), ValueError),
            (lambda: tangent_numbers(-1), ValueError),
        ],
        ids=[
            "enumerate_games(-1)",
            "enumerate_games(7)",
            "game_tallies(-1)",
            "game_tallies(7)",
            "enumerate_games(0, ceiling=-1)",
            "stats_histogram(0, ceiling=-1)",
            "game_tallies(0, ceiling=-1)",
            "young_closed_walks(3)",
            "count_young_walks(3)",
            "dyck_paths(-1)",
            "weighted_dyck_sum_by_enumeration(-1)",
            "count_proper_dyck_paths(-1)",
            "partitions_of_weight(-1)",
            "catalan(-1)",
            "updown_numbers(-1)",
            "tangent_numbers(-1)",
        ],
    )
    def test_enumerators_raise_at_the_call(self, call, expected):
        # no next(): the argument is checked before a generator exists
        with pytest.raises(expected):
            call()

    @pytest.mark.parametrize(
        "walks, allow_complex",
        [
            (lambda: [g.trace for g in enumerate_games(3)], True),
            (lambda: [Game(tuple(moves)).trace for moves, _ in game_tallies(3)], True),
            (lambda: list(young_closed_walks(6)), False),
        ],
        ids=["games", "game-tallies", "young-walks"],
    )
    def test_one_grammar_call_per_distinct_state(self, monkeypatch, walks, allow_complex):
        calls = []

        def recorded(state, allow_complex=True):
            calls.append((state, allow_complex))
            return legal_moves(state, allow_complex)

        monkeypatch.setattr(games, "legal_moves", recorded)
        traces = walks()
        # every state a walk leaves is expanded, once, and nothing else is
        left = {state for trace in traces for state in trace[:-1]}
        assert len(calls) == len(set(calls)) == len(left)
        assert set(calls) == {(state, allow_complex) for state in left}


    @pytest.mark.parametrize("n", range(7))
    def test_games_and_tallies_match_an_uncached_walk(self, n):
        # 2n + 2 moves through n = 6: walks shorter than, as long as and
        # longer than games.TAIL, so both the stack and the tail cache run
        reference = reference_walks(2 * n + 2, True, False)
        walked = zip(reference, enumerate_games(n), game_tallies(n), strict=True)
        for (moves, _), game, (tally_moves, tallies) in walked:
            assert type(game.moves) is type(tally_moves) is tuple
            assert game.moves == tally_moves == moves
            assert tallies[:4] == game_stats(game)

    @pytest.mark.parametrize("length", sorted({*range(0, 13, 2), 2 * games.TAIL}))
    def test_young_walks_match_an_uncached_walk(self, length):
        reference = reference_walks(length, False, True)
        for (_, states), walk in zip(reference, young_closed_walks(length), strict=True):
            assert type(walk) is tuple
            assert walk == states

    @pytest.mark.parametrize("m", range(games.TAIL + 3))
    def test_walk_yields_labels_and_end_key(self, m):
        # a toy builder over int heights, labelled by step: the closed
        # walks of 2m steps from 0 are the Dyck paths of semilength m.
        # Walks of at most TAIL steps come from the short-walk branch,
        # longer ones from the stack and the tail cache
        def node(h, left):
            return [(s, h + s) for s in (1, -1) if 0 <= h + s <= left - 1]

        walked = list(games._closed_walks(2 * m, node, 0))
        assert walked == [(path, 0) for path in dyck_paths(m)]

    def test_plain_builder_keys_nodes_by_parts(self):
        # an entry is (label, next key), and a key is a state's parts
        game, young = games._nodes(False), games._nodes(True)
        assert game((), 2) == [(Move(MoveKind.PLATE_ADD), (1,))]
        assert game((1,), 1) == [(Move(MoveKind.PLATE_REMOVE_SIMPLE), ())]
        # a game may not empty the table before its last move; a Young walk may
        assert game((1,), 2) == []
        assert young((1,), 2) == [(EMPTY, ())]

    @pytest.mark.parametrize(
        "walks, is_key",
        [
            (lambda: enumerate_games(4), _int_tuple),
            (lambda: game_tallies(4), _tally_key),
            (lambda: young_closed_walks(8), _int_tuple),
        ],
        ids=["games", "game-tallies", "young-walks"],
    )
    def test_walk_asks_for_tuple_keys(self, monkeypatch, walks, is_key):
        # the walk hashes a node key at every step; a Partition hashes and
        # compares in Python, a tuple of ints in C
        keys = []
        walk = games._closed_walks

        def spied(length, node, *start):
            def asked(key, left):
                keys.append(key)
                return node(key, left)

            return walk(length, asked, *start)

        monkeypatch.setattr(games, "_closed_walks", spied)
        assert list(walks())
        assert keys
        assert [key for key in keys if not is_key(key)] == []

    @staticmethod
    def _count_grammar_calls(monkeypatch) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return legal_moves(*args, **kwargs)

        monkeypatch.setattr(games, "legal_moves", counted)
        return calls

    @pytest.mark.parametrize(
        "first, size, most_calls",
        [
            # 601 states, and 602 moves
            (lambda: next(young_closed_walks(600)), 601, 301),
            (lambda: next(enumerate_games(300, ceiling=300)).moves, 602, 302),
            (lambda: next(game_tallies(300, ceiling=300))[0], 602, 302),
        ],
        ids=["young_closed_walks(600)", "enumerate_games(300)", "game_tallies(300)"],
    )
    def test_walk_is_lazy(self, monkeypatch, first, size, most_calls):
        # the first walk builds only the nodes along it; an eager graph
        # would expand every partition of weight <= 300, and a recursive
        # walk would overflow the stack
        calls = self._count_grammar_calls(monkeypatch)
        walk = first()
        assert len(walk) == size
        assert len(calls) <= most_calls

    @pytest.mark.parametrize("n", range(6))
    def test_tallies_match_games_stats_and_projection(self, n):
        # the tally walk against the plain walk, game_stats and the olive
        # Dyck path, game by game in order
        walked = game_tallies(n)
        for game, (moves, tallies) in zip(enumerate_games(n), walked, strict=True):
            assert " ".join(map(str, moves)) == game.text
            assert tuple(tallies[:4]) == game_stats(game)
            up, height, low = tallies[4:]
            path = olive_dyck_path(game)
            assert up == path.semilength
            assert (height, low) == (path.heights()[-1], min(path.heights()))

    def test_tallies_track_a_path_that_dips(self, monkeypatch):
        # no game's olive path dips, so flip the walk's olive steps: every
        # projection with an olive then runs below the axis and back
        flipped = {kind: -step for kind, step in games._OLIVE_STEP.items()}
        monkeypatch.setattr(games, "_OLIVE_STEP", flipped)
        for n in range(4):
            walked = game_tallies(n)
            for game, (_, tallies) in zip(enumerate_games(n), walked, strict=True):
                steps = [flipped[m.kind._value_] for m in game.moves]
                heights = list(accumulate(steps, initial=0))
                assert tallies[4:] == (steps.count(1), heights[-1], min(heights))

    def test_tallies_fold_once_per_node_entry(self, monkeypatch):
        # the walk reads each move's tally column when it builds a node
        # entry, not again on every visit: 9,856 games at n = 5 pass
        # through 40,754 moves, and far fewer entries
        lookups = 0

        class Counted(dict):
            def __getitem__(self, kind):
                nonlocal lookups
                lookups += 1
                return super().__getitem__(kind)

        monkeypatch.setattr(games, "_TALLY_COLUMN", Counted(games._TALLY_COLUMN))
        assert sum(1 for _ in game_tallies(5)) == 9856
        assert 0 < lookups < 9856

    def test_counters_pinned_by_benchmark_selftest(self, monkeypatch):
        # perfbench/selftest.py pins games.states_expanded = 12 and
        # games.games = 76 for ``enumerate --n 3 --emit histogram``: an
        # oracle change that moves them must fail here too
        calls = self._count_grammar_calls(monkeypatch)
        tallies = 0
        stats = games.game_stats

        def counted(game):
            nonlocal tallies
            tallies += 1
            return stats(game)

        monkeypatch.setattr(games, "game_stats", counted)
        assert sum(stats_histogram(3).values()) == 76
        assert (len(calls), tallies) == (12, 76)


class TestDyckPaths:
    def test_semilength_zero_is_one_empty_path(self):
        assert list(dyck_paths(0)) == [()]

    def test_deep_path_needs_no_recursion(self):
        first = next(dyck_paths(600))
        assert first == (1,) * 600 + (-1,) * 600
        assert DyckPath(first).semilength == 600


class TestHistogram:
    def test_length_one(self):
        assert stats_histogram(1) == {(0, 0, 1, 0): 1, (1, 0, 0, 0): 1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_total_mass(self, n):
        histogram = stats_histogram(n)
        assert sum(histogram.values()) == GOLDEN_COUNTS[n]

    def test_ceiling_respected(self):
        with pytest.raises(CeilingExceeded):
            stats_histogram(9)
