"""Partition states, move grammar, legal moves, and capacity caps."""

from __future__ import annotations

from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plates_olives import counting
from plates_olives.errors import IllegalMove
from plates_olives.partitions import (
    EMPTY,
    SINGLE_PLATE,
    Move,
    MoveKind,
    Partition,
    apply_move,
    legal_moves,
    move_capacity_profile,
    partitions_of_weight,
    partitions_up_to_weight,
    w_cap,
)

MAX_PROPERTY_WEIGHT = 20


@pytest.mark.parametrize("t, expected", [(0, 1), (1, 2), (2, 2), (3, 3), (6, 4)])
def test_w_cap_values(t, expected):
    assert w_cap(t) == expected


def test_w_cap_bracket_and_monotone():
    # w(t)(w(t)-1)/2 <= t < (w(t)+1)w(t)/2 and nondecreasing, t <= 10^6
    prev = 0
    for t in range(10**6 + 1):
        w = w_cap(t)
        assert w * (w - 1) // 2 <= t < (w + 1) * w // 2, t
        assert w >= prev
        prev = w


def test_w_cap_below_sqrt_3t():
    for t in range(10, 10**6 + 1):
        three_t = 3 * t
        ceil_root = isqrt(three_t - 1) + 1
        assert w_cap(t) <= ceil_root, t


def test_w_cap_rejects_negative():
    with pytest.raises(ValueError):
        w_cap(-1)


class TestPartition:
    def test_canonical_form(self):
        assert Partition((1, 3, 2)).parts == (3, 2, 1)
        assert Partition().parts == ()

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))
        # a bool is an int, but would print as <True>
        with pytest.raises(ValueError):
            Partition((True,))

    def test_derived_quantities(self):
        p = Partition((3, 2, 1))
        assert p.weight == 6
        assert p.plate_count == 3
        assert p.olive_count == 3
        assert p.occupancy() == {2: 1, 1: 1, 0: 1}
        assert EMPTY.is_empty and EMPTY.weight == 0

    def test_text_round_trip(self):
        for text in ("<>", "<1>", "<3,2,1>", "<5,5,1>"):
            assert str(Partition.parse(text)) == text

    @pytest.mark.parametrize(
        "bad",
        ["", "<", "3,2,1", "<3,2,>", "<1,2>", "<a>"]
        # int() reads these, but they do not print back as written
        + ["< 3,2>", "<2 ,1>", "<03>", "<+2,1>", "<1_0>"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Partition.parse(bad)


class TestMove:
    def test_tokens_round_trip(self):
        for text in ("P+", "O+f", "O+l:2", "O-:1", "P-s", "P-c:1,2", "P-c:3,3"):
            assert Move.parse(text).token() == text

    def test_complex_pair_is_unordered(self):
        assert Move(MoveKind.PLATE_REMOVE_COMPLEX, i=2, j=1).token() == "P-c:1,2"

    @pytest.mark.parametrize(
        "bad",
        ["", "P", "P+:1", "O+l", "O+l:0", "O-:x", "P-c:2,1", "P-c:1", "Q+"]
        # int() reads most of these, but they do not print back as written
        + ["O+l: 1", "O+l:01", "O+l:+1", "O+l:1_0", "P-c:1, 2", "P-c:1,2,3"]
        + ["O+l:1,2", "O-:\u0661"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Move.parse(bad)

    @pytest.mark.parametrize(
        "kind, params",
        [
            (MoveKind.OLIVE_ADD_LATER, (True,)),
            (MoveKind.OLIVE_REMOVE, (1.5,)),
            (MoveKind.PLATE_REMOVE_COMPLEX, (True, 2)),
            (MoveKind.PLATE_REMOVE_COMPLEX, (1, True)),
        ],
    )
    def test_rejects_parameters_that_are_not_ints(self, kind, params):
        # a bool is an int too, but O+l:True would apply as O+l:1
        with pytest.raises(ValueError):
            Move(kind, *params)


def _move_map(state):
    return {m.token(): str(q) for m, q in legal_moves(state)}


class TestLegalMoves:
    def test_single_plate(self):
        assert _move_map(SINGLE_PLATE) == {"P+": "<1,1>", "O+f": "<2>", "P-s": "<>"}

    def test_two_loaded_plates(self):
        assert _move_map(Partition((2, 2))) == {
            "P+": "<2,2,1>",
            "O+l:1": "<3,2>",
            "O-:1": "<2,1>",
            "P-c:1,1": "<3>",
        }

    def test_empty_table(self):
        assert _move_map(EMPTY) == {"P+": "<1>"}

    def test_young_restriction_drops_merges(self):
        tokens = {m.token() for m, _ in legal_moves(Partition((2, 2)), False)}
        assert tokens == {"P+", "O+l:1", "O-:1"}

    def test_sorted_by_token(self):
        for state in partitions_up_to_weight(8):
            tokens = [m.token() for m, _ in legal_moves(state)]
            assert tokens == sorted(tokens)


@st.composite
def partitions(draw, max_weight=40):
    """A random partition of weight at most ``max_weight``."""
    parts = []
    left = draw(st.integers(0, max_weight))
    while left:
        part = draw(st.integers(1, left))
        parts.append(part)
        left -= part
    return Partition(tuple(parts))


class TestSuccessorsUnvalidated:
    # these properties show each successor is canonical, agrees with
    # apply_move, and is an edge of the counting kernel's own move rule
    @settings(max_examples=300, deadline=None)
    @given(partitions(), st.booleans())
    def test_successors_are_canonical(self, state, allow_complex):
        pairs = legal_moves(state, allow_complex)
        tokens = [m.token() for m, _ in pairs]
        assert all(a < b for a, b in zip(tokens, tokens[1:]))
        for move, nxt in pairs:
            assert nxt == Partition(nxt.parts)
            assert type(nxt.parts) is tuple
            assert all(type(p) is int and p >= 1 for p in nxt.parts)
            assert all(a >= b for a, b in zip(nxt.parts, nxt.parts[1:]))
            assert apply_move(state, move) == nxt
        heavier, lighter = counting.legal_moves(state.parts, allow_complex)
        assert Counter(heavier + lighter) == Counter(nxt.parts for _, nxt in pairs)
        tally = Counter(m.kind for m, _ in pairs)
        profile = move_capacity_profile(state)
        if not allow_complex:
            profile[MoveKind.PLATE_REMOVE_COMPLEX] = 0
        assert {kind: tally[kind] for kind in MoveKind} == profile


@st.composite
def moves(draw):
    """A random move, with olive counts well past any table in the tests."""
    kind = draw(st.sampled_from(MoveKind))
    count = st.integers(1, 10**6)
    if kind in (MoveKind.OLIVE_ADD_LATER, MoveKind.OLIVE_REMOVE):
        return Move(kind, draw(count))
    if kind is MoveKind.PLATE_REMOVE_COMPLEX:
        return Move(kind, draw(count), draw(count))
    return Move(kind)


class TestParseRoundTrip:
    @given(moves())
    def test_move(self, move):
        assert Move.parse(move.token()) == move

    @given(partitions())
    def test_partition(self, state):
        assert Partition.parse(str(state)) == state


class TestApplyMove:
    @pytest.mark.parametrize(
        "state, token, result",
        [
            ("<2,1>", "O+f", "<2,2>"),
            ("<3,2>", "P-c:1,2", "<4>"),
            ("<1>", "P-s", "<>"),
            ("<>", "P+", "<1>"),
            ("<2,2>", "P-c:1,1", "<3>"),
            ("<3,3,2>", "O-:2", "<3,2,2>"),
        ],
    )
    def test_examples(self, state, token, result):
        got = apply_move(Partition.parse(state), Move.parse(token))
        assert str(got) == result

    @pytest.mark.parametrize(
        "state, token",
        [
            ("<>", "P-s"),
            ("<>", "O+f"),
            ("<2>", "O+f"),
            ("<2>", "P-s"),
            ("<1>", "O+l:1"),
            ("<2>", "O-:2"),
            ("<2>", "P-c:1,1"),
            ("<2,1>", "P-c:1,1"),
            ("<3,2>", "P-c:2,2"),
        ],
    )
    def test_illegal(self, state, token):
        with pytest.raises(IllegalMove):
            apply_move(Partition.parse(state), Move.parse(token))

    def test_matches_legal_moves_exhaustively(self):
        for state in partitions_up_to_weight(MAX_PROPERTY_WEIGHT):
            for move, target in legal_moves(state):
                assert apply_move(state, move) == target
                taken, put = move.exchange
                assert target.weight - state.weight == sum(put) - sum(taken)

    def test_agrees_with_legal_moves_both_ways(self):
        # every token the grammar names with counts up to the largest part
        for state in partitions_up_to_weight(14):
            legal = dict(legal_moves(state))
            counts = range(1, max(state.parts, default=0) + 1)
            tokens = ["P+", "O+f", "P-s"]
            tokens += [f"{kind}:{c}" for kind in ("O+l", "O-") for c in counts]
            tokens += [f"P-c:{c},{d}" for c in counts for d in counts if c <= d]
            moves = [Move.parse(token) for token in tokens]
            assert set(legal) <= set(moves), state
            for move in moves:
                try:
                    target = apply_move(state, move)
                except IllegalMove:
                    assert move not in legal, (state, move)
                else:
                    assert legal.get(move) == target, (state, move)


class TestCapacityProfile:
    def test_two_loaded_plates(self):
        profile = move_capacity_profile(Partition((2, 2)))
        assert profile == {
            MoveKind.PLATE_ADD: 1,
            MoveKind.OLIVE_ADD_FIRST: 0,
            MoveKind.OLIVE_ADD_LATER: 1,
            MoveKind.OLIVE_REMOVE: 1,
            MoveKind.PLATE_REMOVE_SIMPLE: 0,
            MoveKind.PLATE_REMOVE_COMPLEX: 1,
        }

    def test_empty_table(self):
        profile = move_capacity_profile(EMPTY)
        assert profile[MoveKind.PLATE_ADD] == 1
        assert sum(profile.values()) == 1

    def test_three_plate_staircase(self):
        profile = move_capacity_profile(Partition((3, 2, 1)))
        assert profile[MoveKind.OLIVE_ADD_LATER] == 2 <= w_cap(3)
        assert profile[MoveKind.OLIVE_REMOVE] == 2 <= w_cap(3) - 1
        assert profile[MoveKind.PLATE_REMOVE_COMPLEX] == 1 <= w_cap(3) ** 2

    def test_caps_hold_exhaustively(self):
        # move-count caps in terms of t = olive count, all weights <= 20
        for state in partitions_up_to_weight(MAX_PROPERTY_WEIGHT):
            profile = move_capacity_profile(state)
            w = w_cap(state.olive_count)
            assert profile[MoveKind.PLATE_ADD] == 1
            assert profile[MoveKind.OLIVE_ADD_FIRST] <= 1
            assert profile[MoveKind.PLATE_REMOVE_SIMPLE] <= 1
            assert profile[MoveKind.OLIVE_ADD_LATER] <= w
            assert profile[MoveKind.OLIVE_REMOVE] <= max(w - 1, 0)
            assert profile[MoveKind.PLATE_REMOVE_COMPLEX] <= w * w

    def test_profile_agrees_with_legal_moves(self):
        for state in partitions_up_to_weight(MAX_PROPERTY_WEIGHT):
            tally = Counter(m.kind for m, _ in legal_moves(state))
            profile = move_capacity_profile(state)
            assert {k: v for k, v in profile.items() if v} == dict(tally)


def test_occupancy_support_capped_by_w():
    # |{i : a_i != 0}| <= w_cap(olive count) for every partition, weight <= 20
    for state in partitions_up_to_weight(MAX_PROPERTY_WEIGHT):
        assert len(state.occupancy()) <= w_cap(state.olive_count)


def test_transition_graph_is_simple():
    for state in partitions_up_to_weight(MAX_PROPERTY_WEIGHT):
        successors = [q for _, q in legal_moves(state)]
        assert len(successors) == len(set(successors))


def test_partition_generators():
    assert [str(p) for p in partitions_of_weight(4)] == [
        "<4>",
        "<3,1>",
        "<2,2>",
        "<2,1,1>",
        "<1,1,1,1>",
    ]
    # partition numbers p(0)..p(10)
    sizes = [sum(1 for _ in partitions_of_weight(w)) for w in range(11)]
    assert sizes == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert sum(1 for _ in partitions_up_to_weight(10)) == sum(sizes)

