"""Counting DP against independent brute-force oracles and identities."""

from __future__ import annotations

from collections import Counter
from functools import cache

import pytest

from plates_olives import counting, partitions
from plates_olives.counting import (
    DEFAULT_STATE_LIMIT,
    WalkCounter,
    count_closed_walks,
    count_closed_walks_through,
    count_games,
    count_games_through,
    count_young_walks,
    count_young_walks_through,
)
from plates_olives.errors import InvalidArgument, InvalidWalk, ResourceLimit
from plates_olives.games import (
    enumerate_games,
    lift_young_walk,
    validate_game,
    young_closed_walks,
)
from plates_olives.partitions import (
    EMPTY,
    SINGLE_PLATE,
    Partition,
    legal_moves,
    partitions_up_to_weight,
)
from plates_olives.references import (
    GEOMETRIC_CLASS_COUNTS,
    catalan,
    count_proper_dyck_paths,
    count_zigzag_permutations,
    double_factorial,
    dyck_paths,
    tangent_numbers,
    updown_numbers,
    weighted_dyck_sum_by_dp_through,
    weighted_dyck_sum_by_enumeration,
)
from plates_olives.verify import renewal_closed_counts

GOLDEN_COUNTS = (1, 2, 10, 76, 772)

# Interim-returns walk counts, frozen after cross-checking three ways:
# the layered DP, the literal recursion below, and the renewal identity
# over the certified game counts.  A value of 981 once circulated for
# n = 4; it matches neither variant.
CLOSED_WITH_MERGES = (1, 3, 15, 107, 1015)
CLOSED_WITHOUT_MERGES = (1, 3, 15, 105, 945)


def brute_closed_walks(n: int, allow_complex: bool = True) -> int:
    """Literal recursion over all walks; independent of WalkCounter."""
    total = 2 * n + 2

    def rec(state: Partition, done: int) -> int:
        if done == total:
            return 1 if state.is_empty else 0
        return sum(
            rec(nxt, done + 1) for _, nxt in legal_moves(state, allow_complex)
        )

    return rec(EMPTY, 0)


def brute_returns(
    start: Partition, semilength: int, allow_complex: bool, allow_interim_empty: bool
) -> int:
    """Walks of 2 * semilength grammar moves from ``start`` back to it,
    memoised on (state, steps taken) and never pruned by weight.  Without
    interim empties the empty table may only be the last state."""
    total = 2 * semilength

    @cache
    def rec(state: Partition, done: int) -> int:
        if done == total:
            return int(state == start)
        return sum(
            rec(nxt, done + 1)
            for _, nxt in legal_moves(state, allow_complex)
            if allow_interim_empty or not nxt.is_empty or done + 1 == total
        )

    return rec(start, 0)


class TestGameCounts:
    def test_golden_sequence(self):
        assert tuple(count_games_through(4)) == GOLDEN_COUNTS

    def test_single_value_calls(self):
        assert count_games(0) == 1
        assert count_games(4) == 772

    def test_matches_enumeration_oracle(self):
        for n in range(6):
            assert count_games(n) == sum(1 for _ in enumerate_games(n))

    def test_value_at_five(self):
        # 9856 was additionally confirmed by a prune-free search over all
        # move sequences; kept as a regression tripwire
        assert count_games(5) == 9856

    def test_through_is_consistent_with_pointwise(self):
        through = count_games_through(8)
        assert [count_games(n) for n in range(9)] == through

    def test_first_return_reduction(self):
        # the kernel's forced-endpoint, weight-pruned count against walks
        # of grammar moves that prune nothing: from the empty table back
        # to it for the first time, and from <1> back to <1> without it
        for n, count in enumerate(count_games_through(8)):
            assert brute_returns(EMPTY, n + 1, True, False) == count
            assert brute_returns(SINGLE_PLATE, n, True, False) == count

    def test_determinism(self):
        assert str(count_games(12)) == str(count_games(12))
        a = [str(c) for c in count_games_through(12)]
        b = [str(c) for c in count_games_through(12)]
        assert a == b

    def test_state_budget_enforced(self):
        with pytest.raises(ResourceLimit):
            count_games(10, max_states=20)
        # a huge n must hit the budget at once, not loop over its length first
        with pytest.raises(ResourceLimit):
            count_games(10**8, max_states=20)

    def test_state_table_size_known_in_advance(self):
        # each family's walk interns exactly the partitions of weight <=
        # max_weight, or only its start when it takes no step
        sizes = Counter(state.weight for state in partitions_up_to_weight(22))
        for w in range(23):
            total = sum(sizes[v] for v in range(w + 1))
            assert counting._partitions_through(w, 10**9) == total
        for n in range(21):
            for start, semilength, allow_complex in (
                (SINGLE_PLATE, n, True),  # games
                (EMPTY, n + 1, True),  # closed walks
                (EMPTY, n, False),  # Young walks
            ):
                counter = WalkCounter(start, semilength, allow_complex)
                counter.counts()
                predicted = counting._partitions_through(counter.max_weight, 10**9)
                assert len(counter._interner) == (predicted if semilength else 1)

    def test_partition_sum_stops_once_past_limit(self):
        # 1, 2, 4, 7, 12 partitions of weight <= 0..4: stop at the first above 10
        assert counting._partitions_through(10**9, 10) == 12
        assert counting._partitions_through(62, 10**9) == 9_061_010
        assert counting._partitions_through(63, 10**9) == 10_566_509

    @pytest.mark.parametrize(
        "count_through", [count_games_through, count_closed_walks_through]
    )
    def test_state_budget_checked_before_any_work(self, monkeypatch, count_through):
        # Σ_{w <= 11} p(w) = 195 states for n = 10: the budget's edge, both
        # ways; past it nothing is expanded, so a huge request costs nothing
        assert count_through(10, max_states=195)[-1] == count_through(10)[-1]

        def no_work(*args):
            raise AssertionError("expanded a state past the budget")

        monkeypatch.setattr(counting, "legal_moves", no_work)
        for max_n, max_states in ((10, 194), (62, DEFAULT_STATE_LIMIT), (10**9, 10**12)):
            with pytest.raises(ResourceLimit, match=f"more than {max_states} distinct"):
                count_through(max_n, max_states=max_states)
        with pytest.raises(ResourceLimit):
            count_young_walks_through(10**9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_games(-1)


class TestWalkCounter:
    def test_layer_weight_support(self):
        # every live state at layer k weighs at most 1 + min(k, 12 - k)
        counter = WalkCounter(start=SINGLE_PLATE, semilength=6)
        for k in range(1, 13):
            counter.advance()
            cap = 1 + min(k, 12 - k)
            for state, ways in counter.support():
                assert state.weight <= cap
                assert ways > 0
                # interim empties are banned, at odd steps and the last one too
                assert state != EMPTY

    def test_advance_past_end_rejected(self):
        counter = WalkCounter(start=EMPTY, semilength=0)
        with pytest.raises(ValueError):
            counter.advance()

    def test_counts_after_advance_rejected(self):
        # an advanced counter would return a short list, not an error
        counter = WalkCounter(start=EMPTY, semilength=2)
        counter.advance()
        with pytest.raises(ValueError, match="has not advanced"):
            counter.counts()

    def test_max_weight_is_peak_layer_cap(self):
        for s in range(6):
            for semilength in range(20):
                counter = WalkCounter(start=Partition((1,) * s), semilength=semilength)
                steps = range(2 * semilength + 1)
                assert counter.max_weight == max(map(counter._weight_cap, steps))

    def test_max_states_must_be_positive(self):
        with pytest.raises(InvalidArgument, match="max_states must be positive"):
            WalkCounter(start=EMPTY, semilength=1, max_states=0)

    def test_negative_semilength_rejected(self):
        with pytest.raises(InvalidArgument, match="semilength must be nonnegative"):
            WalkCounter(start=EMPTY, semilength=-1)

    @pytest.mark.parametrize("start", list(partitions_up_to_weight(3)), ids=str)
    def test_heavier_starts_match_grammar_walk(self, start):
        # every start of weight <= 3, not only <> and <1>, so the start's
        # weight in max_weight, the prune and the start's empty-table rule
        # are checked against a memoised walk over the grammar that prunes
        # nothing; one counter per start gives every shorter count too
        for allow_complex in (True, False):
            counter = WalkCounter(start, 3, allow_complex=allow_complex)
            assert counter.counts() == [
                brute_returns(start, s, allow_complex, start.is_empty) for s in range(4)
            ]

    def test_state_table_read_by_benchmark_tracer(self):
        # perfbench/tracing.py reads layer, _succ and _interner after each step
        counter = WalkCounter(start=SINGLE_PLATE, semilength=5)
        seen = {SINGLE_PLATE}
        for _ in range(10):
            before = list(counter.layer)
            expanded = [state for state, _ in counter.support()]
            counter.advance()
            for state in expanded:
                seen.update(
                    nxt for _, nxt in legal_moves(state) if nxt.weight <= counter.max_weight
                )
            assert len(counter._interner) == len(seen)
            assert set(counter._interner) == {state.parts for state in seen}
            assert all(isinstance(counter._succ[sid], list) for sid in before)
            assert all(
                isinstance(sid, int) and isinstance(ways, int) and ways > 0
                for sid, ways in counter.layer.items()
            )


    def test_counters_pinned_by_benchmark_selftest(self, monkeypatch):
        # perfbench/selftest.py pins these for ``count --max-n 6``: a kernel
        # change that moves them must fail here too
        calls = 0
        legal = counting.legal_moves

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return legal(*args, **kwargs)

        advance = WalkCounter.advance
        seen = {"traversed": 0, "peak": 0, "bits": 0}
        counters = set()

        def traced(counter):
            before = list(counter.layer)
            advance(counter)
            counters.add(counter)
            seen["traversed"] += sum(len(counter._succ[sid]) for sid in before)
            seen["peak"] = max(seen["peak"], len(before), len(counter.layer))
            bits = max(ways.bit_length() for ways in counter.layer.values())
            seen["bits"] = max(seen["bits"], bits)

        monkeypatch.setattr(counting, "legal_moves", counted)
        monkeypatch.setattr(WalkCounter, "advance", traced)
        assert count_games_through(6)[-1] == 152_099
        (counter,) = counters
        assert calls == 44
        assert sum(map(len, counter._succ.values())) == 166
        assert seen == {"traversed": 435, "peak": 26, "bits": 18}


class TestKernelMoveRule:
    def test_matches_grammar_exhaustively(self):
        # the kernel's rule on part tuples against the move grammar, edge
        # for edge, for every partition of weight <= 20
        for state in partitions_up_to_weight(20):
            for allow_complex in (True, False):
                heavier, lighter = counting.legal_moves(state.parts, allow_complex)
                grammar = legal_moves(state, allow_complex)
                assert Counter(heavier + lighter) == Counter(q.parts for _, q in grammar)
                assert len(set(heavier + lighter)) == len(heavier + lighter)
                assert all(sum(parts) == state.weight + 1 for parts in heavier)
                assert all(sum(parts) == state.weight - 1 for parts in lighter)

    def test_counts_do_not_use_the_grammar(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("the counting kernel called the move grammar")

        monkeypatch.setattr(partitions, "legal_moves", broken)
        monkeypatch.setattr(partitions, "_successor", broken)
        assert count_games_through(8) == [
            1, 2, 10, 76, 772, 9856, 152_099, 2_758_931, 57_602_672
        ]
        assert tuple(count_closed_walks_through(4)) == CLOSED_WITH_MERGES
        assert tuple(count_young_walks_through(5)[1:]) == CLOSED_WITHOUT_MERGES


class TestClosedWalks:
    def test_frozen_values(self):
        assert tuple(count_closed_walks_through(4)) == CLOSED_WITH_MERGES
        # without plate merges the closed walks are the Young walks
        assert tuple(count_young_walks_through(5)[1:]) == CLOSED_WITHOUT_MERGES

    def test_brute_force_oracle(self):
        for n in range(4):
            assert count_closed_walks(n) == brute_closed_walks(n)
            assert count_young_walks(2 * n + 2) == brute_closed_walks(
                n, allow_complex=False
            )

    def test_renewal_identity(self):
        # closed walks split at empty-table visits into first-return
        # segments, so they are determined by the game counts
        games = count_games_through(4)
        by_len = [0] * 11
        by_len[0] = 1
        for length in range(2, 11, 2):
            by_len[length] = sum(
                games[(seg - 2) // 2] * by_len[length - seg]
                for seg in range(2, length + 1, 2)
            )
        assert [by_len[2 * n + 2] for n in range(5)] == list(CLOSED_WITH_MERGES)

    def test_renewal_identity_through_24(self):
        # the same identity, through verify's renewal helper, far past
        # the frozen values: one DP pass on each side
        assert renewal_closed_counts(count_games_through(24)) == (
            count_closed_walks_through(24)
        )

    def test_dominates_first_return(self):
        games = count_games_through(8)
        closed = count_closed_walks_through(8)
        for n in range(9):
            assert closed[n] >= games[n]


class TestYoungWalks:
    def test_small_values(self):
        assert count_young_walks(0) == 1
        assert count_young_walks(2) == 1
        assert count_young_walks(4) == 3

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidArgument):
            count_young_walks(3)

    def test_double_factorial_identity(self):
        for n in range(11):
            assert count_young_walks(2 * n) == double_factorial(2 * n - 1)

    def test_through_variant(self):
        assert count_young_walks_through(6) == [
            count_young_walks(2 * n) for n in range(7)
        ]

    def test_enumeration_agrees(self):
        for length in range(0, 11, 2):
            walks = list(young_closed_walks(length))
            assert len(walks) == count_young_walks(length)
            assert len(set(walks)) == len(walks)
            for walk in walks:
                assert walk[0] == EMPTY and walk[-1] == EMPTY
                assert len(walk) == length + 1


class TestLiftYoungWalk:
    def test_length_two_walk(self):
        game = lift_young_walk((EMPTY, SINGLE_PLATE, EMPTY))
        assert game.text == "P+ P+ P-s P-s"

    def test_length_four_walk_with_olive(self):
        walk = tuple(
            Partition.parse(s) for s in ("<>", "<1>", "<2>", "<1>", "<>")
        )
        game = lift_young_walk(walk)
        assert game.n == 2
        assert [str(p) for p in game.trace] == [
            "<>",
            "<1>",
            "<1,1>",
            "<2,1>",
            "<1,1>",
            "<1>",
            "<>",
        ]

    def test_all_length_four_walks(self):
        games = [lift_young_walk(w) for w in young_closed_walks(4)]
        assert len(games) == 3
        assert len({g.text for g in games}) == 3
        for game in games:
            assert game.n == 2

    def test_injective_through_n3(self):
        for n in range(4):
            lifted = {lift_young_walk(w).text for w in young_closed_walks(2 * n)}
            assert len(lifted) == double_factorial(2 * n - 1)

    @pytest.mark.parametrize(
        "states",
        [
            ("<>", "<1>"),  # even number of states
            ("<1>", "<1,1>", "<1>"),  # endpoints not empty
            ("<>", "<2>", "<>"),  # two boxes in one step
            ("<>", "<1>", "<1>", "<1>", "<>"),  # no-op step
            ("<>", "<1>", "<3>", "<1>", "<>"),  # jump
        ],
    )
    def test_invalid_walks_rejected(self, states):
        walk = tuple(Partition.parse(s) for s in states)
        with pytest.raises(InvalidWalk):
            lift_young_walk(walk)

    def test_interim_empty_is_fine_after_lift(self):
        # raw walks may revisit the empty partition; the parked plate
        # keeps the lifted game away from the empty table
        walk = tuple(Partition.parse(s) for s in ("<>", "<1>", "<>", "<1>", "<>"))
        game = lift_young_walk(walk)
        assert game.n == 2
        assert validate_game(game.moves) == game


class TestWeightedDyckSum:
    def test_tiny_cases(self):
        # semilength 2: UUDD weighs 1*2, UDUD weighs 1*1
        assert [weighted_dyck_sum_by_enumeration(v) for v in range(3)] == [1, 1, 3]
        assert weighted_dyck_sum_by_dp_through(2) == [1, 1, 3]

    def test_value_at_eight(self):
        assert weighted_dyck_sum_by_enumeration(8) == 2027025 == double_factorial(15)

    def test_routes_agree(self):
        sums = weighted_dyck_sum_by_dp_through(9)
        assert sums == [weighted_dyck_sum_by_enumeration(v) for v in range(10)]

    def test_double_factorial_identity_dp(self):
        sums = weighted_dyck_sum_by_dp_through(59)
        assert sums == [double_factorial(2 * v - 1) for v in range(60)]

    def test_one_fold_gives_every_semilength(self):
        sums = weighted_dyck_sum_by_dp_through(40)
        # a fold to v alone caps the height lower, and gives the same sum
        assert sums == [weighted_dyck_sum_by_dp_through(v)[-1] for v in range(41)]
        assert sums == [double_factorial(2 * v - 1) for v in range(41)]
        assert weighted_dyck_sum_by_dp_through(0) == [1]
        with pytest.raises(ValueError):
            weighted_dyck_sum_by_dp_through(-1)

    def test_path_generator(self):
        assert list(dyck_paths(0)) == [()]
        assert sorted(dyck_paths(2)) == [(1, -1, 1, -1), (1, 1, -1, -1)]
        for v in range(7):
            paths = list(dyck_paths(v))
            assert len(paths) == catalan(v)
            assert len(set(paths)) == len(paths)


class TestCatalan:
    def test_golden_values(self):
        assert [catalan(n) for n in range(5)] == [1, 1, 2, 5, 14]

    def test_proper_paths_semilength_one(self):
        assert count_proper_dyck_paths(0) == 1

    def test_brute_force_matches_formula(self):
        for n in range(9):
            assert count_proper_dyck_paths(n) == catalan(n)


class TestTangent:
    def test_golden_values(self):
        assert [tangent_numbers(n) for n in range(5)] == [1, 2, 16, 272, 7936]

    def test_updown_prefix(self):
        # zig-zag numbers E_0..E_9
        assert updown_numbers(9) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]

    def test_brute_force_filter(self):
        assert count_zigzag_permutations(4) == 2
        assert count_zigzag_permutations(6) == 16
        for n in range(3):
            assert count_zigzag_permutations(2 * n + 2) == tangent_numbers(n)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            count_zigzag_permutations(5)


def test_geometric_class_reference():
    table = GEOMETRIC_CLASS_COUNTS
    assert table == ((0, 1), (1, 2), (2, 19), (3, 428), (4, 17746))
    assert dict(table)[2] == 19


class TestDoubleFactorial:
    def test_examples(self):
        assert double_factorial(-1) == 1
        assert double_factorial(5) == 15

    def test_recurrence(self):
        for m in range(1, 36):
            assert double_factorial(m) == m * double_factorial(m - 2)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-3)


def test_counts_dominate_double_factorial():
    counts = count_games_through(12)
    for n in range(1, 13):
        assert counts[n] >= double_factorial(2 * n - 1)
