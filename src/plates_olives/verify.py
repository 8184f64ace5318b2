"""Named check suites behind the ``verify`` subcommand.

Each suite returns CheckResult rows instead of printing, so the CLI and
the tests share one implementation.  The checks fall into five groups:

paper-values
    The tabulated constants: game counts through n = 4, the closed-walk
    counts with the recorded n = 4 discrepancy, tangent numbers, the
    geometric class table, Catalan numbers, and the ratio at n = 18.
identities
    Dual-route identities where a brute-force enumeration and a formula
    or dynamic program must agree.
oracle
    Literal enumeration of games against the counting DP.
bounds
    The proven double-factorial lower bound, ratio monotonicity, and
    coarse dominance relations between the count variants.
claims
    Per-state move-capacity caps and per-game structural invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import cache
from typing import Callable

from . import analysis, counting, games, partitions, references
from .errors import InvalidArgument, PlatesOlivesError
from .counting import DEFAULT_STATE_LIMIT
from .partitions import MoveKind

# The interim-returns closed-walk counts were once circulated as
# (15, 107, 981) for n = 2, 3, 4.  The first two reproduce exactly when
# complex plate-removes are included; no interpretation tested here
# reproduces 981, and the renewal identity over the certified game
# counts forces 1015, so the package records 1015 as the true value.
QUOTED_CLOSED_TRIPLE = (15, 107, 981)
CLOSED_WITH_MERGES = (1, 3, 15, 107, 1015)
CLOSED_WITHOUT_MERGES = (1, 3, 15, 105, 945)

GOLDEN_GAME_COUNTS = (1, 2, 10, 76, 772)
TANGENT_TABLE = (1, 2, 16, 272, 7936)
CATALAN_TABLE = (1, 1, 2, 5, 14)
RATIO_AT_18 = Decimal("1.09206")
RATIO_TOLERANCE = Decimal("0.00001")
# the claims suite reads the per-game claims of every game up to this length
CLAIMS_MAX_N = 6


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


# one pass over the games of length n: their number, then the detail of the
# first game breaking each per-game claim (None if none does)
SweepResult = tuple[int, str | None, str | None]
Sweep = Callable[[int], SweepResult]


def _check(results: list[CheckResult], name: str, ok: bool, detail: str = "") -> None:
    results.append(CheckResult(name=name, ok=bool(ok), detail=detail))


def renewal_closed_counts(game_counts: list[int]) -> list[int]:
    """Closed-walk counts implied by first-return counts.

    A closed walk splits uniquely at its returns to the empty table into
    first-return segments, so the closed count of length L is the sum
    over compositions of L into segment lengths 2k + 2 of the products
    of game counts.  This ties the two variants together with no shared
    counting code.
    """
    max_len = 2 * (len(game_counts) - 1) + 2
    by_len = [0] * (max_len + 1)
    by_len[0] = 1
    for length in range(2, max_len + 1, 2):
        by_len[length] = sum(
            game_counts[(seg - 2) // 2] * by_len[length - seg]
            for seg in range(2, length + 1, 2)
        )
    return [by_len[2 * n + 2] for n in range(len(game_counts))]


def suite_paper_values(ceiling: int, max_states: int, sweep: Sweep) -> list[CheckResult]:
    out: list[CheckResult] = []
    got = tuple(counting.count_games_through(4, max_states=max_states))
    _check(out, "game-counts-0-4", got == GOLDEN_GAME_COUNTS, f"got {got}")

    with_merges = tuple(counting.count_closed_walks_through(4, max_states=max_states))
    # without merges, closed walks are Young walks; drop the length-0 row
    without = tuple(counting.count_young_walks_through(5, max_states=max_states)[1:])
    _check(
        out,
        "closed-walks-2-3",
        with_merges[2:4] == QUOTED_CLOSED_TRIPLE[:2],
        f"got {with_merges[2:4]}, quoted {QUOTED_CLOSED_TRIPLE[:2]}",
    )
    _check(
        out,
        "closed-walks-n4-recorded-discrepancy",
        with_merges == CLOSED_WITH_MERGES
        and without == CLOSED_WITHOUT_MERGES
        and QUOTED_CLOSED_TRIPLE[2] not in (with_merges[4], without[4]),
        f"with merges {with_merges[4]}, without {without[4]}, "
        f"quoted {QUOTED_CLOSED_TRIPLE[2]} matches neither",
    )
    renewal = tuple(renewal_closed_counts(list(got)))
    _check(
        out,
        "closed-walks-renewal-consistency",
        renewal == with_merges,
        f"renewal over game counts gives {renewal}",
    )

    tangent = tuple(references.tangent_numbers(n) for n in range(5))
    _check(out, "tangent-numbers-0-4", tangent == TANGENT_TABLE, f"got {tangent}")

    _check(
        out,
        "geometric-class-table",
        references.GEOMETRIC_CLASS_COUNTS
        == ((0, 1), (1, 2), (2, 19), (3, 428), (4, 17746)),
        "fixed reference table",
    )

    cats = tuple(references.catalan(n) for n in range(5))
    _check(out, "catalan-0-4", cats == CATALAN_TABLE, f"got {cats}")

    m18 = counting.count_games(18, max_states=max_states)
    r18 = analysis.nth_root_ratio(m18, 18)
    _check(
        out,
        "ratio-at-18",
        abs(r18 - RATIO_AT_18) < RATIO_TOLERANCE,
        f"r_18 = {r18:.10f}",
    )
    return out


def suite_identities(ceiling: int, max_states: int, sweep: Sweep) -> list[CheckResult]:
    out: list[CheckResult] = []
    double_factorial = references.double_factorial
    brute = [references.weighted_dyck_sum_by_enumeration(v) for v in range(13)]
    dp = references.weighted_dyck_sum_by_dp_through(200)
    _check(
        out,
        "weighted-dyck-brute-vs-double-factorial",
        all(brute[v] == double_factorial(2 * v - 1) for v in range(13)),
        "v <= 12 by path enumeration",
    )
    _check(
        out,
        "weighted-dyck-dp-vs-double-factorial",
        all(dp[v] == double_factorial(2 * v - 1) for v in range(201)),
        "v <= 200 by dynamic program",
    )
    _check(
        out,
        "weighted-dyck-brute-vs-dp",
        brute == dp[:13],
        "dual routes agree where both run",
    )
    young = counting.count_young_walks_through(10, max_states=max_states)
    _check(
        out,
        "young-walks-vs-double-factorial",
        all(young[n] == double_factorial(2 * n - 1) for n in range(11)),
        "lengths 0..20",
    )
    _check(
        out,
        "proper-dyck-vs-catalan",
        all(
            references.count_proper_dyck_paths(n) == references.catalan(n)
            for n in range(11)
        ),
        "n <= 10 by path generation",
    )
    _check(
        out,
        "zigzag-filter-vs-tangent",
        all(
            references.count_zigzag_permutations(2 * n + 2) == references.tangent_numbers(n)
            for n in range(4)
        ),
        "permutation sizes 2, 4, 6, 8",
    )
    _check(
        out,
        "double-factorial-recurrence",
        all(double_factorial(m) == m * double_factorial(m - 2) for m in range(1, 36)),
        "m <= 35",
    )
    return out


def _sweep_games(n: int, ceiling: int) -> SweepResult:
    """Walk the games of length n once with ``games.game_tallies``: count
    them, and check the per-game claims on each from its tallies.  A game's
    text is built only for the first offender of each claim."""
    seen = 0
    bad_tally = bad_dyck = None
    walk = games.game_tallies(n, ceiling=ceiling)
    for seen, (moves, (v_f, v_l, p_s, p_c, up, height, low)) in enumerate(walk, 1):
        v = v_f + v_l
        if bad_tally is None and (v + p_s + p_c != n or p_c > v_f):
            bad_tally = f"stats violation in {games.Game(tuple(moves)).text}"
        if bad_dyck is None and (low < 0 or height or up != v):
            # the faults in the order the olive projection's DyckPath finds them
            if low < 0:
                fault = "path dips below the axis"
            elif height:
                fault = "path does not end at height 0"
            else:
                fault = "dyck semilength mismatch"
            bad_dyck = f"{fault} in {games.Game(tuple(moves)).text}"
    return seen, bad_tally, bad_dyck


def suite_oracle(ceiling: int, max_states: int, sweep: Sweep) -> list[CheckResult]:
    out: list[CheckResult] = []
    counts = counting.count_games_through(ceiling, max_states=max_states)
    for n in range(ceiling + 1):
        seen = sweep(n)[0]
        _check(
            out,
            f"enumeration-vs-dp-n{n}",
            seen == counts[n],
            f"enumerated {seen}, counted {counts[n]}",
        )
    return out


def suite_bounds(ceiling: int, max_states: int, sweep: Sweep) -> list[CheckResult]:
    out: list[CheckResult] = []
    counts = counting.count_games_through(18, max_states=max_states)
    _check(
        out,
        "double-factorial-lower-bound",
        all(counts[n] >= references.double_factorial(2 * n - 1) for n in range(1, 19)),
        "M_n >= (2n-1)!! for n <= 18",
    )
    table = analysis.ratio_table(counts)
    _check(
        out,
        "ratio-strictly-decreasing",
        not any(row.monotone_violation for row in table),
        "r_n decreasing for 1 <= n <= 18",
    )
    closed = counting.count_closed_walks_through(8, max_states=max_states)
    _check(
        out,
        "closed-dominates-first-return",
        all(closed[n] >= counts[n] for n in range(9)),
        "interim returns only add walks, n <= 8",
    )
    try:
        analysis.bound_table(counts)
        _check(out, "bound-table-builds", True, "n <= 18")
    except PlatesOlivesError as exc:
        _check(out, "bound-table-builds", False, str(exc))
    return out


def suite_claims(ceiling: int, max_states: int, sweep: Sweep) -> list[CheckResult]:
    out: list[CheckResult] = []
    cap_ok = True
    profile_ok = True
    simple_ok = True
    distinct_ok = True
    for state in partitions.partitions_up_to_weight(20):
        profile = partitions.move_capacity_profile(state)
        t = state.olive_count
        w = partitions.w_cap(t)
        cap_ok = cap_ok and (
            profile[MoveKind.OLIVE_ADD_LATER] <= w
            and profile[MoveKind.OLIVE_REMOVE] <= max(w - 1, 0)
            and profile[MoveKind.PLATE_REMOVE_COMPLEX] <= w * w
            and profile[MoveKind.PLATE_ADD] == 1
            and profile[MoveKind.OLIVE_ADD_FIRST] <= 1
            and profile[MoveKind.PLATE_REMOVE_SIMPLE] <= 1
        )
        moves = partitions.legal_moves(state)
        # the profile has all six kinds, as the caps above read them
        kinds = [move.kind for move, _ in moves]
        profile_ok = profile_ok and all(
            kinds.count(kind) == n for kind, n in profile.items()
        )
        successors = [nxt for _, nxt in moves]
        simple_ok = simple_ok and len(successors) == len(set(successors))
        # occupancy keys are the i with a_i != 0; their count is capped by
        # w_cap of the olive count, not just of the weight
        distinct_ok = distinct_ok and len(state.occupancy()) <= w
    _check(out, "distinct-part-sizes-capped", distinct_ok, "weight <= 20")
    _check(out, "move-capacity-caps", cap_ok, "weight <= 20")
    _check(out, "profile-matches-legal-moves", profile_ok, "weight <= 20")
    _check(out, "transition-graph-simple", simple_ok, "weight <= 20")

    top = min(ceiling, CLAIMS_MAX_N)
    bad_tally = bad_dyck = None
    for n in range(top + 1):
        _, tally, dyck = sweep(n)
        bad_tally, bad_dyck = bad_tally or tally, bad_dyck or dyck
    _check(
        out,
        "per-game-move-tallies",
        not bad_tally,
        bad_tally or f"v + p = n and p_c <= v_f, n <= {top}",
    )
    _check(
        out,
        "olive-dyck-projection",
        not bad_dyck,
        bad_dyck or "nonnegative, balanced, semilength v",
    )
    return out


# every suite is called as suite(ceiling, max_states, sweep), where sweep is
# the run's shared pass over the games of each length
SUITES = {
    "paper-values": suite_paper_values,
    "identities": suite_identities,
    "oracle": suite_oracle,
    "bounds": suite_bounds,
    "claims": suite_claims,
}


def run_suites(
    names: list[str],
    ceiling: int = games.DEFAULT_ORACLE_CEILING,
    max_states: int = DEFAULT_STATE_LIMIT,
) -> list[tuple[str, CheckResult]]:
    """Run the named suites in order; results are (suite, check) pairs.

    The games of each length are walked at most once per run, by one
    pass that both counts them for ``oracle`` and checks the per-game
    claims on them for ``claims``, whichever of the two suites is run.
    """
    if ceiling < 0:
        raise InvalidArgument("oracle ceiling must be nonnegative")
    sweep = cache(lambda n: _sweep_games(n, ceiling))
    out: list[tuple[str, CheckResult]] = []
    for name in names:
        for result in SUITES[name](ceiling, max_states, sweep):
            out.append((name, result))
    return out
