"""Exact enumeration and counting for the game of plates and olives.

The game tracks a table of plates, each carrying some olives, through
moves that add or remove a plate or an olive one at a time (with a
combine-two-plates move as the only compound step).  Games that start
and end with the empty table, never clearing it in between, are in
bijection with topological equivalence classes of excellent Morse
functions on the 2-sphere, indexed by their number of saddle points.

The package computes the exact game counts, enumerates the games
themselves at small n, checks the combinatorial identities behind the
known lower bound, and reports the growth-ratio statistics.
"""

from .analysis import (
    BoundReport,
    RatioReport,
    bound_table,
    nth_root_ratio,
    ratio_table,
)
from .counting import (
    DEFAULT_STATE_LIMIT,
    WalkCounter,
    count_closed_walks,
    count_closed_walks_through,
    count_games,
    count_games_through,
    count_young_walks,
    count_young_walks_through,
)
from .errors import (
    CeilingExceeded,
    IllegalMove,
    InvalidArgument,
    InvalidWalk,
    NotClosed,
    PlatesOlivesError,
    PrematureEmpty,
    ResourceLimit,
)
from .games import (
    DEFAULT_ORACLE_CEILING,
    DyckPath,
    Game,
    GameStats,
    enumerate_games,
    game_stats,
    lift_young_walk,
    olive_dyck_path,
    parse_game,
    skeleton,
    stats_histogram,
    validate_game,
    young_closed_walks,
)
from .partitions import (
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
from .references import (
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

__version__ = "1.0.0"
