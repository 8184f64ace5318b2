"""Games: closed move sequences that leave and return to the empty table.

A game of length n is a sequence of 2n + 2 moves that starts at the empty
table, never revisits it in between, and ends back at it.  The first move
is forced to be P+ and the last to be P-s.  Exactly n of the remaining
moves raise the weight and n lower it, so games pair off additions with
removals the way balanced bracket sequences do.

Games print as their move tokens separated by single spaces, one game per
line, and the printed order of ``enumerate_games`` is lexicographic in
those token sequences.

Walks restricted to single-box moves are the closed walks in Young's
lattice, counted by the double factorial (2n - 1)!!.  Each Young walk
lifts to a game by keeping one extra empty plate on the table throughout,
which is how the double factorial becomes a lower bound for the game
count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import CeilingExceeded, InvalidArgument, InvalidWalk, NotClosed, PrematureEmpty
from .partitions import EMPTY, Move, MoveKind, Partition, legal_moves, apply_move

# Exhaustive enumeration grows like the game counts themselves; past this
# point callers must opt in explicitly.
DEFAULT_ORACLE_CEILING = 6


@dataclass(frozen=True)
class Game:
    """A validated game, stored as its moves."""

    moves: tuple[Move, ...]

    @cached_property
    def trace(self) -> tuple[Partition, ...]:
        """The states the game passes through, replayed by ``apply_move`` on
        first use: one more entry than ``moves``, empty at both ends."""
        return tuple(accumulate(self.moves, apply_move, initial=EMPTY))

    @property
    def n(self) -> int:
        return (len(self.moves) - 2) // 2

    @property
    def text(self) -> str:
        return " ".join(m.token() for m in self.moves)

    def __str__(self) -> str:
        return self.text


class GameStats(NamedTuple):
    """Per-kind move counts of a game, in histogram column order.

    v_f and v_l count O+f and O+l moves; p_c counts P-c moves; p_s counts
    P-s moves excluding the forced final one.  Splitting the 2n + 2 moves
    into n + 1 additions and n + 1 removals then gives v + p = n, where
    v = v_f + v_l and p = p_s + p_c.
    """

    v_f: int
    v_l: int
    p_s: int
    p_c: int

    @property
    def v(self) -> int:
        return self.v_f + self.v_l

    @property
    def p(self) -> int:
        return self.p_s + self.p_c


@dataclass(frozen=True)
class DyckPath:
    """A lattice path of +1/-1 steps that stays nonnegative and ends at 0."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        h = 0
        for s in self.steps:
            if type(s) is not int or s not in (1, -1):
                raise ValueError("steps must be +1 or -1")
            h += s
            if h < 0:
                raise ValueError("path dips below the axis")
        if h != 0:
            raise ValueError("path does not end at height 0")

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    def heights(self) -> tuple[int, ...]:
        """Heights after 0, 1, ..., len(steps) steps."""
        out = [0]
        for s in self.steps:
            out.append(out[-1] + s)
        return tuple(out)


def validate_game(moves: Iterable[Move]) -> Game:
    """Replay ``moves`` from the empty table and certify the game shape.

    Raises IllegalMove when a move cannot be applied, PrematureEmpty when
    the table clears before the final move, and NotClosed when the
    sequence is empty or fails to end on the empty table.
    """
    seq = tuple(moves)
    if not seq:
        raise NotClosed("a game has at least two moves")
    state = EMPTY
    last = len(seq) - 1
    for idx, move in enumerate(seq):
        state = apply_move(state, move)
        if state.is_empty and idx < last:
            raise PrematureEmpty(f"empty table after move {idx + 1} of {len(seq)}")
    if not state.is_empty:
        raise NotClosed(f"sequence ends at {state}, not at the empty table")
    return Game(moves=seq)


def parse_game(text: str) -> Game:
    """Parse one game from whitespace-separated move tokens and validate it."""
    return validate_game(Move.parse(tok) for tok in text.split())


def _nodes(young: bool) -> Callable[[tuple[int, ...], int], list[tuple]]:
    """The node builder of a plain walk: ``node(parts, left)`` is the
    cached list of ``(label, next parts)`` entries, one per successor that
    can still drain to the empty table in ``left`` moves.  Keys are part
    tuples, which hash in C, since the walk hashes one at every step.
    Games may merge plates and empty the table only at the end, and label
    a step with its move; ``young`` walks keep to single-box moves, may
    empty it midway, and label a step with the state it reaches.  Nodes
    are built on ``legal_moves``, called once per distinct state.
    """

    @cache
    def grammar(parts: tuple[int, ...]) -> list[tuple[Move, Partition]]:
        return legal_moves(Partition(parts), not young)

    @cache
    def node(parts: tuple[int, ...], left: int) -> list[tuple]:
        # weight w takes w more moves to drain, and this move counts
        return [
            (nxt if young else move, nxt.parts)
            for move, nxt in grammar(parts)
            if (w := nxt.weight) < left and (w or young or left == 1)
        ]

    return node


# The walk's last TAIL moves come from a cache: every prefix that reaches
# a node key at that depth reuses the one list of its tails.  Six moves
# walk the games of n = 7 in less than half the time four take, for a
# tally cache of about 2 MB; seven would gain some 15% more and double
# that cache.  A depth that grows with the length would list every tail
# of a long walk before its first one.
TAIL = 6


def _closed_walks(
    length: int,
    node: Callable[[Hashable, int], list[tuple]],
    start: Hashable = EMPTY.parts,
) -> Iterator[tuple[tuple, Hashable]]:
    """Depth-first, in the order of each node's entries, over the closed
    walks of ``length`` steps from ``start``.  Each walk yields (labels,
    end key): the tuple of its steps' labels and the key where it ends.

    ``node(key, left)`` is the cached list of ``(label, next key)``
    entries out of ``key`` with ``left`` steps to go; for ``_nodes`` the
    keys are part tuples, since the walk asks the cache at every step.
    One loop, with no recursion, pops (head, key) pairs off one stack:
    head is the tuple of a prefix's labels and key is where it ends.  A
    head shorter than ``top = max(length - TAIL, 0)`` pushes one pair per
    entry of its node, in reverse, so the first entry is popped first.
    A head of ``top`` labels ends one walk per entry of ``tails(key,
    length - top)``: the (labels, end key) pairs of every walk of that
    many steps from ``key`` to the drain, built once per key from the
    same nodes, so the closing steps are not walked again for every
    prefix.  A node is built only when a pair that reaches it is popped.
    A pending pair holds its whole head, so a walk ``d`` steps deep keeps
    O(d^2) labels on the stack.
    """

    @cache
    def tails(key: Hashable, left: int) -> list[tuple[tuple, Hashable]]:
        if not left:
            return [((), key)]
        return [
            ((label, *labels), end)
            for label, nxt in node(key, left)
            for labels, end in tails(nxt, left - 1)
        ]

    top = max(length - TAIL, 0)
    stack = [((), start)]
    while stack:
        head, key = stack.pop()
        if len(head) == top:
            for tail, end in tails(key, length - top):
                yield head + tail, end
            continue
        # pushed in reverse, the node's first entry is popped first
        for label, nxt in reversed(node(key, length - len(head))):
            stack.append((head + (label,), nxt))


def check_oracle_ceiling(ceiling: int) -> None:
    """Refuse a negative oracle ceiling, which would admit no length."""
    if ceiling < 0:
        raise InvalidArgument("oracle ceiling must be nonnegative")


def _check_game_length(n: int, ceiling: int) -> None:
    if n < 0:
        raise InvalidArgument("game length must be nonnegative")
    check_oracle_ceiling(ceiling)
    if n > ceiling:
        raise CeilingExceeded(
            f"exhaustive enumeration at n={n} exceeds the ceiling {ceiling}"
        )


def enumerate_games(n: int, ceiling: int = DEFAULT_ORACLE_CEILING) -> Iterator[Game]:
    """Every game of length ``n`` in lexicographic token order.

    The moves at each state are explored in token order, which makes the
    emitted sequence lexicographic.  ``ceiling`` guards against requests
    that cannot finish at desk scale; pass a larger value to go further.
    Bad arguments raise at the call, before the walk starts.
    """
    _check_game_length(n, ceiling)
    walks = _closed_walks(2 * n + 2, _nodes(False))
    return (Game(labels) for labels, _ in walks)


def skeleton(game: Game) -> tuple[str, ...]:
    """The move-kind labels of a game, forgetting the parameters."""
    # ``_value_`` is a plain attribute; ``.value`` is a Python-level property
    return tuple(m.kind._value_ for m in game.moves)


# The GameStats column of each move kind, and None for the kinds it does
# not tally, keyed by the kind's token.  The lookup reads the token as the
# member's plain ``_value_`` attribute, a str that hashes in C; a MoveKind
# key would hash through the Python-level ``Enum.__hash__``, and
# ``.value`` is a Python-level Enum property.
_TALLY_COLUMN = dict.fromkeys(kind._value_ for kind in MoveKind) | {
    kind._value_: column
    for column, kind in enumerate((
        MoveKind.OLIVE_ADD_FIRST,
        MoveKind.OLIVE_ADD_LATER,
        MoveKind.PLATE_REMOVE_SIMPLE,
        MoveKind.PLATE_REMOVE_COMPLEX,
    ))
}


def game_stats(game: Game) -> GameStats:
    # the closing P-s is forced, so it is not part of the tally
    tally = [0, 0, -1, 0]
    column = _TALLY_COLUMN
    for move in game.moves:
        if (col := column[move.kind._value_]) is not None:
            tally[col] += 1
    return GameStats._make(tally)


# The olive step of each move kind, keyed by token like _TALLY_COLUMN.
# P+, P-s and P-c leave the olive total unchanged, so they take no step.
_OLIVE_STEP = dict.fromkeys((kind.value for kind in MoveKind), 0) | {
    MoveKind.OLIVE_ADD_FIRST.value: 1,
    MoveKind.OLIVE_ADD_LATER.value: 1,
    MoveKind.OLIVE_REMOVE.value: -1,
}


def olive_dyck_path(game: Game) -> DyckPath:
    """Project a game onto olive moves only: +1 per olive added, -1 removed.

    Olives can never go negative and a game ends oliveless, so the result
    is a Dyck path of semilength v.
    """
    steps = [_OLIVE_STEP[m.kind._value_] for m in game.moves]
    return DyckPath(steps=tuple(filter(None, steps)))


def stats_histogram(n: int, ceiling: int = DEFAULT_ORACLE_CEILING) -> Counter[GameStats]:
    """Histogram of the GameStats of every game of length ``n``."""
    return Counter(map(game_stats, enumerate_games(n, ceiling=ceiling)))


def game_tallies(
    n: int, ceiling: int = DEFAULT_ORACLE_CEILING
) -> Iterator[tuple[tuple[Move, ...], tuple[int, ...]]]:
    """Every game of length ``n``, in the order of ``enumerate_games``,
    with its tallies, and no ``Game`` built.

    Each game yields (moves, tallies), two tuples.  ``tallies`` is
    ``(v_f, v_l, p_s, p_c, up, height, low)``: the ``game_stats`` row,
    then the up-steps, final height and lowest height of the olive
    projection.  So for every game, up is the semilength of
    ``olive_dyck_path`` and height and low are 0.  Each move's effect is
    read from the tables ``game_stats`` and ``olive_dyck_path`` use.

    The walk is ``_closed_walks`` over nodes keyed by (parts, tallies so
    far), two tuples, since the walk hashes a key at every step.  Each
    node's (move, next key) entries are built from the plain node of its
    parts, so a move's effect is folded once per entry, not once per
    visit.  A game's tallies are read off its end key, which games ending
    at the same node share.  Bad arguments raise at the call, before the
    walk starts.
    """
    _check_game_length(n, ceiling)
    plain = _nodes(False)
    column, olive_step = _TALLY_COLUMN, _OLIVE_STEP

    @cache
    def node(key: tuple[tuple[int, ...], tuple[int, ...]], left: int) -> list[tuple]:
        parts, before = key
        entries = []
        for move, nxt in plain(parts, left):
            kind = move.kind._value_
            after = list(before)
            if (col := column[kind]) is not None:
                after[col] += 1
            if step := olive_step[kind]:
                after[5] = height = after[5] + step
                if step > 0:
                    after[4] += 1
                elif height < after[6]:
                    after[6] = height
            entries.append((move, (nxt, tuple(after))))
        return entries

    # p_s starts at -1: the closing P-s is forced, as in game_stats
    start = ((), (0, 0, -1, 0, 0, 0, 0))
    return ((moves, end[1]) for moves, end in _closed_walks(2 * n + 2, node, start))


def young_closed_walks(length: int) -> Iterator[tuple[Partition, ...]]:
    """Every closed single-box walk of even ``length`` from the empty
    partition, as state tuples, in lexicographic move order.  The walk
    labels each step with the state it reaches, so a walk's states are
    the empty partition and its labels."""
    if length < 0 or length % 2:
        raise InvalidArgument("walk length must be even and nonnegative")
    walks = _closed_walks(length, _nodes(True))
    return ((EMPTY,) + states for states, _ in walks)


def _single_box_move(before: Partition, after: Partition) -> Move:
    """The move taking ``before`` to ``after`` when they differ by one box."""
    for move, nxt in legal_moves(before, allow_complex=False):
        if nxt == after:
            return move
    raise InvalidWalk(f"{before} -> {after} is not a single-box step")


def lift_young_walk(walk: Sequence[Partition]) -> Game:
    """Turn a closed Young walk into a game by parking one empty plate.

    The walk must start and end empty and move one box at a time.  The
    lifted game opens with P+ for the parked plate, replays the walk's
    moves (each one stays legal with the extra plate present, and O+f
    becomes legal exactly because of it), and closes with P-s.  Distinct
    walks lift to distinct games, which bounds the game count from below
    by the number of walks.
    """
    states = tuple(walk)
    if len(states) % 2 == 0:
        raise InvalidWalk("a closed walk has an odd number of states")
    if not states[0].is_empty or not states[-1].is_empty:
        raise InvalidWalk("walk must start and end at the empty partition")
    moves = [Move(MoveKind.PLATE_ADD)]
    for before, after in zip(states, states[1:]):
        moves.append(_single_box_move(before, after))
    moves.append(Move(MoveKind.PLATE_REMOVE_SIMPLE))
    return validate_game(moves)
