"""Partition states and the legal moves of the game of plates and olives.

A table configuration is recorded as an integer partition: a plate carrying
c olives contributes a part of size c + 1, so an empty plate is a part of
size 1 and the empty table is the empty partition.  The weight of the
partition (sum of parts) is therefore plates plus olives.

Six kinds of move act on a configuration.  Their tokens form a small
grammar that is shared by the whole package; ``parse`` accepts exactly
the text that ``token`` and ``str`` print:

    P+         put a new empty plate on the table
    O+f        put an olive on some empty plate
    O+l:i      put an olive on a plate already carrying i >= 1 olives
    O-:i       take an olive off a plate carrying i >= 1 olives
    P-s        remove an empty plate
    P-c:i,j    combine two plates carrying i and j olives (i <= j, both
               >= 1) onto one plate and remove the emptied plate

Moves are identified by what they consume, not by which physical plate is
touched, so two plates with the same olive count are interchangeable and
each token names at most one legal transition.  ``Move.exchange`` states
each move's effect once, as the parts it takes off the table and the parts
it puts back; a move is legal exactly when the parts it takes are there.
Adding moves (P+, O+f, O+l) raise the weight by one; the removing moves
lower it by one.

Partitions print with parts nonincreasing and comma-separated inside
angle brackets, "<3,2,1>", and the empty partition prints as "<>".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Iterator

from .errors import IllegalMove


def w_cap(t: int) -> int:
    """Largest t' >= 1 with t'(t'-1)/2 <= t.

    A configuration of weight t has at most w_cap(t) distinct part sizes,
    since k distinct sizes already weigh at least 1 + 2 + ... + k.  The
    per-state move capacities below are all controlled by this quantity.
    """
    if t < 0:
        raise ValueError("weight must be nonnegative")
    return (1 + isqrt(1 + 8 * t)) // 2


def _is_count(value: object) -> bool:
    # exact int only: a bool is an int too, but prints as True
    return type(value) is int and value >= 1


class MoveKind(Enum):
    PLATE_ADD = "P+"
    OLIVE_ADD_FIRST = "O+f"
    OLIVE_ADD_LATER = "O+l"
    OLIVE_REMOVE = "O-"
    PLATE_REMOVE_SIMPLE = "P-s"
    PLATE_REMOVE_COMPLEX = "P-c"


@dataclass(frozen=True, slots=True)
class Move:
    """One move token.

    ``i`` holds the olive count named by O+l:i / O-:i, and ``i``, ``j``
    hold the unordered pair (stored with i <= j) named by P-c:i,j.  The
    parameterless kinds leave both fields as None.
    """

    kind: MoveKind
    i: int | None = None
    j: int | None = None

    def __post_init__(self) -> None:
        kind, i, j = self.kind, self.i, self.j
        if kind in (MoveKind.OLIVE_ADD_LATER, MoveKind.OLIVE_REMOVE):
            if not _is_count(i) or j is not None:
                raise ValueError(f"{kind.value} takes a single olive count >= 1")
        elif kind is MoveKind.PLATE_REMOVE_COMPLEX:
            if not (_is_count(i) and _is_count(j)):
                raise ValueError("P-c takes an unordered pair of counts >= 1")
            if i > j:
                # the pair is unordered; store it canonically as i <= j
                object.__setattr__(self, "i", j)
                object.__setattr__(self, "j", i)
        elif i is not None or j is not None:
            raise ValueError(f"{kind.value} takes no parameters")

    @property
    def exchange(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(taken, put): the parts this move removes from the table and the
        parts it adds back.  This is the one statement of what a move does."""
        kind, i, j = self.kind, self.i, self.j
        if kind is MoveKind.PLATE_ADD:
            return (), (1,)
        if kind is MoveKind.OLIVE_ADD_FIRST:
            return (1,), (2,)
        if kind is MoveKind.PLATE_REMOVE_SIMPLE:
            return (1,), ()
        if kind is MoveKind.OLIVE_ADD_LATER:
            return (i + 1,), (i + 2,)
        if kind is MoveKind.OLIVE_REMOVE:
            return (i + 1,), (i,)
        return (i + 1, j + 1), (i + j + 1,)

    def token(self) -> str:
        kind = self.kind
        if kind is MoveKind.OLIVE_ADD_LATER or kind is MoveKind.OLIVE_REMOVE:
            return f"{kind.value}:{self.i}"
        if kind is MoveKind.PLATE_REMOVE_COMPLEX:
            return f"{kind.value}:{self.i},{self.j}"
        return kind.value

    def __str__(self) -> str:
        return self.token()

    @classmethod
    def parse(cls, token: str) -> "Move":
        """The move whose token is exactly ``token``."""
        head, sep, tail = token.partition(":")
        try:
            move = cls(MoveKind(head), *(map(int, tail.split(",")) if sep else ()))
            if move.token() == token:
                return move
        except (TypeError, ValueError):
            pass
        raise ValueError(f"malformed move token {token!r}")


@dataclass(frozen=True, slots=True)
class Partition:
    """A table state in canonical form: a nonincreasing tuple of parts >= 1."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        # exact int only: a bool is an int too, but prints as True
        if parts and ({*map(type, parts)} != {int} or min(parts) < 1):
            raise ValueError("parts must be integers >= 1")
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def plate_count(self) -> int:
        return len(self.parts)

    @property
    def olive_count(self) -> int:
        return self.weight - self.plate_count

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def occupancy(self) -> dict[int, int]:
        """Map olive count -> number of plates carrying exactly that many."""
        return dict(Counter(part - 1 for part in self.parts))

    def __str__(self) -> str:
        return "<" + ",".join(str(p) for p in self.parts) + ">"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """The partition that prints exactly as ``text``."""
        body = text[1:-1]
        try:
            state = cls(tuple(map(int, body.split(","))) if body else ())
            if str(state) == text:
                return state
        except ValueError:
            pass
        raise ValueError(f"malformed partition literal {text!r}")


EMPTY = Partition()
SINGLE_PLATE = Partition((1,))


def _successor(
    parts: tuple[int, ...], taken: tuple[int, ...], put: tuple[int, ...]
) -> Partition:
    """What is left of ``parts`` after taking ``taken`` and putting ``put``."""
    rest = list(parts)
    for part in taken:
        rest.remove(part)
    return Partition((*rest, *put))


def legal_moves(
    state: Partition, allow_complex: bool = True
) -> list[tuple[Move, Partition]]:
    """All legal (move, successor) pairs at ``state``, sorted by move token.

    ``allow_complex=False`` drops the P-c moves; what remains are exactly
    the single-box moves of Young's lattice plus the constraint that O+f,
    P-s need an empty plate on the table.
    """
    parts = state.parts
    plates = Counter(parts)  # part -> plates with part - 1 olives
    held = sorted(part - 1 for part in plates if part >= 2)
    moves = [Move(MoveKind.PLATE_ADD)]
    if 1 in plates:
        moves += [Move(MoveKind.OLIVE_ADD_FIRST), Move(MoveKind.PLATE_REMOVE_SIMPLE)]
    for c in held:
        moves += [Move(MoveKind.OLIVE_ADD_LATER, c), Move(MoveKind.OLIVE_REMOVE, c)]
    if allow_complex:
        moves += [
            Move(MoveKind.PLATE_REMOVE_COMPLEX, ci, cj)
            for a, ci in enumerate(held)
            for cj in held[a:]
            if ci != cj or plates[ci + 1] >= 2
        ]
    moves.sort(key=Move.token)
    return [(move, _successor(parts, *move.exchange)) for move in moves]


def apply_move(state: Partition, move: Move) -> Partition:
    """Apply one move, raising IllegalMove unless every part it takes is on
    the table."""
    taken, put = move.exchange
    if Counter(taken) - Counter(state.parts):
        raise IllegalMove(f"{move} takes plates that {state} does not have")
    return _successor(state.parts, taken, put)


def move_capacity_profile(state: Partition) -> dict[MoveKind, int]:
    """Number of legal moves of each kind, computed from the occupancy map.

    With t the olive count and w = w_cap(t) the counts obey O+l <= w,
    O- <= w - 1, P-c <= w*w, and P+, O+f, P-s are each at most 1.
    """
    occ = state.occupancy()
    d = sum(1 for c in occ if c >= 1)
    has_empty = 1 if occ.get(0) else 0
    doubled = sum(1 for c, k in occ.items() if c >= 1 and k >= 2)
    return {
        MoveKind.PLATE_ADD: 1,
        MoveKind.OLIVE_ADD_FIRST: has_empty,
        MoveKind.OLIVE_ADD_LATER: d,
        MoveKind.OLIVE_REMOVE: d,
        MoveKind.PLATE_REMOVE_SIMPLE: has_empty,
        MoveKind.PLATE_REMOVE_COMPLEX: d * (d - 1) // 2 + doubled,
    }


def partitions_of_weight(weight: int) -> Iterator[Partition]:
    """All partitions of ``weight`` in descending lexicographic part order."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def rec(remaining: int, cap: int, acc: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    return rec(weight, weight, [])


def partitions_up_to_weight(max_weight: int) -> Iterator[Partition]:
    for w in range(max_weight + 1):
        yield from partitions_of_weight(w)

