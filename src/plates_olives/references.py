"""Reference sequences the counting DP is checked against.

None of these routes touches the move graph: double factorials, Catalan
numbers, Dyck path generation, the height-weighted Dyck sum (two routes),
zig-zag numbers with a permutation filter, and the geometric class table.
"""

from __future__ import annotations

from itertools import permutations
from math import comb
from typing import Iterator

from .errors import InvalidArgument


def double_factorial(m: int) -> int:
    """Product m(m-2)(m-4)... down to 1 or 2, with (-1)!! = 0!! = 1."""
    if m < -1:
        raise InvalidArgument("double factorial needs m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def catalan(n: int) -> int:
    if n < 0:
        raise InvalidArgument("catalan needs n >= 0")
    return comb(2 * n, n) // (n + 1)


def dyck_paths(semilength: int) -> Iterator[tuple[int, ...]]:
    """All Dyck paths of the given semilength as +1/-1 step tuples, up-steps
    before down-steps, so in descending lexicographic order.

    One loop over a stack of (prefix, height) pairs, each holding its
    whole step tuple, so no semilength raises ``RecursionError``.  A prefix
    whose height equals the steps left can only go down from there, so it
    yields at once, with those down-steps appended.  The argument is
    checked at the call, before the walk starts.
    """
    if semilength < 0:
        raise InvalidArgument("semilength must be nonnegative")
    total = 2 * semilength

    def walk() -> Iterator[tuple[int, ...]]:
        stack = [((), 0)]
        while stack:
            prefix, h = stack.pop()
            if h == total - len(prefix):
                yield prefix + (-1,) * h
                continue
            # pushed last, the up-step comes out first
            if h:
                stack.append((prefix + (-1,), h - 1))
            stack.append((prefix + (1,), h + 1))

    return walk()


def count_proper_dyck_paths(n: int) -> int:
    """Paths of length 2n + 2 that touch the axis only at their endpoints,
    counted by generation: each is an up-step, a Dyck path of semilength n
    lifted one level, and a down-step.  Equals catalan(n)."""
    return sum(1 for _ in dyck_paths(n))


def weighted_dyck_sum_by_enumeration(v: int) -> int:
    """Sum over Dyck paths of semilength v of the product, over up-steps,
    of one plus the height the step leaves from.

    One loop over a stack of (steps taken, height, weight so far) entries,
    one entry per prefix.  A prefix whose height equals the steps left can
    only go down from there, and down-steps leave the weight as it is, so
    its weight is added at once: each path is one term.
    """
    if v < 0:
        raise InvalidArgument("semilength must be nonnegative")
    total = 2 * v
    out = 0
    stack = [(0, 0, 1)]
    while stack:
        pos, h, weight = stack.pop()
        if h == total - pos:
            out += weight
            continue
        if h:
            stack.append((pos + 1, h - 1, weight))
        stack.append((pos + 1, h + 1, weight * (h + 1)))
    return out


def weighted_dyck_sum_by_dp_through(max_v: int) -> list[int]:
    """The sums for v = 0 .. ``max_v`` out of one fold: the sum for v is the
    mass at height 0 after 2v steps, by when no path climbs above max_v."""
    if max_v < 0:
        raise InvalidArgument("semilength must be nonnegative")
    # row[h + 1] is the mass at height h; the zero ends stand for heights
    # -1 and max_v + 1, and an up-step from height h - 1 weighs h
    row = [0, 1] + [0] * (max_v + 1)
    out = [1]
    for pos in range(2 * max_v):
        row = [0] + [row[h] * h + row[h + 2] for h in range(max_v + 1)] + [0]
        if pos % 2:
            out.append(row[1])
    return out


def updown_numbers(limit: int) -> list[int]:
    """Zig-zag (up-down) numbers E_0 .. E_limit by the boustrophedon
    transform of the sequence 1, 0, 0, ..."""
    if limit < 0:
        raise InvalidArgument("limit must be nonnegative")
    out = [1]
    row = [1]
    for _ in range(limit):
        prev = 0
        nxt = [0]
        for value in reversed(row):
            prev += value
            nxt.append(prev)
        row = nxt
        out.append(row[-1])
    return out


def tangent_numbers(n: int) -> int:
    """The odd-indexed zig-zag number E_{2n+1}: 1, 2, 16, 272, 7936, ..."""
    if n < 0:
        raise InvalidArgument("n must be nonnegative")
    return updown_numbers(2 * n + 1)[2 * n + 1]


def _is_cyclic_zigzag(perm: tuple[int, ...]) -> bool:
    # values alternate valley/peak around the whole cycle, a valley first
    m = len(perm)
    for idx in range(m):
        here = perm[idx]
        left = perm[idx - 1]
        right = perm[(idx + 1) % m]
        if idx % 2 == 0:
            if not (here < left and here < right):
                return False
        elif not (here > left and here > right):
            return False
    return True


def count_zigzag_permutations(size: int) -> int:
    """Cyclically alternating permutations of {1..size} with the 1 first,
    counted by filtering the (size - 1)! arrangements of 2..size after it.
    For even size = 2n + 2 this equals tangent_numbers(n)."""
    if size < 2 or size % 2:
        raise InvalidArgument("size must be even and at least 2")
    return sum(_is_cyclic_zigzag((1, *rest)) for rest in permutations(range(2, size + 1)))


# Reference counts of geometric equivalence classes of excellent Morse
# functions on the sphere, for cross-reading against the game counts.
# These classify up to homeomorphisms of both sphere and target, a finer
# relation than the topological one the games count, so they are carried
# as a fixed table and not computed here.
GEOMETRIC_CLASS_COUNTS: tuple[tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (2, 19),
    (3, 428),
    (4, 17746),
)
