"""Reference sequences the counting DP is checked against.

None of these routes touches the move graph: double factorials, Catalan
numbers, Dyck path generation, the height-weighted Dyck sum (two routes),
zig-zag numbers with a permutation filter, and the geometric class table.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, permutations
from math import comb
from operator import mul
from typing import Iterator


def double_factorial(m: int) -> int:
    """Product m(m-2)(m-4)... down to 1 or 2, with (-1)!! = 0!! = 1."""
    if m < -1:
        raise ValueError("double factorial needs m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan needs n >= 0")
    return comb(2 * n, n) // (n + 1)


def _dyck_walk(semilength: int) -> tuple[list[int], Iterator[int]]:
    """One loop, no recursion, over the Dyck paths of the given semilength,
    up-steps before down-steps, so in descending lexicographic order.
    Returns (steps, weights): each draw from ``weights`` rewrites ``steps``
    in place to the next path and yields that path's weight, the product
    over its up-steps of one plus the height the step leaves from.

    From (position, height) a path takes up-steps greedily, as many as can
    still come back down, then the forced down-steps.  Each greedy up-step
    from a height above 0 could have gone down instead, so it goes on a
    stack as (position, height, weight of the up-steps the refill took
    before it); the next path turns the last of them down and refills the
    rest greedily.  The greedy rest depends on (position, height) only and
    is built once per pair.  A second stack holds, per pending turn, the
    weight of the path before the refill that pushed it, so each prefix
    product is computed once, however many paths share the prefix.
    """
    if semilength < 0:
        raise ValueError("semilength must be nonnegative")
    total = 2 * semilength
    steps: list[int] = []

    @cache
    def rest(pos: int, h: int) -> tuple[list[int], list[tuple[int, int, int]], int]:
        ups = (total - pos - h) // 2
        tail = [1] * ups + [-1] * (total - pos - ups)
        # an up-step from height g weighs g + 1; head[k] weighs the first k
        head = list(accumulate(range(h + 1, h + ups + 1), mul, initial=1))
        turns = [(p, h + p - pos, head[p - pos]) for p in range(pos + (not h), pos + ups)]
        return tail, turns, head[-1]

    def walk() -> Iterator[int]:
        # copies: the cached lists are shared by every later refill
        tail, turns, weight = rest(0, 0)
        steps[:] = tail
        pending = list(turns)
        bases = [1] * len(turns)
        yield weight
        while pending:
            pos, h, head = pending.pop()
            before = bases.pop() * head  # the weight of steps[:pos]
            steps[pos] = -1
            tail, turns, weight = rest(pos + 1, h - 1)
            steps[pos + 1 :] = tail
            pending += turns
            bases += [before] * len(turns)
            yield before * weight

    return steps, walk()


def dyck_paths(semilength: int) -> Iterator[tuple[int, ...]]:
    """All Dyck paths of the given semilength as +1/-1 step tuples, up-steps
    before down-steps, so in descending lexicographic order.  A flat loop
    (``_dyck_walk``), so no semilength raises ``RecursionError``."""
    steps, weights = _dyck_walk(semilength)
    return (tuple(steps) for _ in weights)


def count_proper_dyck_paths(n: int) -> int:
    """Paths of length 2n + 2 that touch the axis only at their endpoints,
    counted by generation: each is an up-step, a Dyck path of semilength n
    lifted one level, and a down-step.  Equals catalan(n)."""
    return sum(1 for _ in dyck_paths(n))


def weighted_dyck_sum_by_enumeration(v: int) -> int:
    """Sum over Dyck paths of semilength v of the product, over up-steps,
    of one plus the height the step leaves from: one term per path, each
    carried along the walk's stack from the prefix it shares."""
    return sum(_dyck_walk(v)[1])


def weighted_dyck_sum_by_dp_through(max_v: int) -> list[int]:
    """The sums for v = 0 .. ``max_v`` out of one fold: the sum for v is the
    mass at height 0 after 2v steps, by when no path climbs above max_v."""
    if max_v < 0:
        raise ValueError("semilength must be nonnegative")
    # row[h + 1] is the mass at height h; the zero ends stand for heights
    # -1 and max_v + 1, and an up-step from height h - 1 weighs h
    row = [0, 1] + [0] * (max_v + 1)
    out = [1]
    for pos in range(2 * max_v):
        row = [0] + [row[h] * h + row[h + 2] for h in range(max_v + 1)] + [0]
        if pos % 2:
            out.append(row[1])
    return out


def weighted_dyck_sum_by_dp(v: int) -> int:
    """Same sum as the enumeration, folded over (position, height)."""
    return weighted_dyck_sum_by_dp_through(v)[-1]


def updown_numbers(limit: int) -> list[int]:
    """Zig-zag (up-down) numbers E_0 .. E_limit by the boustrophedon
    transform of the sequence 1, 0, 0, ..."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
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
        raise ValueError("n must be nonnegative")
    return updown_numbers(2 * n + 1)[2 * n + 1]


def _is_cyclic_zigzag(perm: tuple[int, ...]) -> bool:
    # canonical representative: the minimum sits first, then values
    # alternate valley/peak around the whole cycle
    if perm[0] != 1:
        return False
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
    counted by filtering all size! permutations.  For even size = 2n + 2
    this equals tangent_numbers(n)."""
    if size < 2 or size % 2:
        raise ValueError("size must be even and at least 2")
    hits = 0
    for perm in permutations(range(1, size + 1)):
        if _is_cyclic_zigzag(perm):
            hits += 1
    return hits


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
