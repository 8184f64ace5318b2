"""Exact counting of games and walks by layered dynamic programming.

Counting games of length n does not need the games themselves.  A game of
length n is forced to open with P+ and close with P-s, so dropping those
two moves leaves a walk of length 2n on the move graph that starts and
ends at <1> and never touches the empty partition.  ``WalkCounter``
counts such closed walks from one start state and a semilength: it
propagates exact integer counts one step at a time over interned states,
and its one readout, ``counts()``, takes every even-length count off
that single pass to 2n.  The six ``count_*`` functions read it for the
three families.

Two relatives of the game count are closed walks too, from the empty
partition back to itself, and share all of this machinery.  They may
pass through the empty table on the way, so they count a coarser
equivalence, and walks restricted to single-box moves are exactly the
closed walks in Young's lattice, counted by the double factorial
(2n - 1)!!.  So the kernel's one rule for the empty table follows from
the start: a walk from the empty table may revisit it, and a walk from
any other state never touches it.

The kernel's move rule, ``legal_moves``, acts on raw part tuples and
shares no code with the grammar of ``partitions`` that the oracle walks.

Everything here returns plain Python integers, so results are exact at
any size.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import neg

from .errors import InvalidArgument, ResourceLimit
from .partitions import EMPTY, SINGLE_PLATE, Partition

DEFAULT_STATE_LIMIT = 10_000_000

Parts = tuple[int, ...]


def legal_moves(parts: Parts, allow_complex: bool) -> tuple[list[Parts], list[Parts]]:
    """The (heavier, lighter) successors of the nonincreasing ``parts``.

    A part 1 is added; the first copy of each distinct part grows by one
    and its last copy shrinks by one, so the tuple stays sorted, and a
    part 1 leaves the table; with ``allow_complex`` two parts a >= b >= 2
    (two copies when a = b) fuse into a + b - 1.
    """
    heavier, lighter = [parts + (1,)], []
    runs = []  # (part >= 2, index of its first copy, index of its last copy)
    first = 0
    for a, copies in Counter(parts).items():
        last = first + copies - 1
        heavier.append(parts[:first] + (a + 1,) + parts[first + 1 :])
        lighter.append(parts[:last] + (a - 1,) * (a > 1) + parts[last + 1 :])
        if a > 1:
            runs.append((a, first, last))
        first = last + 1
    if allow_complex:
        for x, (a, i, _) in enumerate(runs):
            for b, _, j in runs[x:]:
                if i < j:  # a = b needs two copies
                    # a + b - 1 > a lands among the parts left of the first a
                    k = bisect_left(parts, 1 - a - b, 0, i, key=neg)
                    fused = parts[:k] + (a + b - 1,) + parts[k:i]
                    lighter.append(fused + parts[i + 1 : j] + parts[j + 1 :])
    return heavier, lighter


class WalkCounter:
    """Layer-by-layer counts of the closed walks from ``start``.

    The counter starts with mass 1 on ``start``, each ``advance()`` pushes
    the whole layer through the legal moves, and ``counts()``, its one
    readout, returns the walks back at ``start`` after every even number
    of steps up to T = 2 * ``semilength``.  States are raw part tuples,
    interned with ids in first-seen order, so a deterministic caller gets
    deterministic ids; ``support()`` wraps them as ``Partition``s.  A
    state's successor list is built once, from this module's
    ``legal_moves``, with its heavier targets first: every move changes
    the weight by one, so the weight cap and the ban on the empty table
    are decided once per source state, never per edge.

    States too heavy to get back to ``start`` in the remaining steps are
    discarded as they arise: after k steps the cap is ``start.weight +
    min(k, T - k)``, so ``max_weight`` is ``start.weight + semilength``,
    and no count changes.  The empty table is allowed exactly when it is
    the start: a walk from any other state never touches it.  Options:

    ``allow_complex``
        When False the P-c moves are dropped and the graph becomes
        Young's lattice plus empty-plate bookkeeping.
    ``max_states``
        Turns runaway growth of the state table into a ResourceLimit
        instead of memory exhaustion.
    """

    def __init__(
        self,
        start: Partition,
        semilength: int,
        allow_complex: bool = True,
        max_states: int = DEFAULT_STATE_LIMIT,
    ) -> None:
        if semilength < 0:
            raise InvalidArgument("semilength must be nonnegative")
        if max_states < 1:
            raise InvalidArgument("max_states must be positive")
        self.start = start
        self.total_steps = 2 * semilength
        self.allow_complex = allow_complex
        self.max_states = max_states
        # the peak of _weight_cap(k), halfway through the walk
        self.max_weight = start.weight + semilength
        self._interner: dict[Parts, int] = {start.parts: 0}
        self._states: list[Parts] = [start.parts]
        self._weights: list[int] = [start.weight]
        # _succ[sid] lists heavier targets, then lighter ones, each in
        # legal_moves order; _split[sid] is the number of heavier ones
        self._succ: dict[int, list[int]] = {}
        self._split: dict[int, int] = {}
        self.step_index = 0
        self.layer: dict[int, int] = {0: 1}

    def _expand(self, sid: int) -> list[int]:
        weight = self._weights[sid]
        heavier, lighter = legal_moves(self._states[sid], self.allow_complex)
        if weight >= self.max_weight:
            heavier = []  # only the heavier side can pass max_weight
        self._split[sid] = len(heavier)
        interner, states, weights = self._interner, self._states, self._weights
        targets = []
        for w, group in ((weight + 1, heavier), (weight - 1, lighter)):
            for parts in group:
                tid = interner.setdefault(parts, len(states))
                if tid == len(states):
                    states.append(parts)
                    weights.append(w)
                targets.append(tid)
        self._check_size(len(states))
        self._succ[sid] = targets
        return targets

    def _check_size(self, states: int) -> None:
        if states > self.max_states:
            raise ResourceLimit(
                f"more than {self.max_states} distinct states; "
                "raise max_states to continue"
            )

    def _weight_cap(self, k: int) -> int:
        return self.start.weight + min(k, self.total_steps - k)

    def advance(self) -> None:
        if self.step_index >= self.total_steps:
            raise ValueError("walk already advanced to its full length")
        k = self.step_index + 1
        cap = self._weight_cap(k)
        empty_ok = self.start.is_empty
        succ, split, weights = self._succ, self._split, self._weights
        nxt: dict[int, int] = {}
        for sid, ways in self.layer.items():
            targets = succ.get(sid)
            if targets is None:
                targets = self._expand(sid)
            weight = weights[sid]
            # heavier targets weigh weight + 1, over the cap once weight
            # reaches it; a weight-1 source's lighter targets are the empty table
            lo = split[sid] if weight >= cap else 0
            hi = split[sid] if weight == 1 and not empty_ok else len(targets)
            if lo or hi < len(targets):
                targets = targets[lo:hi]
            for tid in targets:
                if tid in nxt:
                    nxt[tid] += ways
                else:
                    nxt[tid] = ways
        self.layer = nxt
        self.step_index = k

    def counts(self) -> list[int]:
        """Advance a fresh counter to its full length and return the walks
        back at ``start`` after 0, 2, ..., 2 * ``semilength`` steps.

        The weight prune for the longest walk keeps every state a shorter
        walk could use, so the shorter counts are read off exactly.  A
        counter that has already advanced would give a short list, so it
        raises ValueError.
        """
        if self.step_index:
            raise ValueError("counts() needs a counter that has not advanced")
        # start is interned as state 0
        counts = [self.layer.get(0, 0)]
        while self.step_index < self.total_steps:
            self.advance()
            self.advance()
            counts.append(self.layer.get(0, 0))
        return counts

    def support(self) -> list[tuple[Partition, int]]:
        """Current layer as (state, count) pairs, in state-id order."""
        layer = sorted(self.layer.items())
        return [(Partition(self._states[sid]), ways) for sid, ways in layer]


def _partitions_through(max_weight: int, limit: int) -> int:
    """The partitions of weight <= ``max_weight``, by Euler's pentagonal
    recurrence, summed only until they pass ``limit``: a huge weight costs
    a few dozen terms."""
    p = [1]  # p[w], the partitions of w
    total = 1
    while len(p) <= max_weight and total <= limit:
        w, term, k = len(p), 0, 1
        while (g := k * (3 * k - 1) // 2) <= w:  # pentagonal g and g + k
            pair = p[w - g] + (p[w - g - k] if g + k <= w else 0)
            term += pair if k % 2 else -pair
            k += 1
        p.append(term)
        total += term
    return total


def _family_counts(counter: WalkCounter) -> list[int]:
    """``counter.counts()``, failing before any work when the table would
    pass ``max_states``: each family's walk interns exactly the partitions
    of weight <= ``max_weight``, or just its start when it takes no step."""
    if counter.total_steps:
        counter._check_size(_partitions_through(counter.max_weight, counter.max_states))
    return counter.counts()


def count_games_through(max_n: int, max_states: int = DEFAULT_STATE_LIMIT) -> list[int]:
    """Game counts for every n from 0 to ``max_n`` out of a single pass.

    The count for n sits at layer 2n of the <1> to <1> walk that never
    touches the empty table.
    """
    if max_n < 0:
        raise InvalidArgument("max_n must be nonnegative")
    return _family_counts(WalkCounter(SINGLE_PLATE, max_n, max_states=max_states))


def count_games(n: int, max_states: int = DEFAULT_STATE_LIMIT) -> int:
    """Number of games of length n, computed without enumerating them."""
    return count_games_through(n, max_states=max_states)[n]


def count_closed_walks_through(
    max_n: int, max_states: int = DEFAULT_STATE_LIMIT
) -> list[int]:
    """Closed-walk counts (length 2n + 2 from the empty table, interim
    empties allowed) for every n from 0 to ``max_n``."""
    if max_n < 0:
        raise InvalidArgument("max_n must be nonnegative")
    return _family_counts(WalkCounter(EMPTY, max_n + 1, max_states=max_states))[1:]


def count_closed_walks(n: int, max_states: int = DEFAULT_STATE_LIMIT) -> int:
    """Closed walks of length 2n + 2 on the full move graph.

    Unlike games these may revisit the empty table, so every game is a
    closed walk but not conversely.  Without plate merges the same walks
    are the Young walks of ``count_young_walks_through``.
    """
    return count_closed_walks_through(n, max_states=max_states)[n]


def count_young_walks_through(
    max_semilength: int, max_states: int = DEFAULT_STATE_LIMIT
) -> list[int]:
    """Young-lattice closed-walk counts for lengths 0, 2, ..., 2*max_semilength
    out of one pass."""
    if max_semilength < 0:
        raise InvalidArgument("max_semilength must be nonnegative")
    return _family_counts(WalkCounter(EMPTY, max_semilength, False, max_states))


def count_young_walks(length: int, max_states: int = DEFAULT_STATE_LIMIT) -> int:
    """Closed walks of even ``length`` in Young's lattice from the empty
    partition, i.e. single-box moves only.  Equals (length - 1)!!."""
    if length < 0 or length % 2:
        raise InvalidArgument("walk length must be even and nonnegative")
    return count_young_walks_through(length // 2, max_states=max_states)[-1]
