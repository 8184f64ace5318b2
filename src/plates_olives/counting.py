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

The kernel's move rule, ``legal_moves``, acts on packed integer codes:
field a of a state's code counts its parts equal to a, so every move is
one or two integer adds.  It shares no code with the grammar of
``partitions`` that the oracle walks.

Everything here returns plain Python integers, so results are exact at
any size.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

from .errors import InvalidArgument, ResourceLimit
from .partitions import EMPTY, SINGLE_PLATE, Partition

DEFAULT_STATE_LIMIT = 10_000_000

Parts = tuple[int, ...]


def encode(parts: Iterable[int], width: int) -> int:
    """The packed code of a multiset of ``parts``: field a, at bits
    ``width * (a - 1)`` up to ``width * a - 1``, holds the number of parts
    equal to a, so it must hold at most ``2**width - 1`` of them."""
    return sum(1 << width * (a - 1) for a in parts)


def decode(code: int, width: int) -> Parts:
    """The nonincreasing part tuple that ``code`` packs."""
    parts: list[int] = []
    mask = (1 << width) - 1
    a = 0
    while code:
        a += 1
        parts += [a] * (code & mask)
        code >>= width
    return tuple(reversed(parts))


def legal_moves(
    code: int, width: int, allow_complex: bool, with_heavier: bool = True
) -> tuple[list[int], list[int]]:
    """The (heavier, lighter) successors of the packed ``code``.

    With ``E[a] = 1 << width * (a - 1)`` every move is one or two adds: a
    part 1 is added (+1); each distinct part a grows (+E[a + 1] - E[a]) or
    shrinks (-E[a] + E[a - 1], and -1 takes a part 1 off the table); with
    ``allow_complex`` two parts a >= b >= 2 (two copies when a = b) fuse
    into a + b - 1 (-E[a] - E[b] + E[a + b - 1]).  The distinct parts are
    found by jumping from one nonzero field to the next, lowest first.
    The fields must be wide enough for the successors' counts.  Without
    ``with_heavier`` the heavier list is empty, and the lighter one is
    built as it would be otherwise.
    """
    heavier = [code + 1] if with_heavier else []
    lighter = []
    runs = []  # (E[b], width * (b - 1), two copies or more) for parts b >= 2
    rest = code  # the fields of parts not yet reached
    while rest:
        shift = (rest & -rest).bit_length() - 1
        shift -= shift % width
        e = 1 << shift
        if with_heavier:
            heavier.append(code + (e << width) - e)
        lighter.append(code - e + (e >> width))
        top = shift + width
        cleared = rest >> top << top
        if shift:
            runs.append((e, shift, rest - cleared != e))
        rest = cleared
    if allow_complex:
        # E[a + b - 1] is E[a] << width * (b - 1)
        for i, (eb, shift, twice) in enumerate(runs):
            base = code - eb
            if twice:
                lighter.append(base - eb + (eb << shift))
            for ea, _, _ in runs[i + 1 :]:
                lighter.append(base - ea + (ea << shift))
    return heavier, lighter


class WalkCounter:
    """Layer-by-layer counts of the closed walks from ``start``.

    The counter starts with mass 1 on ``start``, and ``counts()``, its one
    readout, returns the walks back at ``start`` after every even number
    of steps up to T = 2 * ``semilength``.  Each state is one int, its
    ``encode``d parts in fields of ``width`` = ``max_weight.bit_length()``
    bits, wide enough for the most parts any interned state has.  States
    are interned with ids 0, 1, 2, ... in first-seen order, so a
    deterministic caller gets deterministic ids; ``support()`` decodes them
    to ``Partition``s.  A state's successors are built once, from this
    module's ``legal_moves``, and kept as one tuple of ids, its heavier
    targets first: every move changes the weight by one, so the weight cap
    is decided once per source state, never per edge, and a state at
    ``max_weight`` gets no heavier target built at all.

    One ``advance()`` first expands every live state that has no successor
    tuple yet, in id order, so every target is interned.  It then pushes
    the layer's counts into a list indexed by state id, and rebinds
    ``layer`` to an empty dict, so the old layer and its counts are freed
    before the new one is built; a caller still holding the old dict
    keeps it whole.  The positive entries of the list, keyed by id, become
    the new ``layer``.

    States too heavy to get back to ``start`` in the remaining steps are
    discarded as they arise: after k steps the cap is ``start.weight +
    min(k, T - k)``, so ``max_weight`` is ``start.weight + semilength``,
    and no count changes.  The empty table is allowed exactly when it is
    the start: a walk from any other state clears the empty table's slot
    after every push.  Options:

    ``allow_complex``
        When False the P-c moves are dropped and the graph becomes
        Young's lattice plus empty-plate bookkeeping.
    ``max_states``
        Turns runaway growth of the state table into a ResourceLimit
        before any work, instead of memory exhaustion.  Every interned
        state is a partition of weight <= ``max_weight``, so the
        constructor checks their number, which a walk from <> or <1>
        interns exactly; from a heavier start it is only an upper bound,
        so such a walk is refused even when it would intern fewer states.
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
        # the peak of _weight_cap(k), halfway through the walk
        self.max_weight = start.weight + semilength
        if semilength and _partitions_through(self.max_weight, max_states) > max_states:
            raise ResourceLimit(
                f"more than {max_states} distinct states; raise max_states to continue"
            )
        # every interned state weighs at most max_weight, so no field holds more
        self.width = self.max_weight.bit_length()
        code = encode(start.parts, self.width)
        self._interner: dict[int, int] = {code: 0}
        self._states: list[int] = [code]
        self._weights: list[int] = [start.weight]
        # _succ[sid] is a tuple of heavier targets, then lighter ones, each
        # in legal_moves order; _split[sid] is the number of heavier ones,
        # set when sid is expanded
        self._succ: dict[int, tuple[int, ...]] = {}
        self._split: list[int] = [0]
        self.step_index = 0
        self.layer: dict[int, int] = {0: 1}

    def _expand(self, sid: int) -> None:
        weight = self._weights[sid]
        # only heavier targets pass max_weight, or overflow a field
        heavier, lighter = legal_moves(
            self._states[sid], self.width, self.allow_complex, weight < self.max_weight
        )
        self._split[sid] = len(heavier)
        interner, states, weights = self._interner, self._states, self._weights
        targets = []
        for w, group in ((weight + 1, heavier), (weight - 1, lighter)):
            for code in group:
                tid = interner.setdefault(code, len(states))
                if tid == len(states):
                    states.append(code)
                    weights.append(w)
                    self._split.append(0)
                targets.append(tid)
        self._succ[sid] = tuple(targets)

    def _weight_cap(self, k: int) -> int:
        return self.start.weight + min(k, self.total_steps - k)

    def advance(self) -> None:
        if self.step_index >= self.total_steps:
            raise ValueError("walk already advanced to its full length")
        k = self.step_index + 1
        cap = self._weight_cap(k)
        succ, split, weights = self._succ, self._split, self._weights
        for sid in self.layer:
            if sid not in succ:
                self._expand(sid)
        # every target is interned now, with ids 0..N-1 in the interner's order
        nxt = [0] * len(self._states)
        for sid, ways in self.layer.items():
            targets = succ[sid]
            # heavier targets weigh weight + 1, over the cap once weight reaches it
            if weights[sid] >= cap:
                targets = targets[split[sid] :]
            for tid in targets:
                nxt[tid] += ways
        # rebound, not cleared: the old layer and its counts go before the
        # new one is built, and a caller holding the old dict keeps it whole
        self.layer = {}
        # the empty table's code is 0, and its id is 0 only when it is the
        # start; a walk from any other start never touches it, so the slot
        # that <1> pushed into is cleared
        if empty := self._interner.get(0):
            nxt[empty] = 0
        # the interner's own id objects as keys, so a step allocates no ints
        self.layer = dict(zip(compress(self._interner.values(), nxt), compress(nxt, nxt)))
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
        states, width = self._states, self.width
        return [(Partition(decode(states[sid], width)), ways) for sid, ways in self.layer.items()]


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


def count_games_through(max_n: int, max_states: int = DEFAULT_STATE_LIMIT) -> list[int]:
    """Game counts for every n from 0 to ``max_n`` out of a single pass.

    The count for n sits at layer 2n of the <1> to <1> walk that never
    touches the empty table.
    """
    if max_n < 0:
        raise InvalidArgument("max_n must be nonnegative")
    return WalkCounter(SINGLE_PLATE, max_n, max_states=max_states).counts()


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
    return WalkCounter(EMPTY, max_n + 1, max_states=max_states).counts()[1:]


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
    return WalkCounter(EMPTY, max_semilength, False, max_states).counts()


def count_young_walks(length: int, max_states: int = DEFAULT_STATE_LIMIT) -> int:
    """Closed walks of even ``length`` in Young's lattice from the empty
    partition, i.e. single-box moves only.  Equals (length - 1)!!."""
    if length < 0 or length % 2:
        raise InvalidArgument("walk length must be even and nonnegative")
    return count_young_walks_through(length // 2, max_states=max_states)[-1]
