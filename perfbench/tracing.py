"""Outside-in spans around the public functions of each plates_olives layer.

The tracer replaces module attributes in a child interpreter only; nothing
under ``src/`` changes.  A span's self time is its duration minus the time
of the spans it called.  Work the tracer does for its own counters is
subtracted from every span open around it, so it lands in the traced run's
total (``trace.overhead_frac``) and in no layer's time.

The ``WalkCounter.advance`` wrapper reads the counter's ``layer``,
``_succ`` and ``_interner`` after each step, outside the timed span, to
count states, edges and the bit length of the largest count.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter

# The counting entry points that run a WalkCounter; only the outermost call
# of nested ones (count_games -> count_games_through) opens a span.
COUNT_CALLS = (
    "count_games",
    "count_games_through",
    "count_closed_walks",
    "count_closed_walks_through",
    "count_young_walks",
    "count_young_walks_through",
)


def _get(owner, attr: str):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        # name -> [total seconds, calls, self seconds]
        self.spans: dict[str, list] = {}
        # one [child seconds, tracer overhead at entry] per open span
        self._stack: list[list[float]] = []
        self._overhead = 0.0
        self._undo: list[tuple[object, str, object]] = []
        self._in_count = False
        self.counters = {
            "edges_built": 0,
            "edges_traversed": 0,
            "peak_live_states": 0,
            "max_count_bits": 0,
        }
        # per advance: step, live, new, edges traversed, legal_moves s, self s, max bits
        self.steps: list[tuple] = []

    def _timed(self, fn, name: str):
        record = self.spans.setdefault(name, [0.0, 0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0, self._overhead]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start - (self._overhead - frame[1])
                stack.pop()
                record[0] += duration
                record[1] += 1
                record[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self._timed(_get(owner, attr), name))

    def _wrap_count(self, counting, attr: str) -> None:
        fn = getattr(counting, attr)
        timed = self._timed(fn, "counting.count")

        def outermost(*args, **kwargs):
            if self._in_count:
                return fn(*args, **kwargs)
            self._in_count = True
            try:
                return timed(*args, **kwargs)
            finally:
                self._in_count = False

        self._patch(counting, attr, outermost)

    def _wrap_advance(self, walk_counter) -> None:
        timed = self._timed(walk_counter.advance, "counting.advance")
        advance = self.spans["counting.advance"]
        legal = self.spans.setdefault("counting.legal_moves", [0.0, 0, 0.0])
        counters = self.counters

        def traced_advance(counter):
            begin = perf_counter()
            before = counter.layer
            interned = len(counter._interner)
            expanded = len(counter._succ)
            spent, legal_spent = advance[0], legal[0]
            self._overhead += perf_counter() - begin
            timed(counter)
            begin = perf_counter()
            spent, legal_spent = advance[0] - spent, legal[0] - legal_spent
            succ = counter._succ
            new_lists = islice(reversed(succ.values()), len(succ) - expanded)
            counters["edges_built"] += sum(map(len, new_lists))
            traversed = sum(len(succ[sid]) for sid in before)
            counters["edges_traversed"] += traversed
            live = len(counter.layer)
            counters["peak_live_states"] = max(counters["peak_live_states"], len(before), live)
            bits = max((ways.bit_length() for ways in counter.layer.values()), default=0)
            counters["max_count_bits"] = max(counters["max_count_bits"], bits)
            self.steps.append((
                counter.step_index, live, len(counter._interner) - interned,
                traversed, legal_spent, spent - legal_spent, bits,
            ))
            self._overhead += perf_counter() - begin

        self._patch(walk_counter, "advance", traced_advance)

    def install(self) -> None:
        from plates_olives import cli, counting, games, verify

        self.wrap(cli, "main", "cli.main")
        for attr in COUNT_CALLS:
            self._wrap_count(counting, attr)
        self.wrap(counting, "legal_moves", "counting.legal_moves")
        self._wrap_advance(counting.WalkCounter)
        self.wrap(games, "stats_histogram", "games.stats_histogram")
        self.wrap(games, "legal_moves", "games.legal_moves")
        self.wrap(games, "game_stats", "games.game_stats")
        self.wrap(verify, "run_suites", "verify.run_suites")
        for suite in list(verify.SUITES):
            self.wrap(verify.SUITES, suite, f"verify.{suite}")

    def uninstall(self) -> None:
        while self._undo:
            _set(*self._undo.pop())

    def report(self) -> dict:
        return {
            "spans": {
                name: {"total_s": r[0], "calls": r[1], "self_s": r[2]}
                for name, r in self.spans.items()
            },
            "counters": dict(self.counters),
            "steps": self.steps,
        }
