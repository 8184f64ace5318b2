"""Command-line interface: count, enumerate, verify, ratio, bounds.

Output formats, pinned bit for bit:

table
    Header row, then one row per record; columns separated by two
    spaces, numeric columns right-aligned to the column width.
csv
    Same columns, comma-separated, one header line.
json
    One JSON object per line.  Counts are exact decimal strings with no
    exponent; ratios and envelope constants are quantized to six decimal
    places; large envelope values use scientific notation with six
    significant digits.

Count rows for ``--variant young`` give the walks of length 2n, so the
``n`` column means semilength for that variant.  Histograms are always
CSV with the header ``v_f,v_l,p_s,p_c,count``.

A cache path set by ``--cache`` or the OLIVE_CACHE environment variable
stores computed counts keyed by variant and n in a versioned JSON file;
a version mismatch or unreadable file invalidates the whole cache, with a
warning on stderr (a missing file is just empty), and a file that cannot
be written is left as it was, also with a warning.  A row that contradicts
a known count (M_0..M_4, the closed values for n <= 4, (2n-1)!! for
young, M_n >= (2n-1)!! beyond) is dropped with a warning on stderr, the
file is rewritten without it, and the count is recomputed.  The
``--self-check`` flag recomputes cached values and fails on any drift.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict
from decimal import Decimal, ROUND_HALF_EVEN
from pathlib import Path
from typing import IO, Iterable, Sequence

from . import analysis, counting, games, references, verify
from .errors import PlatesOlivesError
from .counting import DEFAULT_STATE_LIMIT

CACHE_VERSION = "1"
VARIANTS = ("first-return", "closed", "young")
_SIX_PLACES = Decimal("0.000001")


def _six(value: Decimal) -> str:
    return str(value.quantize(_SIX_PLACES, rounding=ROUND_HALF_EVEN))


def _sci(value: Decimal) -> str:
    return format(value, ".6E")


# exact counts a cached row must match, beyond which M_n >= (2n - 1)!!
# (closed walks include the games, so the bound holds for them too)
_KNOWN_COUNTS = {
    "first-return": verify.GOLDEN_GAME_COUNTS,
    "closed": verify.CLOSED_WITH_MERGES,
}


def _contradiction(variant: str, n: int, count: int) -> str | None:
    """Why a cached count cannot be right, or None if nothing known
    contradicts it."""
    if n < 0:
        return "n is negative"
    # (2n-1)!! >= 2**(n-1) > count once n - 1 > count.bit_length(), so a
    # huge n from the file needs no huge product
    floor = None if n - 1 > count.bit_length() else references.double_factorial(2 * n - 1)
    if variant == "young":
        return None if count == floor else f"{count} is not (2n-1)!!"
    known = _KNOWN_COUNTS[variant]
    if n < len(known):
        return None if count == known[n] else f"{count} is not the known value {known[n]}"
    if floor is None or count < floor:
        return f"{count} is below the proven bound (2n-1)!!"
    return None


def _decimal_int(text: object) -> int:
    """The int a cache key or count spells.  Only a string that prints
    back, which is all ``save()`` writes, is accepted."""
    if isinstance(text, str):
        value = int(text)
        if str(value) == text:
            return value
    raise ValueError(f"{text!r} is not a decimal integer")


class CacheFile:
    """Versioned JSON store of computed counts, keyed by (variant, n)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.counts: dict[str, dict[int, int]] = {v: {} for v in VARIANTS}
        self._load()

    def _ignore(self, reason: str) -> None:
        print(f"warning: cache {self.path} ignored: {reason}", file=sys.stderr)

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
        except FileNotFoundError:
            return
        except OSError as exc:
            return self._ignore(exc.strerror or "cannot be read")
        except ValueError:
            return self._ignore("not valid JSON")
        loaded: dict[str, dict[int, int]] = {v: {} for v in VARIANTS}
        try:
            version = raw["version"]
            if version != CACHE_VERSION:
                return self._ignore(f"version {version!r} is not {CACHE_VERSION!r}")
            for variant, rows in raw["counts"].items():
                for key, value in rows.items():
                    loaded[variant][_decimal_int(key)] = _decimal_int(value)
        except (AttributeError, KeyError, TypeError, ValueError):
            return self._ignore("malformed counts table")
        self.counts = loaded
        dropped: dict[str, list[str]] = {}
        for variant, rows in loaded.items():
            for n, count in sorted(rows.items()):
                reason = _contradiction(variant, n, count)
                if reason:
                    dropped.setdefault(variant, []).append(f"n={n}: {reason}")
                    del rows[n]
        for variant, reasons in dropped.items():
            print(f"warning: cache drops {variant} {'; '.join(reasons)}", file=sys.stderr)
        if dropped:
            # rewrite the file once, so no row is read and warned about again
            self.save()

    def save(self) -> None:
        payload = {
            "version": CACHE_VERSION,
            "counts": {
                variant: {str(n): str(c) for n, c in sorted(rows.items())}
                for variant, rows in self.counts.items()
                if rows
            },
        }
        tmp = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name)
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path)
            tmp = None
        except OSError as exc:
            # the counts are already computed; a cache that cannot be
            # written only costs the next run a recount
            print(
                f"warning: cache {self.path} not saved: {exc.strerror or exc}",
                file=sys.stderr,
            )
        finally:
            if tmp is not None:
                os.unlink(tmp)


def _compute_counts(variant: str, max_n: int, max_states: int) -> list[int]:
    if variant == "first-return":
        return counting.count_games_through(max_n, max_states=max_states)
    if variant == "closed":
        return counting.count_closed_walks_through(max_n, max_states=max_states)
    return counting.count_young_walks_through(max_n, max_states=max_states)


def _resolve_counts(
    variant: str,
    max_n: int,
    max_states: int,
    cache: CacheFile | None,
    self_check: bool = False,
) -> list[int]:
    hits: list[int] = []
    # arguments the counter rejects skip the cache, so its error is the
    # same with or without one
    if cache is not None and max_n >= 0 and max_states >= 1:
        rows = cache.counts[variant]
        # stop at the first missing row, so a huge max_n reaches the
        # counter's state budget without max_n lookups first
        while len(hits) <= max_n and len(hits) in rows:
            hits.append(rows[len(hits)])
        if len(hits) == max_n + 1 and not self_check:
            return hits
    counts = _compute_counts(variant, max_n, max_states)
    # every cached hit is checked, a partial hit's prefix included, before
    # anything is saved
    if self_check and counts[: len(hits)] != hits:
        raise PlatesOlivesError(
            f"cache self-check failed for {variant}: "
            f"cached {hits} != recomputed {counts[: len(hits)]}"
        )
    if cache is not None and len(hits) < len(counts):
        cache.counts[variant].update(enumerate(counts))
        cache.save()
    return counts


def _record(pairs: Iterable[tuple[str, object]], decimal_cell=_six) -> dict:
    """A JSON-ready record from a row's (name, value) pairs: ``n`` and
    flags stay JSON values, any other int is an exact count written as its
    decimal string, strings pass through, and Decimals print through
    ``decimal_cell``."""
    record = {}
    for name, value in pairs:
        if name != "n" and not isinstance(value, bool):
            if isinstance(value, int):
                value = str(value)
            elif isinstance(value, Decimal):
                value = decimal_cell(value)
        record[name] = value
    return record


def _emit_rows(
    headers: Sequence[str], records: Sequence[dict], fmt: str, out: IO[str]
) -> None:
    """Write JSON-ready records in one format; table and CSV cells are the
    header columns, with non-string values (n, flags) in their JSON form."""
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record) + "\n")
        return

    def cell(value: object) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    rows = [[cell(record[h]) for h in headers] for record in records]
    if fmt == "csv":
        out.write(",".join(headers) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return
    widths = [
        max(len(headers[col]), max((len(r[col]) for r in rows), default=0))
        for col in range(len(headers))
    ]
    out.write("  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)).rstrip() + "\n")


def _open_cache(args: argparse.Namespace) -> CacheFile | None:
    path = args.cache or os.environ.get("OLIVE_CACHE")
    return CacheFile(Path(path)) if path else None


def cmd_count(args: argparse.Namespace, out: IO[str]) -> int:
    counts = _resolve_counts(
        args.variant, args.max_n, args.max_states, _open_cache(args), args.self_check
    )
    records = [
        _record((("n", n), ("count", c), ("variant", args.variant)))
        for n, c in enumerate(counts)
    ]
    _emit_rows(("n", "count"), records, args.format, out)
    return 0


def cmd_enumerate(args: argparse.Namespace, out: IO[str]) -> int:
    if args.emit == "games":
        for game in games.enumerate_games(args.n, ceiling=args.oracle_ceiling):
            out.write(game.text + "\n")
    elif args.emit == "skeletons":
        seen = set()
        for game in games.enumerate_games(args.n, ceiling=args.oracle_ceiling):
            text = " ".join(games.skeleton(game))
            if text not in seen:
                seen.add(text)
                out.write(text + "\n")
    else:
        histogram = games.stats_histogram(args.n, ceiling=args.oracle_ceiling)
        headers = (*games.GameStats._fields, "count")
        records = [
            _record(zip(headers, (*stats, count)))
            for stats, count in sorted(histogram.items())
        ]
        _emit_rows(headers, records, "csv", out)
    return 0


def cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for suite, check in verify.run_suites(names, ceiling=args.oracle_ceiling):
        if check.ok:
            out.write(f"PASS [{suite}] {check.name}\n")
        else:
            failures += 1
            out.write(f"FAIL [{suite}] {check.name}: {check.detail}\n")
    out.write(f"{'FAIL' if failures else 'OK'}: {failures} failed\n")
    return 1 if failures else 0


def cmd_table(args: argparse.Namespace, out: IO[str]) -> int:
    """The ``ratio`` and ``bounds`` tables: one record per report row,
    keyed by the report's fields in order."""
    analysis.check_table_size(args.max_n)
    counts = _resolve_counts(
        "first-return", args.max_n, args.max_states, _open_cache(args)
    )
    records = [
        _record(asdict(row).items(), args.decimal_cell)
        for row in args.table(counts)
    ]
    _emit_rows(list(records[0]), records, args.format, out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default table)",
    )
    parser.add_argument(
        "--max-states", type=int, default=DEFAULT_STATE_LIMIT,
        help="abort counting beyond this many distinct states",
    )
    parser.add_argument(
        "--cache", metavar="PATH", default=None,
        help="counts cache file (falls back to $OLIVE_CACHE)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plates-olives",
        description="Exact counts and enumeration for the game of plates and olives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact counts for n = 0..max-n")
    p_count.add_argument("--max-n", type=int, required=True)
    p_count.add_argument("--variant", choices=VARIANTS, default="first-return")
    p_count.add_argument(
        "--self-check", action="store_true",
        help="recompute cache hits and fail on drift",
    )
    _add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", help="list games, skeletons, or a histogram")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument(
        "--emit", choices=("games", "skeletons", "histogram"), default="games"
    )
    p_enum.add_argument(
        "--oracle-ceiling", type=int, default=games.DEFAULT_ORACLE_CEILING,
        help="largest n enumeration will attempt",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument(
        "--suite", choices=tuple(verify.SUITES) + ("all",), default="all",
        help="check suite to run (default all)",
    )
    p_verify.add_argument(
        "--oracle-ceiling", type=int, default=games.DEFAULT_ORACLE_CEILING,
        help="largest n the oracle and claims suites walk",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_ratio = sub.add_parser("ratio", help="growth-ratio table r_n = M_n^(1/n)/n")
    p_ratio.add_argument("--max-n", type=int, required=True)
    _add_common(p_ratio)
    p_ratio.set_defaults(func=cmd_table, table=analysis.ratio_table, decimal_cell=_six)

    p_bounds = sub.add_parser("bounds", help="counts against bounds and envelopes")
    p_bounds.add_argument("--max-n", type=int, required=True)
    _add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_table, table=analysis.bound_table, decimal_cell=_sci)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except PlatesOlivesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
