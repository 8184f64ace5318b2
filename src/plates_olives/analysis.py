"""Growth-ratio statistics and bound comparisons for the game counts.

The quantity of interest is r_n = (1/n) * M_n^(1/n).  What the paper
proves is a bracket, (2n - 1)!! <= M_n <= (4/e)^(n+o(n)) * n^n, so r_n
ends up between 2/e and 4/e: its liminf is at least 2/e and its limsup
at most 4/e.  That r_n converges is not proven (Fekete's lemma would give
it if M_n/n! were supermultiplicative, which is only checked on computed
counts).  The exact counts at desk scale show r_n falling to a minimum
at n = 45 (1.078525) and rising at every n from 46 to 50, so the table
reports r_n next to the constants 2/e and 4/e that bracket it.
Neither constant is a pointwise bound at small n (already at n = 1 the
count 2 exceeds (4/e) * 1^1), so the envelope columns are informational
and nothing here asserts them row by row.

Both tables print the counts they are given, [M_0..M_max_n], and never
count themselves.  All ratios are computed with the decimal module at
fixed precision, taking exp(ln(M_n)/n) on the exact integer count.
Counts stay exact Python integers throughout; no machine float ever
touches one.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import InvalidArgument, PlatesOlivesError
from .references import double_factorial

RATIO_PRECISION = 50


def _exp_envelope(base_scale: int, n: int) -> Decimal:
    # (base_scale/e)^n * n^n at working precision
    with localcontext() as ctx:
        ctx.prec = RATIO_PRECISION
        e = Decimal(1).exp()
        return (Decimal(base_scale) / e) ** n * Decimal(n) ** n


def nth_root_ratio(count: int, n: int) -> Decimal:
    """(1/n) * count^(1/n) as a Decimal, exact integer in, no floats."""
    if n < 1:
        raise InvalidArgument("n must be at least 1")
    if count < 1:
        raise InvalidArgument("count must be positive")
    with localcontext() as ctx:
        ctx.prec = RATIO_PRECISION
        return (Decimal(count).ln() / n).exp() / n


def check_table_size(max_n: int) -> None:
    """Reject a ratio or bound table with no rows, before any counting."""
    if max_n < 1:
        raise InvalidArgument("max_n must be at least 1")


@dataclass(frozen=True)
class RatioReport:
    """One row of the ratio table: the exact count, its normalized n-th
    root, the bracketing constants, and a flag raised when the ratio
    failed to decrease from the previous row."""

    n: int
    count: int
    ratio: Decimal
    lower_envelope: Decimal
    upper_envelope: Decimal
    monotone_violation: bool


@dataclass(frozen=True)
class BoundReport:
    """One row of the bound table: the exact count against the double
    factorial lower bound and the informational envelope values."""

    n: int
    count: int
    double_factorial_lower: int
    envelope_lower: Decimal
    envelope_upper: Decimal
    crude_envelope: int


def ratio_table(counts: list[int]) -> list[RatioReport]:
    """RatioReports for n = 1..len(counts) - 1 from the counts M_0, M_1, ..."""
    check_table_size(len(counts) - 1)
    with localcontext() as ctx:
        ctx.prec = RATIO_PRECISION
        e = Decimal(1).exp()
        lower = Decimal(2) / e
        upper = Decimal(4) / e
    out: list[RatioReport] = []
    previous: Decimal | None = None
    for n in range(1, len(counts)):
        ratio = nth_root_ratio(counts[n], n)
        violation = previous is not None and ratio >= previous
        out.append(
            RatioReport(
                n=n,
                count=counts[n],
                ratio=ratio,
                lower_envelope=lower,
                upper_envelope=upper,
                monotone_violation=violation,
            )
        )
        previous = ratio
    return out


def bound_table(counts: list[int]) -> list[BoundReport]:
    """BoundReports for n = 1..len(counts) - 1 from the counts M_0, M_1, ...

    The double factorial (2n - 1)!! is a proven lower bound and is
    checked here, and a count below it raises PlatesOlivesError; the
    envelope columns (2/e)^n n^n, (4/e)^n n^n and the crude 108^n n^n are
    reported for reading only.
    """
    check_table_size(len(counts) - 1)
    out: list[BoundReport] = []
    for n in range(1, len(counts)):
        lower = double_factorial(2 * n - 1)
        if counts[n] < lower:
            raise PlatesOlivesError(
                f"count {counts[n]} at n={n} fell below the proven bound {lower}"
            )
        out.append(
            BoundReport(
                n=n,
                count=counts[n],
                double_factorial_lower=lower,
                envelope_lower=_exp_envelope(2, n),
                envelope_upper=_exp_envelope(4, n),
                crude_envelope=108**n * n**n,
            )
        )
    return out
