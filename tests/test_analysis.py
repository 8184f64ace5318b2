"""Growth ratio and bound reporting."""

from __future__ import annotations

from decimal import Decimal, localcontext

import pytest

from plates_olives.analysis import (
    RATIO_PRECISION,
    bound_table,
    nth_root_ratio,
    ratio_table,
)
from plates_olives.counting import count_games_through
from plates_olives.references import double_factorial

SIX = Decimal("0.000001")


class TestNthRootRatio:
    def test_count_one(self):
        assert nth_root_ratio(1, 1) == Decimal(1)

    def test_plain_first_root(self):
        assert nth_root_ratio(2, 1).quantize(SIX) == Decimal("2.000000")

    def test_square_root_case(self):
        # (10)^(1/2) / 2 = sqrt(10)/2, computed here by a different route
        with localcontext() as ctx:
            ctx.prec = RATIO_PRECISION
            expected = Decimal(10).sqrt() / 2
        got = nth_root_ratio(10, 2)
        assert got.quantize(SIX) == expected.quantize(SIX)

    def test_perfect_power(self):
        # (3^7)^(1/7) / 7 = 3/7
        with localcontext() as ctx:
            ctx.prec = RATIO_PRECISION
            expected = Decimal(3) / 7
        assert nth_root_ratio(3**7, 7).quantize(SIX) == expected.quantize(SIX)

    def test_huge_count_stays_exact(self):
        # counts far beyond float range must not overflow
        big = 10**400
        got = nth_root_ratio(big, 100)
        with localcontext() as ctx:
            ctx.prec = RATIO_PRECISION
            expected = Decimal(10) ** 4 / 100
        assert got.quantize(SIX) == expected.quantize(SIX)

    @pytest.mark.parametrize("count,n", [(0, 1), (-5, 2), (1, 0), (1, -3)])
    def test_domain_errors(self, count, n):
        with pytest.raises(ValueError):
            nth_root_ratio(count, n)


class TestRatioTable:
    def test_first_rows(self):
        rows = ratio_table(2)
        assert rows[0].n == 1
        assert rows[0].count == 2
        assert rows[0].ratio.quantize(SIX) == Decimal("2.000000")
        assert rows[1].ratio.quantize(SIX) == Decimal("1.581139")

    def test_monotone_through_18(self):
        rows = ratio_table(18)
        assert [row.monotone_violation for row in rows] == [False] * 18
        for prev, cur in zip(rows, rows[1:]):
            assert cur.ratio < prev.ratio

    def test_deep_ratio_value(self):
        rows = ratio_table(18)
        target = Decimal("1.09206")
        assert abs(rows[-1].ratio - target) < Decimal("0.00001")

    def test_envelope_columns(self):
        rows = ratio_table(3)
        for row in rows:
            assert row.lower_envelope < row.upper_envelope
            # both scale like n^n, so at n=1 they bracket (2/e, 4/e)
        assert rows[0].lower_envelope.quantize(SIX) == Decimal("0.735759")
        assert rows[0].upper_envelope.quantize(SIX) == Decimal("1.471518")

    def test_caller_supplied_counts(self):
        counts = count_games_through(5)
        rows = ratio_table(5, counts=counts)
        assert rows[-1].count == 9856

    def test_short_counts_rejected(self):
        with pytest.raises(ValueError):
            ratio_table(5, counts=[1, 2, 10])

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            ratio_table(0)


class TestBoundTable:
    def test_lower_bound_column(self):
        rows = bound_table(10)
        for row in rows:
            assert row.double_factorial_lower == double_factorial(2 * row.n - 1)
            assert row.count >= row.double_factorial_lower

    def test_crude_envelope_exact_integer(self):
        rows = bound_table(3)
        assert [row.crude_envelope for row in rows] == [
            108,
            108**2 * 2**2,
            108**3 * 3**3,
        ]

    def test_envelope_columns_are_decimals(self):
        row = bound_table(1)[0]
        assert row.envelope_lower.quantize(SIX) == Decimal("0.735759")
        assert row.envelope_upper.quantize(SIX) == Decimal("1.471518")

    def test_envelopes_are_not_pointwise_bounds(self):
        # the asymptotic envelope sits below the actual count at n=1,
        # so the table records it without asserting a pointwise order
        row = bound_table(1)[0]
        assert row.envelope_upper < row.count
