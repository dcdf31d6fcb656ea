"""Amortization curves (experiment E4's engine)."""

from __future__ import annotations

import pytest

from repro.analysis import amortization_curve, crossover_runs


class TestCurve:
    def test_points_are_cumulative(self):
        curve = amortization_curve(16, 5, 10)
        assert len(curve.points) == 10
        for earlier, later in zip(curve.points, curve.points[1:]):
            assert later.local_auth_total > earlier.local_auth_total
            assert later.nonauth_total > earlier.nonauth_total

    def test_crossover_matches_formula(self):
        n, t = 16, 5
        curve = amortization_curve(n, t, 50)
        assert curve.crossover() == crossover_runs(n, t)

    def test_no_crossover_within_short_range(self):
        n, t = 64, 21
        short = amortization_curve(n, t, 2)
        assert short.crossover() is None

    def test_local_always_wins_eventually(self):
        for n in (8, 16, 32):
            t = (n - 1) // 3
            curve = amortization_curve(n, t, 200)
            assert curve.crossover() is not None

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            amortization_curve(8, 2, 0)
