"""E4 — amortization of the key distribution cost (paper Summary).

Claim: "the effort of establishing local authentication once results in a
substantial reduction of messages in subsequent failure-discovery
protocols."

Regenerates the cumulative cost curves (keydist + k chain runs vs k echo
runs), the measured crossover per network size, and checks it against the
closed form k > 3n/t.
"""

from __future__ import annotations

from repro.analysis import amortization_curve, crossover_runs, render_table
from repro.analysis.experiments import e4_amortization


def test_e4_measured_crossover(report):
    table = e4_amortization((8, 16, 32))
    report(table.render())
    assert table.ok


def test_e4_cumulative_curves(report):
    """The figure-shaped series for n=16: both cumulative curves."""
    n, t = 16, 5
    curve = amortization_curve(n, t, 16)
    rows = [
        [
            point.runs,
            point.local_auth_total,
            point.nonauth_total,
            "local" if point.local_wins else "non-auth",
        ]
        for point in curve.points
    ]
    report(
        render_table(
            ["runs k", "keydist + k·(n-1)", "k·(t+1)(n-1)", "cheaper"],
            rows,
            title=f"E4b  cumulative message cost, n={n}, t={t}",
        )
    )
    assert curve.crossover() == crossover_runs(n, t)
