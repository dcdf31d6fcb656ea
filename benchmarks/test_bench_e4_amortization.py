"""E4 — amortization of the key distribution cost (paper Summary).

Claim: "the effort of establishing local authentication once results in a
substantial reduction of messages in subsequent failure-discovery
protocols."

Regenerates the cumulative cost curves (keydist + k chain runs vs k echo
runs), the measured crossover per network size, and checks it against the
closed form k > 3n/t.
"""

from __future__ import annotations

from repro.analysis import complexity, crossover_runs, render_table
from repro.analysis.experiments import e4_amortization
from repro.harness import LOCAL, AmortizedSession
from repro.harness.workloads import COUNT_SCHEME


def test_e4_measured_crossover(report):
    table = e4_amortization((8, 16, 32))
    report(table.render())
    assert table.ok


def test_e4_cumulative_curves(report):
    """The figure-shaped series for n=16: both cumulative curves, read
    from a measured session's ledger and checked against the closed
    forms run by run."""
    n, t = 16, 5
    session = AmortizedSession(n, t, auth=LOCAL, scheme=COUNT_SCHEME)
    for k in range(16):
        assert session.run(value=("run", k), seed=k).fd.ok
    report(
        render_table(
            ["runs k", "keydist + k·(n-1)", "k·(t+1)(n-1)", "cheaper"],
            [
                [entry.runs, entry.local_total, entry.baseline_total,
                 "local" if entry.amortized else "non-auth"]
                for entry in session.ledger
            ],
            title=f"E4b  cumulative message cost, n={n}, t={t}",
        )
    )
    for entry in session.ledger:
        assert entry.local_total == complexity.amortized_messages_local(n, t, entry.runs)
        assert entry.baseline_total == complexity.amortized_messages_nonauth(n, t, entry.runs)
    assert session.crossover_run() == crossover_runs(n, t) == 10
