"""E2 — authenticated chain FD cost (paper Fig. 2 + section 5).

Claim: "This protocol works with the minimal number of messages of n−1"
in t+1 rounds, under global *or* local authentication.
"""

from __future__ import annotations

from repro.analysis import check_mark, render_table
from repro.analysis.experiments import e2_chain_fd
from repro.harness import LOCAL, sizes_with_budgets, standard_sizes


def test_e2_chain_fd_series(report):
    table = e2_chain_fd(standard_sizes())
    report(table.render())
    assert table.ok


def test_e2_local_auth_same_cost(report, psweep):
    """The headline theorem: identical FD cost under local authentication."""
    points = psweep(
        [
            {"n": n, "t": t, "seed": n, "protocol": "chain", "auth": LOCAL}
            for n, t in sizes_with_budgets(standard_sizes(small=True))
        ],
        "fd",
    )
    rows = []
    for point in points:
        n, t = point.params["n"], point.params["t"]
        assert point.result["fd_ok"]
        messages = point.result["messages"]
        rows.append([n, t, n - 1, messages, check_mark(messages == n - 1)])
        assert messages == n - 1
    report(
        render_table(
            ["n", "t", "n-1 paper", "measured (local auth)", "verdict"],
            rows,
            title="E2b  chain FD under LOCAL authentication — same n-1 cost",
        )
    )
