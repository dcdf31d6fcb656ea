"""E3 — non-authenticated FD cost (paper section 5).

Claim: "non-authenticated protocols for arbitrary failures need O(n·t)
messages ... With a constant portion of the nodes being faulty this makes
O(n²) messages."

Regenerates the (n, t, messages) series for the echo baseline at the
constant-fraction budget and verifies the exact (t+1)(n−1) count — with
t = ⌊(n−1)/3⌋ that count is quadratic in n — and the per-run gap to the
authenticated protocol.
"""

from __future__ import annotations

from repro.analysis import fd_nonauth_messages, render_table
from repro.analysis.experiments import e3_echo_fd
from repro.harness import sizes_with_budgets, standard_sizes


def test_e3_echo_fd_series(report):
    table = e3_echo_fd(standard_sizes())
    report(table.render())
    assert table.ok


def test_e3_gap_vs_authenticated(report):
    """The who-wins series: auth FD wins at every size with t >= 1, by a
    factor approaching (t+1)."""
    rows = []
    for n, t in sizes_with_budgets(standard_sizes()):
        auth = n - 1
        nonauth = fd_nonauth_messages(n, t)
        rows.append([n, t, auth, nonauth, f"{nonauth / auth:.1f}x"])
        assert nonauth >= auth
        if t >= 1:
            assert nonauth > auth
    report(
        render_table(
            ["n", "t", "auth (n-1)", "non-auth", "factor"],
            rows,
            title="E3b  authentication gap per run",
        )
    )
