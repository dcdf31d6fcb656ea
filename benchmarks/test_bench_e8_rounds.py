"""E8 — round complexity trade-off (paper sections 3.1 and 5).

Claims folded into one table: key distribution takes 3 rounds; chain FD
takes t+1 rounds; the echo baseline takes 2 rounds.  The trade the paper
buys: more rounds per run (t+1 > 2) in exchange for ~t× fewer messages —
an explicit latency/bandwidth trade-off this bench makes visible.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.analysis.experiments import e8_rounds
from repro.harness import standard_sizes


def test_e8_round_table(report):
    table = e8_rounds(standard_sizes())
    report(table.render())
    assert table.ok


def test_e8_latency_bandwidth_tradeoff(report, psweep):
    """The chain protocol trades rounds for messages: rounds grow with t,
    messages do not; the echo protocol is the mirror image."""
    n = 16
    points = psweep(
        [{"n": n, "t": t, "seed": t, "protocol": protocol}
         for t in (1, 2, 3, 5) for protocol in ("chain", "echo")],
        "fd",
    )
    rows = []
    for chain, echo in zip(points[::2], points[1::2]):
        chain, echo = chain.result, echo.result
        rows.append(
            [chain["t"], chain["rounds"], chain["messages"], echo["rounds"], echo["messages"]]
        )
        assert chain["messages"] == n - 1
        assert echo["rounds"] == 2
    report(
        render_table(
            ["t", "chain rounds", "chain msgs", "echo rounds", "echo msgs"],
            rows,
            title=f"E8b  latency/bandwidth trade-off at n={n}",
        )
    )
