"""E5 — small value range: assigning values to missing messages (§5).

Claim: "If the value range is known a priori and small compared to n,
solutions with fewer messages are possible by assigning values to missing
messages."

Regenerates the per-value message counts of the binary variants and
documents (as an executable fact) the soundness boundary that the
reproduction note in ``repro.fd.smallrange`` describes: the zero-message
value-0 run, and the F2 break of the optimistic variant under selective
withholding.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.analysis.experiments import e5_smallrange
from repro.harness import standard_sizes


def test_e5_binary_message_counts(report):
    table = e5_smallrange(standard_sizes(small=True))
    report(table.render())
    assert table.ok


def test_e5_optimistic_counts_and_boundary(report, psweep):
    n, t = 16, 5
    points = psweep(
        [
            {"n": n, "t": t, "value": 0, "seed": 3},
            {"n": n, "t": t, "value": 1, "seed": 3},
            # The documented negative result, measured: selective
            # withholding by the disseminator breaks weak agreement
            # with zero discoveries.
            {"n": n, "t": t, "value": 1, "seed": 3, "withhold": True},
        ],
        "e5-optimistic",
    )
    rows = []
    for point in points[:2]:
        assert point.result["fd_ok"]
        rows.append(
            [point.params["value"], point.result["messages"], "holds (failure-free)"]
        )
    attacked = points[2].result
    rows.append(
        [
            "1 (withheld)",
            attacked["messages"],
            "F2 BROKEN, undiscovered" if not attacked["weak_agreement"] else "holds",
        ]
    )
    assert not attacked["weak_agreement"]
    assert not attacked["any_discovery"]
    report(
        render_table(
            ["value", "messages", "F1-F3"],
            rows,
            title=(
                f"E5b  optimistic binary chain, n={n}, t={t} — the saving and "
                "its documented soundness boundary"
            ),
        )
    )
