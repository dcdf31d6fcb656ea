"""E7 — FD→BA extension vs direct agreement (paper section 4 + [2]).

Claim: "the extended protocol requires in its failure-free runs the same
number of messages as the underlying Failure Discovery protocol" — so
authenticated BA costs n−1 failure-free, versus Θ(n²) for SM(t) run
directly and worse for oral OM(t).
"""

from __future__ import annotations

from repro.analysis import om_envelopes, om_reports, render_table
from repro.analysis.experiments import e7_extension


def test_e7_failure_free_comparison(report):
    table = e7_extension((8, 16, 32))
    report(table.render())
    assert table.ok


def test_e7_oral_baseline(report, psweep):
    """The oral-messages column of the comparison (envelopes + classical
    exponential report count)."""
    points = psweep(
        [{"n": n, "t": t, "seed": n} for n, t in [(4, 1), (7, 2), (10, 3), (13, 4)]],
        "oral",
    )
    rows = []
    for point in points:
        n, t = point.params["n"], point.params["t"]
        result = point.result
        assert result["agreed"] and result["decision"] == repr("v")
        envelopes = result["messages"]
        rows.append([n, t, n - 1, envelopes, om_reports(n, t), result["bytes"]])
        assert envelopes == om_envelopes(n, t)
    report(
        render_table(
            ["n", "t", "ext (n-1)", "OM envelopes", "OM path-reports", "OM bytes"],
            rows,
            title="E7b  oral agreement baseline: the non-authenticated price",
        )
    )


def test_e7_fallback_cost(report, psweep):
    """With a fault the extension pays the alarm + SM fallback — bounded,
    and only in runs that are not failure-free."""
    n, t = 8, 2
    points = psweep(
        [
            {"n": n, "t": t, "seed": 0},
            {"n": n, "t": t, "seed": 0, "adversary": "1=silent"},
        ],
        "ba",
    )
    clean, faulty = points[0].result, points[1].result
    assert clean["ba_ok"] and faulty["ba_ok"]
    rows = [
        ["failure-free", clean["messages"], clean["rounds"]],
        ["chain node crashed", faulty["messages"], faulty["rounds"]],
    ]
    report(
        render_table(
            ["run", "messages", "rounds"],
            rows,
            title=f"E7c  extension cost profile, n={n}, t={t}",
        )
    )
    assert clean["messages"] == n - 1
    assert faulty["messages"] > n - 1
