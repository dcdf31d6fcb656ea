"""E11 — the three key-distribution roads (paper section 3, prose claims).

The paper motivates local authentication by eliminating the two classical
options: a trusted dealer ("contradicts the underlying model") and
non-authenticated agreement per key ("may not work because of too many
faulty nodes" + cost).  This bench puts numbers on that paragraph:

* messages and rounds for each method;
* the feasibility boundary: agreement-based distribution refuses
  ``n <= 3t`` while local authentication runs with a faulty majority;
* what each method buys (G3 or not, trust assumption or not).
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.analysis.complexity import akd_envelopes, akd_instance_envelopes
from repro.analysis.experiments import e11_keydist_methods


def test_e11_method_comparison(report):
    # (13, 4) and beyond are omitted: the n*OM(t) report payloads grow
    # factorially and one data point costs tens of seconds — the
    # blow-up itself is the measurement.
    table = e11_keydist_methods(((4, 1), (7, 2), (10, 3)))
    report(table.render())
    assert table.ok


def test_e11b_mux_per_instance_costs(report, psweep):
    """E11b — the mux subsystem's per-instance meters vs the closed forms.

    The paper prices agreement-based key distribution as *n instances of*
    OM(t); since the instance multiplexer attributes every envelope to
    its instance, that sentence is now directly measurable: each of the n
    instances costs exactly ``(n-1) + t(n-1)²`` envelopes and the
    aggregate exactly n times that."""
    points = psweep(
        [
            {"n": n, "t": t, "seed": n}
            for n, t in [(4, 1), (7, 2), (10, 3)]
        ],
        "akd",
    )
    rows = []
    for point in points:
        n, t = point.params["n"], point.params["t"]
        result = point.result
        per_instance = akd_instance_envelopes(n, t)
        aggregate = akd_envelopes(n, t)
        rows.append(
            [
                n,
                t,
                per_instance,
                f"{result['instance_messages_min']}"
                f"..{result['instance_messages_max']}",
                aggregate,
                result["messages"],
                result["instance_bytes_max"],
                result["bytes"],
            ]
        )
        assert result["instance_messages_min"] == per_instance
        assert result["instance_messages_max"] == per_instance
        assert result["messages"] == aggregate
        assert result["agreed"]
    report(
        render_table(
            [
                "n", "t",
                "per-inst (n-1)+t(n-1)^2", "per-inst measured",
                "aggregate n*[...]", "aggregate measured",
                "per-inst bytes", "aggregate bytes",
            ],
            rows,
            title="E11b  n*OM(t) mux: per-instance vs aggregate envelopes",
        )
    )


def test_e11_feasibility_boundary(report, psweep):
    points = psweep(
        [
            {"n": n, "t": t, "seed": n}
            for n, t in [(6, 2), (9, 3), (12, 4)]
        ],
        "e11-feasibility",
    )
    rows = []
    for point in points:
        n, t = point.params["n"], point.params["t"]
        result = point.result
        agreement_status = (
            "ran (unexpected)"
            if result["agreement_feasible"]
            else "infeasible (n <= 3t)"
        )
        rows.append(
            [
                n,
                t,
                agreement_status,
                f"ok, {result['faulty']}/{n} nodes faulty"
                if result["local_pair_ok"]
                else "FAILED",
            ]
        )
        assert not result["agreement_feasible"]
        assert result["local_pair_ok"]
    report(
        render_table(
            ["n", "t", "agreement-based", "local authentication"],
            rows,
            title="E11c  feasibility: the oral bound vs arbitrary faults",
        )
    )
