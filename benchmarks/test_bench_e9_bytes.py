"""E9 — bytes on the wire: the hidden cost of chain signatures.

The paper's message-count optimum (n−1) is bought with *nested* chain
signatures: the payload P_t disseminates carries t+1 signatures, so byte
complexity grows with the chain depth even though the message count does
not.  This bench quantifies that — with real Schnorr signatures, not the
HMAC simulation — and contrasts the per-message byte profiles of the
three FD protocols.  (Not a claim the paper makes numerically; it is the
ablation of the chain-depth design choice, E9 in README's "Experiment
index".)

E9c adds the EIG side of the byte story: the succinct engine ships
run-length reports whose *dense-equivalent* size is what the meters
charge; predicted vs measured compression comes from the closed forms in
``repro.analysis.complexity``.
"""

from __future__ import annotations

from repro.analysis import (
    check_mark,
    om_collapsed_reports,
    om_reports,
    render_table,
)
from repro.harness import GLOBAL

SCHEME = "schnorr-512"  # real signatures: sizes are meaningful


def test_e9_bytes_grow_with_chain_depth(report, psweep):
    points = psweep(
        [
            {"n": 16, "t": t, "seed": t, "scheme": SCHEME}
            for t in (0, 1, 2, 4, 8)
        ],
        "e9-chain-bytes",
    )
    rows = []
    previous_max = 0
    for point in points:
        t = point.params["t"]
        result = point.result
        assert result["fd_ok"]
        dissemination_msg_bytes = result["dissemination_msg_bytes"]
        rows.append(
            [
                t,
                result["messages"],
                result["bytes"],
                f"{result['bytes'] / result['messages']:.0f}",
                f"{dissemination_msg_bytes:.0f}",
            ]
        )
        assert dissemination_msg_bytes > previous_max  # deeper chain, bigger msg
        previous_max = dissemination_msg_bytes
    report(
        render_table(
            ["t", "messages", "bytes total", "bytes/msg avg", "bytes/dissem. msg"],
            rows,
            title="E9  chain-depth byte cost, n=16, Schnorr signatures",
        )
    )


def test_e9_protocol_byte_profiles(report, psweep):
    n, t = 16, 5
    points = psweep(
        [
            {"n": n, "t": t, "seed": 1, "protocol": "chain", "auth": GLOBAL,
             "scheme": SCHEME},
            {"n": n, "t": t, "seed": 1, "protocol": "echo", "scheme": SCHEME},
        ],
        "fd",
    )
    chain, echo = points[0].result, points[1].result
    assert chain["fd_ok"] and echo["fd_ok"]
    rows = []
    for name, result in (("chain (signed)", chain), ("echo (unsigned)", echo)):
        rows.append(
            [
                name,
                result["messages"],
                result["bytes"],
                f"{result['bytes'] / result['messages']:.0f}",
            ]
        )
    report(
        render_table(
            ["protocol", "messages", "bytes", "bytes/msg"],
            rows,
            title=f"E9b  byte profiles, n={n}, t={t}: fewer but fatter messages",
        )
    )
    # The chain sends ~t+1 times fewer messages...
    assert chain["messages"] * (t + 1) == echo["messages"]
    # ...but each carries signatures, so per-message bytes are much larger.
    assert chain["bytes"] / chain["messages"] > 5 * (echo["bytes"] / echo["messages"])


def test_e9_eig_compression_predicted_vs_measured(report, psweep):
    """The succinct EIG engine's run-length reports vs their dense
    equivalents, against the closed forms: in a unanimous run every report
    is one run, so ``om_collapsed_reports = t(n-1)^2`` runs stand for
    ``om_reports`` dense path reports."""
    points = psweep(
        [
            {"n": n, "t": t, "seed": n}
            for n, t in [(7, 2), (10, 3), (13, 4), (16, 4)]
        ],
        "e9-compression",
    )
    rows = []
    for point in points:
        n, t = point.params["n"], point.params["t"]
        result = point.result
        assert result["agreed"]
        predicted_runs = om_collapsed_reports(n, t)
        predicted_items = om_reports(n, t)
        byte_ratio = result["dense_bytes"] / result["wire_bytes"]
        rows.append(
            [
                n,
                t,
                predicted_items,
                result["dense_items"],
                predicted_runs,
                result["runs_total"],
                f"{byte_ratio:.1f}x",
                check_mark(
                    result["runs_total"] == predicted_runs
                    and result["dense_items"] == predicted_items
                ),
            ]
        )
        assert result["runs_total"] == predicted_runs
        assert result["dense_items"] == predicted_items
        assert result["wire_bytes"] < result["dense_bytes"]
    report(
        render_table(
            [
                "n", "t",
                "dense reports (formula)", "measured",
                "collapsed runs (formula)", "measured",
                "byte compression",
                "verdict",
            ],
            rows,
            title="E9c  EIG report compression: collapsed tree vs dense (unanimous runs)",
        )
    )
