"""E10 — signature scheme ablation (E10 in README's "Experiment index").

Message/round counts are *scheme-independent*: the protocol logic never
branches on the scheme, which justifies running the large count sweeps on
the cheap HMAC simulation scheme.  Each scheme runs the same local-auth
chain FD point; the key distribution's messages are the point's
``total_messages`` minus the FD run's own.
"""

from __future__ import annotations

from repro.analysis import check_mark, render_table
from repro.harness import LOCAL

SCHEMES = ["rsa-512", "schnorr-512", "simulated-hmac"]


def test_e10_counts_are_scheme_independent(report, psweep):
    n, t = 8, 2
    points = psweep(
        [{"n": n, "t": t, "auth": LOCAL, "scheme": scheme, "seed": 5} for scheme in SCHEMES],
        "fd",
    )
    rows = []
    counts = set()
    for point in points:
        result = point.result
        assert result["fd_ok"]
        triple = (
            result["total_messages"] - result["messages"],
            result["messages"],
            result["rounds"],
        )
        counts.add(triple)
        rows.append([point.params["scheme"], *triple])
    rows.append(["(all equal)", "", "", check_mark(len(counts) == 1)])
    assert len(counts) == 1
    report(
        render_table(
            ["scheme", "keydist msgs", "FD msgs", "FD rounds"],
            rows,
            title=f"E10  scheme independence of counts, n={n}, t={t}",
        )
    )
