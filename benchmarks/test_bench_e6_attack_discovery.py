"""E6 — attack discovery rates (paper Theorems 2 and 4).

Claims: after the key distribution protocol G1 and G2 hold (Theorem 2);
all correct nodes assign every submessage to the same node or at least
one discovers a failure (Theorem 4); F1-F3 are preserved under local
authentication (Lemma 3).

Regenerates the discovery matrix: every attack scenario × multiple seeds,
reporting F1-F3 verdicts, discovery rates and G-property counts.  This is
the reproduction of the paper's correctness argument as measurement: the
theorems predict 100% condition-compliance and discovery exactly where
expected, at every seed.
"""

from __future__ import annotations

from repro.analysis.experiments import e6_attacks


def test_e6_discovery_matrix(report):
    table = e6_attacks(n=8, t=2, seeds=8)
    report(table.render())
    assert table.ok
