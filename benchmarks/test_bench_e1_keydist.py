"""E1 — key distribution cost (paper Fig. 1 + section 3.1).

Claim: "The message complexity of the protocol is 3·n·(n−1) ... It takes
3 rounds of communication."

Regenerates the (n, messages, rounds) series and checks the measured
counts against the closed form exactly.
"""

from __future__ import annotations

from repro.analysis.experiments import e1_keydist
from repro.harness import standard_sizes


def test_e1_keydist_series(report):
    table = e1_keydist(standard_sizes())
    report(table.render())
    assert table.ok
