"""repro — reproduction of Borcherding, *Efficient Failure Discovery with
Limited Authentication* (ICDCS 1995).

The paper introduces **local authentication**: a challenge-response key
distribution protocol that any fully connected synchronous network can run
with *no* trusted dealer and under *any* number of Byzantine faults, and
shows that authenticated **Failure Discovery** protocols — linear message
complexity instead of the non-authenticated quadratic — remain correct
with only this weaker authentication.

Package map (bottom-up):

* :mod:`repro.crypto` — canonical encoding, RSA / Schnorr / simulated
  signature schemes (axioms S1-S3), named chain signatures (Theorem 4);
* :mod:`repro.sim` — the synchronous round network (properties N1/N2);
* :mod:`repro.faults` — Byzantine behaviours and key-distribution attacks;
* :mod:`repro.auth` — the key distribution protocol (Fig. 1), trusted
  dealer baseline, assignment properties G1-G3;
* :mod:`repro.fd` — the Failure Discovery problem (F1-F3), chain protocol
  (Fig. 2), echo baseline, small-range variants;
* :mod:`repro.agreement` — OM(t), SM(t), the FD→BA extension;
* :mod:`repro.analysis` — closed-form complexity and amortization;
* :mod:`repro.harness` — scenario runner, attack catalogue, sweeps.

Quickstart::

    from repro.harness import run_fd_scenario, LOCAL

    outcome = run_fd_scenario(n=8, t=2, value="commit", auth=LOCAL, seed=1)
    assert outcome.fd.ok                       # F1-F3 hold
    assert outcome.run.metrics.messages_total == 7   # n - 1
    assert outcome.kd.messages == 3 * 8 * 7          # 3 n (n-1), once
"""

from . import agreement, analysis, auth, crypto, faults, fd, harness, sim
from .errors import ReproError
from .types import NodeId, Round, default_fault_budget

__version__ = "1.0.0"

__all__ = [
    "NodeId",
    "ReproError",
    "Round",
    "agreement",
    "analysis",
    "auth",
    "crypto",
    "default_fault_budget",
    "faults",
    "fd",
    "harness",
    "sim",
]
