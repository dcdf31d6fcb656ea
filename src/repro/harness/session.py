"""Amortized sessions: pay for key distribution once, run FD many times.

This is the deployment story of the paper's Summary: "one can run
arbitrarily many Failure Discovery protocols with low message complexity"
after establishing local authentication once.  An :class:`AmortizedSession`
holds the authentication state across runs and keeps a cumulative ledger
comparing against the non-authenticated baseline, so callers can watch the
3·n·(n−1) investment pay off run by run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..analysis import fd_nonauth_messages
from ..crypto import DEFAULT_SCHEME
from ..types import NodeId, validate_fault_budget
from .runner import (
    FD,
    LOCAL,
    AdversaryInput,
    ScenarioOutcome,
    _run_scenario,
    setup_authentication,
)


@dataclass(frozen=True)
class LedgerEntry:
    """Cumulative totals after one more FD run in the session."""

    runs: int
    local_total: int      # keydist (if any) + all FD runs so far
    baseline_total: int   # what runs * echo-FD would have cost

    @property
    def amortized(self) -> bool:
        """True once the session has beaten the non-auth baseline."""
        return self.local_total < self.baseline_total


class AmortizedSession:
    """Authentication established once; chain-FD runs on demand.

    :param n: network size.
    :param t: fault budget for every FD run in the session.
    :param auth: :data:`LOCAL` (pay 3n(n−1) up front, the paper's setting)
        or :data:`GLOBAL` (trusted dealer, zero setup messages).
    :param seed: master seed for key generation.

    Example::

        session = AmortizedSession(n=16, t=5, auth=LOCAL)
        for k in range(20):
            outcome = session.run(value=("op", k), seed=k)
            assert outcome.fd.ok
        assert session.ledger[-1].amortized  # 3n(n-1) has paid for itself
    """

    def __init__(
        self,
        n: int,
        t: int,
        auth: str = LOCAL,
        scheme: str = DEFAULT_SCHEME,
        seed: int | str = 0,
        delivery: str | None = None,
    ) -> None:
        validate_fault_budget(t, n)
        self.n = n
        self.t = t
        self.auth = auth
        #: Delivery model spec applied to every FD run in the session
        #: (the key-distribution investment stays lock-step — it is the
        #: paper's baseline being amortized).
        self.delivery = delivery
        self._keys = setup_authentication(n, auth=auth, scheme=scheme, seed=seed)
        self.keypairs, self.directories, kd = self._keys
        self.setup_messages = kd.messages if kd is not None else 0
        self._fd_messages = 0
        self.ledger: list[LedgerEntry] = []

    def run(
        self,
        value: Any,
        seed: int | str = 0,
        adversary: AdversaryInput = None,
        faulty: set[NodeId] | None = None,
    ) -> ScenarioOutcome:
        """Run one chain-FD instance over the session's key material.

        The scenario pipeline of :func:`repro.harness.run_fd_scenario`
        with authentication already paid for; ``adversary`` and
        ``faulty`` mean what they mean there.
        """
        outcome = _run_scenario(
            FD, self.n, self.t, value, "chain", keys=self._keys, seed=seed,
            adversary=adversary, faulty=faulty, delivery=self.delivery,
        )
        self._fd_messages += outcome.run.metrics.messages_total
        self.ledger.append(
            LedgerEntry(
                runs=len(self.ledger) + 1,
                local_total=self.setup_messages + self._fd_messages,
                baseline_total=(len(self.ledger) + 1)
                * fd_nonauth_messages(self.n, self.t),
            )
        )
        return outcome

    def crossover_run(self) -> int | None:
        """The run index at which the session first beat the baseline."""
        for entry in self.ledger:
            if entry.amortized:
                return entry.runs
        return None
