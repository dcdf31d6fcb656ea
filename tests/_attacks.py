"""Attack fixtures that only tests deploy.

No workload, CLI command or attack-catalogue scenario runs these; the
protocol tests use them to reach one discovery or rejection branch each:

* :class:`DelayedRelayChainNode` and :func:`duplicating_chain_node` —
  chain nodes that deviate only in *when* or *how often* they send;
* :class:`ClaimForeignPredicateAttack` — a key-distribution attacker
  claiming a correct node's predicate (Theorem 2's G1);
* :func:`forge_signature` — an S1-violating forger for the
  ``simulated-hmac`` scheme.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any

from repro.auth.directory import KeyDirectory
from repro.auth.local import CHALLENGE, PREDICATE, RESPONSE, challenge_body
from repro.crypto.chain import extend_chain
from repro.crypto.keys import KeyPair, TestPredicate
from repro.crypto.signing import SignedMessage
from repro.crypto.simulated import _SECRET_REGISTRY, SimulatedScheme
from repro.faults.behaviors import TamperingProtocol
from repro.faults.fdattacks import _first_chain_payload
from repro.fd.authenticated import ChainFDProtocol, forward_chain
from repro.sim import Envelope, NodeContext, Protocol
from repro.types import NodeId, Round


class DelayedRelayChainNode(Protocol):
    """A chain node that forwards a *valid* chain one round late.

    Delivery timing is part of the failure-free view: the successor
    expects the chain in exactly its designated round, so a correct chain
    message arriving late is discovered twice over — first as a missing
    message at the deadline, then as an unexpected message after it.

    :param delay: extra rounds to hold the chain before forwarding.
    """

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        delay: int = 1,
    ) -> None:
        self._n = n
        self._t = t
        self._keypair = keypair
        self._delay = delay
        self._held: SignedMessage | None = None
        self._forward_round: int | None = None

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        node = ctx.node
        if ctx.round == node and 1 <= node <= self._t:
            chain = _first_chain_payload(inbox)
            if chain is not None:
                self._held = extend_chain(self._keypair.secret, node - 1, chain)
                self._forward_round = ctx.round + self._delay
        if self._forward_round is not None and ctx.round == self._forward_round:
            forward_chain(ctx, self._n, self._t, self._held)
            self._forward_round = None
        if ctx.round >= self._t + 1 + self._delay:
            ctx.halt()


def duplicating_chain_node(
    n: int, t: int, keypair: KeyPair, directory: KeyDirectory
) -> Protocol:
    """An otherwise honest chain node that sends every message twice.

    Duplicates deviate from every failure-free view (exactly-one-message
    expectations), so successors discover.
    """
    inner = ChainFDProtocol(n, t, keypair, directory)

    class _Duplicator(TamperingProtocol):
        def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
            sent: list[tuple[NodeId, Any]] = []

            def record(rnd: Round, to: NodeId, payload: Any) -> bool:
                sent.append((to, payload))
                return True

            self._should_send = record
            super().on_round(ctx, inbox)
            for to, payload in sent:
                ctx.send(to, payload)

    return _Duplicator(inner)


class ClaimForeignPredicateAttack(Protocol):
    """Claim a correct node's predicate without knowing its secret.

    Broadcasts ``victim_predicate`` as its own in round 0.  Challenges
    cannot be answered (S1: no secret, no signature); the attacker either
    stays silent or, with ``garbage_responses=True``, returns syntactically
    valid but cryptographically worthless responses.  Theorem 2 (G1)
    predicts that no correct node accepts.
    """

    def __init__(
        self, victim_predicate: TestPredicate, garbage_responses: bool = False
    ) -> None:
        self._predicate = victim_predicate
        self._garbage = garbage_responses

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0:
            ctx.broadcast((PREDICATE, self._predicate))
        elif ctx.round == 2 and self._garbage:
            for env in inbox:
                payload = env.payload
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 4
                    and payload[0] == CHALLENGE
                ):
                    fake = SignedMessage(
                        body=challenge_body(payload[1], payload[2], payload[3]),
                        signature=bytes(ctx.rng.getrandbits(8) for _ in range(64)),
                    )
                    ctx.send(env.sender, (RESPONSE, fake))
        elif ctx.round >= 3:
            ctx.halt()


def forge_signature(predicate: TestPredicate, message: bytes) -> bytes | None:
    """Deliberately forge a ``simulated-hmac`` signature valid under
    ``predicate`` (an S1-violating adversary).  Returns ``None`` when the
    predicate's secret is not in this process's registry (in which case
    even an S1 violation is impossible to simulate)."""
    if predicate.scheme != SimulatedScheme.name:
        return None
    k = _SECRET_REGISTRY.get(predicate.material)
    if k is None:
        return None
    return hmac.new(k, message, hashlib.sha256).digest()
