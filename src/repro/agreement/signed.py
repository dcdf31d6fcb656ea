"""SM(t): Byzantine Agreement with signed messages (Lamport-Shostak-Pease).

The classical authenticated agreement protocol, provided as the fallback
for the FD→BA extension and as the cost baseline the paper's Failure
Discovery protocol is measured against (experiment E7):

* round 0 — the sender signs its value and broadcasts ``{v}_{S_0}``;
* round ``r`` (1..t+1) — a node receiving a value under a chain of exactly
  ``r`` distinct signatures beginning with the sender's adds the value to
  its extraction set ``V``; if the value is new and ``r <= t``, the node
  countersigns and relays to every node that has not yet signed;
* after round ``t+1`` — decide ``choice(V)``: the value if ``|V| = 1``,
  otherwise the default (the sender equivocated).

Tolerates any ``t <= n - 2`` — no ``n > 3t`` bound, which is precisely the
advantage of authentication the paper builds on.  Correct nodes relay at
most two distinct values (two suffice to prove sender equivocation to
everyone), the standard message optimisation.

Failure-free cost is ``(n-1) + (n-1)(n-2)`` messages — Θ(n²) — because
every receiver must relay the sender's value once before it can be sure
others saw it.  Contrast: the extension of the chain FD protocol reaches
BA at ``n-1`` failure-free messages (its fallback, this protocol, runs
only when a failure was discovered).

Chain discipline: links name their inner signer (section 4 of the paper),
so this implementation is safe under *local* authentication too — the
same Theorem 4 argument applies, and the tests run it both ways.
"""

from __future__ import annotations

from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.chain import extend_chain, sign_leaf, verify_chain
from ..crypto.keys import KeyPair
from ..crypto.signing import SignedMessage
from ..sim import Envelope, NodeContext, Protocol, assemble_protocols, node_keys
from ..types import NodeId, validate_fault_budget
from .problem import DEFAULT_VALUE

SM_MSG = "ba-signed"

#: The distinguished sender is node 0.
SENDER: NodeId = 0

#: Correct nodes relay at most this many distinct values (2 prove a lie).
MAX_RELAYED_VALUES = 2


class SignedAgreementProtocol(Protocol):
    """One node's behaviour in SM(t).

    :param default: decided when the extraction set is not a singleton.
    """

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: Any = None,
        default: Any = DEFAULT_VALUE,
    ) -> None:
        validate_fault_budget(t, n)
        self._n = n
        self._t = t
        self._keypair = keypair
        self._directory = directory
        self._value = value
        self._default = default
        self._extracted: list[Any] = []
        self._relayed = 0
        # Relay filter: (outer sender, body bytes, signature) triples already
        # processed.  A duplicate from the same immediate sender can never
        # change state: in the same round it reaches the same verdict (the
        # triple fixes every verification input) and extraction is
        # idempotent; in a later round the depth check rejects it anyway.
        self._seen: set[tuple[NodeId, bytes, bytes]] = set()

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0:
            if ctx.node == SENDER:
                leaf = sign_leaf(self._keypair.secret, self._value)
                ctx.broadcast((SM_MSG, leaf))
                self._extracted.append(self._value)
            return
        if ctx.round <= self._t + 1:
            self._accept_round(ctx, inbox)
        if ctx.round >= self._t + 1:
            self._decide(ctx)

    def _accept_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for env in inbox:
            payload = env.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == SM_MSG
                and isinstance(payload[1], SignedMessage)
            ):
                continue  # garbage never blocks agreement; just ignore it
            signed = payload[1]
            dedup_key = (env.sender, signed.body_bytes(), signed.signature)
            if dedup_key in self._seen:
                continue
            self._seen.add(dedup_key)
            verdict = verify_chain(
                signed,
                outer_signer=env.sender,
                directory=self._directory,
                expected_depth=ctx.round,
            )
            # The innermost signature must be the sender's (the classical
            # "v:0:..." requirement); verify_chain already enforced signer
            # distinctness and per-layer assignment.
            if not verdict.ok or verdict.signers()[-1] != SENDER:
                continue
            self._extract(ctx, verdict.value, verdict.signers(), signed)

    def _extract(
        self,
        ctx: NodeContext,
        value: Any,
        signers: tuple[NodeId, ...],
        signed: SignedMessage,
    ) -> None:
        if any(value == known for known in self._extracted):
            return
        self._extracted.append(value)
        if ctx.round <= self._t and self._relayed < MAX_RELAYED_VALUES:
            self._relayed += 1
            extended = extend_chain(
                self._keypair.secret, signers[0], signed
            )
            recipients = [
                node
                for node in ctx.others()
                if node not in signers
            ]
            ctx.broadcast((SM_MSG, extended), to=recipients)

    def _decide(self, ctx: NodeContext) -> None:
        if len(self._extracted) == 1:
            ctx.decide(self._extracted[0])
        else:
            ctx.decide(self._default)
        ctx.halt()


def make_signed_agreement_protocols(
    n: int,
    t: int,
    value: Any,
    keypairs: dict[NodeId, KeyPair],
    directories: dict[NodeId, KeyDirectory],
    adversaries: dict[NodeId, Protocol] | None = None,
    default: Any = DEFAULT_VALUE,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one SM(t) run."""
    return assemble_protocols(
        n,
        t,
        lambda node: SignedAgreementProtocol(
            n, t, *node_keys(keypairs, directories, node),
            value=value if node == SENDER else None, default=default,
        ),
        adversaries,
    )
