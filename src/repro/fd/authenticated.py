"""The authenticated Failure Discovery protocol (paper Fig. 2).

The sender ``P_0`` signs its value and sends it to ``P_1``; each chain node
``P_i`` (``1 <= i < t``) checks the signatures of the message and all its
submessages, then countersigns (naming its predecessor, per the chain
discipline of section 4) and forwards to ``P_{i+1}``; ``P_t`` countersigns
and disseminates to ``P_{t+1} .. P_{n-1}``, who check and accept.

Failure-free cost: ``t`` chain messages plus ``n - 1 - t`` dissemination
messages = **n − 1 messages** (the minimum, per the Baum-Waidner reference)
in **t + 1 rounds**.  Experiment E2 measures both.

Why the chain makes Failure Discovery work: the chain ``P_0 .. P_t`` holds
``t + 1`` nodes, so within the fault budget at least one is correct and the
value is *committed* by its unforgeable signature — an equivocating sender
cannot get two different values past a correct chain node without someone
seeing a signature check fail or an out-of-pattern message, i.e. without a
failure being discovered.

Discovery semantics: a node discovers a failure exactly when its view is
incompatible with every failure-free run (paper section 2).  For this
protocol the failure-free views are fully characterised, so each node
checks operationally:

* the expected chain message arrives in exactly its designated round,
  exactly once, from exactly the designated predecessor;
* the chain verifies: every submessage assigned to its named node (this is
  where local authentication's missing G3 is caught, paper Theorem 4),
  expected depth, expected signer sequence;
* no other message ever arrives.

Works unchanged under global or local authentication — that is the paper's
point (its Lemma 3 plus Theorem 4); the tests instantiate both.
"""

from __future__ import annotations

from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.chain import extend_chain, sign_leaf, verify_chain
from ..crypto.keys import KeyPair
from ..crypto.signing import SignedMessage
from ..sim import Envelope, NodeContext, Protocol, assemble_protocols, node_keys
from ..types import NodeId, validate_fault_budget

#: Payload kind tag for chain-carried values.
CHAIN_MSG = "fd-chain"

#: The distinguished sender is node 0 throughout (paper ``P_0``).
SENDER: NodeId = 0


def expected_signers_at(position: int) -> tuple[NodeId, ...]:
    """Outermost-first signer sequence of the chain arriving at ``position``.

    The message ``P_{i-1}`` sends to ``P_i`` carries the signatures of
    ``P_{i-1}, P_{i-2}, ..., P_0`` — depth ``i`` (leaf included).
    """
    return tuple(range(position - 1, -1, -1))


def chain_payload(payload: Any) -> SignedMessage | None:
    """The chain a ``(CHAIN_MSG, SignedMessage)`` payload carries, else None."""
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == CHAIN_MSG
        and isinstance(payload[1], SignedMessage)
    ):
        return payload[1]
    return None


def forward_chain(ctx: NodeContext, n: int, t: int, chain: SignedMessage) -> None:
    """Send ``chain`` one hop along the Fig. 2 route from ``ctx.node``.

    The sender and each ``P_i`` with ``i < t`` hand it to ``P_{i+1}``;
    ``P_t`` disseminates it to ``P_{t+1} .. P_{n-1}`` (at ``t = 0`` the
    sender itself disseminates).
    """
    if ctx.node < t:
        ctx.send(ctx.node + 1, (CHAIN_MSG, chain))
    else:
        ctx.broadcast((CHAIN_MSG, chain), to=list(range(t + 1, n)))


class ChainFDProtocol(Protocol):
    """One node's behaviour in the Fig. 2 chain protocol.

    :param n: network size.
    :param t: tolerated fault budget; the chain is ``P_1 .. P_t``.
    :param keypair: this node's signing keys.
    :param directory: this node's accepted test predicates — from the key
        distribution protocol (local authentication) or a trusted dealer
        (global authentication); the protocol cannot tell the difference,
        which is the theorem being reproduced.
    :param value: the initial value; only consulted on the sender.
    """

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: Any = None,
    ) -> None:
        validate_fault_budget(t, n)
        self._n = n
        self._t = t
        self._keypair = keypair
        self._directory = directory
        self._value = value
        # Final round: P_t's dissemination (sent at round t) arrives at t+1.
        self._deadline = t + 1

    # -- role helpers -----------------------------------------------------

    def _is_chain_node(self, node: NodeId) -> bool:
        return 1 <= node <= self._t

    def _expected_round(self, node: NodeId) -> int | None:
        """Round in which ``node`` receives the chain (None for the sender)."""
        if node == SENDER:
            return None
        if self._is_chain_node(node):
            return node
        return self._t + 1

    # -- protocol ---------------------------------------------------------

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0 and ctx.node == SENDER:
            self._send_initial(ctx)

        expected = self._expected_round(ctx.node)
        if expected is not None and ctx.round == expected:
            self._receive_chain(ctx, inbox)
        elif inbox:
            # Any message outside the designated round deviates from every
            # failure-free view.
            ctx.discover_failure(
                f"unexpected message(s) in round {ctx.round} from "
                f"{sorted(env.sender for env in inbox)}"
            )
            ctx.halt()
            return

        if ctx.round >= self._deadline and not ctx.state.halted:
            ctx.halt()

    def _send_initial(self, ctx: NodeContext) -> None:
        """Sender: sign the value and start the chain (or broadcast, t=0)."""
        forward_chain(
            ctx, self._n, self._t, sign_leaf(self._keypair.secret, self._value)
        )
        ctx.decide(self._value)

    def _receive_chain(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Chain node or receiver: the designated round arrived."""
        node = ctx.node
        predecessor = node - 1 if self._is_chain_node(node) else self._t
        if len(inbox) != 1:
            ctx.discover_failure(
                f"expected exactly one chain message in round {ctx.round}, "
                f"got {len(inbox)}"
            )
            ctx.halt()
            return
        env = inbox[0]
        signed = chain_payload(env.payload)
        if env.sender != predecessor or signed is None:
            ctx.discover_failure(
                f"malformed or misdirected chain message from {env.sender}"
            )
            ctx.halt()
            return

        depth = node if self._is_chain_node(node) else self._t + 1
        verdict = verify_chain(
            signed,
            outer_signer=env.sender,
            directory=self._directory,
            expected_depth=depth,
            expected_signers=expected_signers_at(depth),
        )
        reason = verdict.reason if not verdict.ok else self._rejection(verdict.value)
        if reason is not None:
            # Fig. 2: "if negative then discover failure and stop".
            ctx.discover_failure(f"chain verification failed: {reason}")
            ctx.halt()
            return

        # Fig. 2: "else accept v and send {S_i, m}_{S_i} to P_{i+1}" (P_t
        # disseminates to the rest of the participants instead).
        ctx.decide(verdict.value)
        if self._is_chain_node(node):
            forward_chain(
                ctx,
                self._n,
                self._t,
                extend_chain(self._keypair.secret, predecessor, signed),
            )

    def _rejection(self, value: Any) -> str | None:
        """Why a verified chain carrying ``value`` is not accepted (None:
        it is).  Fig. 2 accepts every value; variants narrow the domain."""
        return None


def make_chain_fd_protocols(
    n: int,
    t: int,
    value: Any,
    keypairs: dict[NodeId, KeyPair],
    directories: dict[NodeId, KeyDirectory],
    adversaries: dict[NodeId, Protocol] | None = None,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one chain-FD run.

    :param keypairs/directories: authentication state per node, typically
        the outputs of :func:`repro.auth.run_key_distribution` or
        :func:`repro.auth.trusted_dealer_setup`.  Only required for nodes
        not replaced by an adversary.
    :param adversaries: node id -> Byzantine behaviour replacement.
    :raises ConfigurationError: if an honest node lacks keys/directory.
    """
    return assemble_protocols(
        n,
        t,
        lambda node: ChainFDProtocol(
            n, t, *node_keys(keypairs, directories, node),
            value=value if node == SENDER else None,
        ),
        adversaries,
    )
