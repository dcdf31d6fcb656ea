"""Adversarial behaviours against the Failure Discovery protocols.

Each attack targets a specific check in the protocols' discovery logic;
the FD tests pair every attack with the F1-F3 oracle to confirm that the
conditions survive (usually because some correct node discovers).  The
chain attackers send along the honest Fig. 2 route through
:func:`~repro.fd.authenticated.forward_chain`, so each deviates from the
protocol only in what it sends and when, never in where.
"""

from __future__ import annotations

from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.chain import extend_chain, sign_leaf
from ..crypto.keys import KeyPair
from ..crypto.signing import SignedMessage, garble_signature
from ..fd.authenticated import (
    CHAIN_MSG,
    ChainFDProtocol,
    chain_payload,
    forward_chain,
)
from ..sim import Envelope, NodeContext, Protocol
from ..types import NodeId, Round
from .behaviors import TamperingProtocol


class EquivocatingSender(Protocol):
    """A faulty sender telling different nodes different values.

    :param values: recipient -> value; each recipient is sent a properly
        signed leaf for its designated value in round 0.  Recipients not
        listed receive nothing.

    Against the chain protocol with ``t >= 1`` the spurious direct sends
    land outside the failure-free message pattern and are discovered; with
    ``t = 0`` the sender alone exceeds the fault budget, so F1-F3 do not
    bind (the tests assert the budget boundary both ways).
    """

    def __init__(self, keypair: KeyPair, values: dict[NodeId, Any]) -> None:
        self._keypair = keypair
        self._values = dict(values)

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0:
            for recipient, value in sorted(self._values.items()):
                leaf = sign_leaf(self._keypair.secret, value)
                ctx.send(recipient, (CHAIN_MSG, leaf))
        ctx.halt()


class FabricatingChainNode(Protocol):
    """A chain node that discards the real chain and forges its own.

    It cannot forge its predecessors' signatures (S1), so the best it can
    do is start a fresh chain from its own leaf — which fails the
    successor's expected-depth/expected-signers check.

    :param substitute_value: the value it tries to inject.
    """

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        substitute_value: Any,
    ) -> None:
        self._n = n
        self._t = t
        self._keypair = keypair
        self._value = substitute_value

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        node = ctx.node
        if ctx.round == node and 1 <= node <= self._t:
            forged = sign_leaf(self._keypair.secret, self._value)
            forward_chain(ctx, self._n, self._t, forged)
        if ctx.round >= self._t + 1:
            ctx.halt()


class ImpersonatingChainNode(Protocol):
    """A chain node extending the chain with a key it claims is another's.

    The vehicle for the Theorem 4 experiments: combined with a key
    distribution attack (cross claiming / key sharing), this node signs
    its chain link with a key whose assignment differs between correct
    observers, so *somebody's* submessage check must fail.

    :param signing_keypair: the (shared/foreign) key to extend with.
    :param name_in_link: the predecessor name to embed (an honest extender
        embeds its true predecessor; a lying one embeds anything).
    """

    def __init__(
        self,
        n: int,
        t: int,
        signing_keypair: KeyPair,
        name_in_link: NodeId | None = None,
    ) -> None:
        self._n = n
        self._t = t
        self._keypair = signing_keypair
        self._name = name_in_link

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        node = ctx.node
        if ctx.round == node and 1 <= node <= self._t:
            chain = _first_chain_payload(inbox)
            if chain is not None:
                name = self._name if self._name is not None else node - 1
                extended = extend_chain(self._keypair.secret, name, chain)
                forward_chain(ctx, self._n, self._t, extended)
        if ctx.round >= self._t + 1:
            ctx.halt()


def _first_chain_payload(inbox: list[Envelope]) -> SignedMessage | None:
    for env in inbox:
        chain = chain_payload(env.payload)
        if chain is not None:
            return chain
    return None


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


def withholding_chain_node(
    n: int,
    t: int,
    keypair: KeyPair,
    directory: KeyDirectory,
    withhold_from: set[NodeId],
    from_round: Round = 0,
) -> Protocol:
    """An otherwise honest chain node that drops messages to a target set.

    Selective withholding is the attack that distinguishes the sound chain
    protocol (victims discover a missing message) from the optimistic
    small-range variant (victims silently decide the default — the F2
    break documented in :mod:`repro.fd.smallrange`).
    """
    inner = ChainFDProtocol(n, t, keypair, directory)
    return TamperingProtocol(
        inner,
        should_send=lambda rnd, to, payload: not (
            rnd >= from_round and to in withhold_from
        ),
    )


def garbling_chain_node(
    n: int, t: int, keypair: KeyPair, directory: KeyDirectory
) -> Protocol:
    """An otherwise honest chain node whose outgoing signatures are garbled.

    Exercises the "check the signatures ... if negative then discover
    failure and stop" branch of paper Fig. 2 at the successor.
    """
    inner = ChainFDProtocol(n, t, keypair, directory)

    def transform(rnd: Round, to: NodeId, payload: Any) -> Any:
        chain = chain_payload(payload)
        return payload if chain is None else (CHAIN_MSG, garble_signature(chain))

    return TamperingProtocol(inner, transform=transform)


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
