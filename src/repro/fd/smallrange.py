"""Small-value-range variants: assigning values to missing messages.

The paper (section 5) notes that when the value range is known a priori
and small, "solutions with fewer messages are possible by assigning values
to missing messages", citing Hadzilacos & Halpern's message-optimal
protocols.  We do not have that construction, so this module provides two
reconstructions of the *technique* — silence decodes to a default value —
with their soundness boundaries made explicit and test-enforced:

:class:`SilentZeroBroadcastProtocol` (sound for ``t = 0``)
    Binary domain.  The sender broadcasts a signed ``1``; for ``0`` it
    stays silent and everyone decides the default at the deadline.
    Failure-free cost: ``n - 1`` messages for value 1, **zero** for value
    0.  With ``t = 0`` the conditions F1-F3 only bind in failure-free
    runs, so silence-decoding is sound.

:class:`OptimisticBinaryChainProtocol` (general ``t`` — optimistic)
    The Fig. 2 chain, but traversed only for value 1; total silence
    decodes to 0.  Failure-free cost: ``n - 1`` for value 1, zero for
    value 0.  **This protocol is not a correct FD protocol for t >= 1**:
    a faulty node that holds a valid 1-chain and selectively withholds it
    makes its successors decide 0 while its predecessors decided 1, and no
    correct node's view deviates from a failure-free (value 0) run — F2 is
    violated without discovery.  ``tests/fd/test_smallrange.py`` constructs
    that attack explicitly.

Reproduction note (E5 in README's "Experiment index" measures it): our analysis indicates that
*receiver-side* silence-decoding cannot be made sound for ``t >= 1``
without extra corroboration traffic that erases the saving, because a
single faulty link can always forge the all-silent view for a suffix of
the nodes while the prefix is already committed.  Whatever construction
[Hadzilacos & Halpern 1995] used must avoid that pattern; lacking the
text, we reproduce the claim's *shape* (fewer messages for a known small
range, here for the default value) in the regime where it is provably
sound, and document the boundary.
"""

from __future__ import annotations

from ..auth.directory import KeyDirectory
from ..crypto.chain import extend_chain, sign_leaf, verify_chain
from ..crypto.keys import KeyPair
from ..errors import ConfigurationError
from ..sim import Envelope, NodeContext, Protocol
from ..types import NodeId, validate_fault_budget
from .authenticated import CHAIN_MSG, SENDER, expected_signers_at

#: The binary domain these protocols operate over.
BINARY_DOMAIN = (0, 1)

#: Value that silence decodes to.
DEFAULT_VALUE = 0


def _validate_binary(value: int | None, node: NodeId) -> None:
    if node == SENDER and value not in BINARY_DOMAIN:
        raise ConfigurationError(
            f"small-range protocols need a value in {BINARY_DOMAIN}, got {value!r}"
        )


class SilentZeroBroadcastProtocol(Protocol):
    """Binary FD for ``t = 0``: broadcast 1, silence means 0.

    :param n: network size.
    :param keypair: the node's keys (only the sender signs).
    :param directory: accepted predicates (receivers verify the leaf).
    :param value: sender's initial value, 0 or 1.
    """

    def __init__(
        self,
        n: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: int | None = None,
    ) -> None:
        self._n = n
        self._keypair = keypair
        self._directory = directory
        self._value = value

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0:
            _validate_binary(self._value, ctx.node)
            if ctx.node == SENDER:
                if self._value == 1:
                    ctx.broadcast((CHAIN_MSG, sign_leaf(self._keypair.secret, 1)))
                ctx.decide(self._value)
                ctx.halt()
            return
        # Round 1: receivers decode.
        if not inbox:
            ctx.decide(DEFAULT_VALUE)
            ctx.halt()
            return
        if len(inbox) != 1 or inbox[0].sender != SENDER:
            ctx.discover_failure("unexpected traffic in the decode round")
            ctx.halt()
            return
        payload = inbox[0].payload
        if not (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == CHAIN_MSG
        ):
            ctx.discover_failure("malformed sender message")
            ctx.halt()
            return
        verdict = verify_chain(
            payload[1],
            outer_signer=SENDER,
            directory=self._directory,
            expected_depth=1,
            expected_signers=(SENDER,),
        )
        if verdict.ok and verdict.value == 1:
            ctx.decide(1)
        else:
            ctx.discover_failure(f"invalid broadcast: {verdict.reason or 'value'}")
        ctx.halt()


class OptimisticBinaryChainProtocol(Protocol):
    """Binary chain FD where silence decodes to 0 — optimistic for t >= 1.

    Structure and checks are those of
    :class:`repro.fd.authenticated.ChainFDProtocol`, except a node whose
    designated round passes in total silence decides ``0`` instead of
    discovering a missing message.  See the module docstring for the
    soundness boundary this buys the zero-message value-0 run.
    """

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: int | None = None,
    ) -> None:
        validate_fault_budget(t, n)
        self._n = n
        self._t = t
        self._keypair = keypair
        self._directory = directory
        self._value = value
        self._deadline = t + 1

    def _is_chain_node(self, node: NodeId) -> bool:
        return 1 <= node <= self._t

    def _expected_round(self, node: NodeId) -> int | None:
        if node == SENDER:
            return None
        return node if self._is_chain_node(node) else self._t + 1

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0 and ctx.node == SENDER:
            _validate_binary(self._value, ctx.node)
            if self._value == 1:
                leaf = sign_leaf(self._keypair.secret, 1)
                if self._t == 0:
                    ctx.broadcast((CHAIN_MSG, leaf))
                else:
                    ctx.send(1, (CHAIN_MSG, leaf))
            ctx.decide(self._value)

        expected = self._expected_round(ctx.node)
        if expected is not None and ctx.round == expected:
            self._decode_round(ctx, inbox)
        elif inbox:
            ctx.discover_failure(
                f"unexpected message(s) in round {ctx.round}"
            )
            ctx.halt()
            return

        if ctx.round >= self._deadline and not ctx.state.halted:
            ctx.halt()

    def _decode_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        node = ctx.node
        if not inbox:
            # The "assign a value to the missing message" step.
            ctx.decide(DEFAULT_VALUE)
            return
        predecessor = node - 1 if self._is_chain_node(node) else self._t
        depth = node if self._is_chain_node(node) else self._t + 1
        payload = inbox[0].payload
        well_formed = (
            len(inbox) == 1
            and inbox[0].sender == predecessor
            and isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == CHAIN_MSG
        )
        if not well_formed:
            ctx.discover_failure("malformed or misdirected chain message")
            ctx.halt()
            return
        verdict = verify_chain(
            payload[1],
            outer_signer=predecessor,
            directory=self._directory,
            expected_depth=depth,
            expected_signers=expected_signers_at(depth),
        )
        if not verdict.ok or verdict.value != 1:
            ctx.discover_failure(
                f"invalid 1-chain: {verdict.reason or 'wrong value'}"
            )
            ctx.halt()
            return
        ctx.decide(1)
        if self._is_chain_node(node):
            extended = extend_chain(self._keypair.secret, predecessor, payload[1])
            if node < self._t:
                ctx.send(node + 1, (CHAIN_MSG, extended))
            else:
                ctx.broadcast(
                    (CHAIN_MSG, extended), to=list(range(self._t + 1, self._n))
                )


def make_small_range_protocols(
    n: int,
    t: int,
    value: int,
    keypairs: dict[NodeId, KeyPair],
    directories: dict[NodeId, KeyDirectory],
    adversaries: dict[NodeId, Protocol] | None = None,
    optimistic: bool = False,
) -> list[Protocol]:
    """Assemble a small-range FD run.

    :param optimistic: if True use :class:`OptimisticBinaryChainProtocol`
        (any ``t``, unsound against in-chain withholding); otherwise the
        sound ``t = 0`` broadcast protocol (requires ``t == 0``).
    :raises ConfigurationError: for ``t != 0`` without ``optimistic``.
    """
    adversaries = adversaries or {}
    if not optimistic and t != 0:
        raise ConfigurationError(
            "SilentZeroBroadcastProtocol is only sound for t=0; "
            "pass optimistic=True to opt into the optimistic chain variant"
        )
    protocols: list[Protocol] = []
    for node in range(n):
        if node in adversaries:
            protocols.append(adversaries[node])
            continue
        if node not in keypairs or node not in directories:
            raise ConfigurationError(
                f"honest node {node} is missing keypair or directory"
            )
        node_value = value if node == SENDER else None
        if optimistic:
            protocols.append(
                OptimisticBinaryChainProtocol(
                    n, t, keypairs[node], directories[node], value=node_value
                )
            )
        else:
            protocols.append(
                SilentZeroBroadcastProtocol(
                    n, keypairs[node], directories[node], value=node_value
                )
            )
    return protocols
