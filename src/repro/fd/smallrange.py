"""Small-value-range variants: assigning values to missing messages.

The paper (section 5) notes that when the value range is known a priori
and small, "solutions with fewer messages are possible by assigning values
to missing messages", citing Hadzilacos & Halpern's message-optimal
protocols.  We do not have that construction, so this module provides two
reconstructions of the *technique* — silence decodes to a default value —
with their soundness boundaries made explicit and test-enforced.  Both
specialise :class:`~repro.fd.authenticated.ChainFDProtocol`: they keep its
schedule, its route and its checks, and change only what the sender starts
and what a silent designated round means:

:class:`SilentZeroBroadcastProtocol` (sound for ``t = 0``)
    Binary domain; the optimistic chain below at ``t = 0``.  The sender
    broadcasts a signed ``1``; for ``0`` it stays silent and everyone
    decides the default at the deadline.
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

from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.keys import KeyPair
from ..errors import ConfigurationError
from ..sim import Envelope, NodeContext, Protocol, assemble_protocols, node_keys
from ..types import NodeId
from .authenticated import SENDER, ChainFDProtocol

#: The binary domain these protocols operate over.
BINARY_DOMAIN = (0, 1)

#: Value that silence decodes to.
DEFAULT_VALUE = 0


class OptimisticBinaryChainProtocol(ChainFDProtocol):
    """Binary chain FD where silence decodes to 0 — optimistic for t >= 1.

    Structure and checks are those of
    :class:`repro.fd.authenticated.ChainFDProtocol`, except that the chain
    only ever carries ``1`` and a node whose designated round passes in
    total silence decides ``0`` instead of discovering a missing message.
    See the module docstring for the soundness boundary this buys the
    zero-message value-0 run.
    """

    def _send_initial(self, ctx: NodeContext) -> None:
        if self._value not in BINARY_DOMAIN:
            raise ConfigurationError(
                f"small-range protocols need a value in {BINARY_DOMAIN}, "
                f"got {self._value!r}"
            )
        if self._value == DEFAULT_VALUE:
            ctx.decide(DEFAULT_VALUE)
        else:
            super()._send_initial(ctx)

    def _receive_chain(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if inbox:
            super()._receive_chain(ctx, inbox)
        else:
            # The "assign a value to the missing message" step.
            ctx.decide(DEFAULT_VALUE)

    def _rejection(self, value: Any) -> str | None:
        return None if value == 1 else f"a chain carries {value!r}, not 1"


class SilentZeroBroadcastProtocol(OptimisticBinaryChainProtocol):
    """Binary FD for ``t = 0``: broadcast 1, silence means 0.

    The optimistic chain with no chain nodes: the sender's signed ``1``
    goes straight to everyone, and the sender halts once it has spoken.

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
        super().__init__(n, 0, keypair, directory, value)

    def _send_initial(self, ctx: NodeContext) -> None:
        super()._send_initial(ctx)
        ctx.halt()


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
    if not optimistic and t != 0:
        raise ConfigurationError(
            "SilentZeroBroadcastProtocol is only sound for t=0; "
            "pass optimistic=True to opt into the optimistic chain variant"
        )

    def honest(node: NodeId) -> Protocol:
        keys = node_keys(keypairs, directories, node)
        node_value = value if node == SENDER else None
        if optimistic:
            return OptimisticBinaryChainProtocol(n, t, *keys, value=node_value)
        return SilentZeroBroadcastProtocol(n, *keys, value=node_value)

    return assemble_protocols(n, t, honest, adversaries)
