"""Timeout-based Failure Discovery: the first protocol *designed* for
the weak delivery models.

The paper's chain protocol (:mod:`repro.fd.authenticated`) leans on
N1's *known* one-round bound: the chain message arrives in exactly its
designated round, so silence and timing are evidence and discovery is a
round-indexed pattern check.  Experiment E12 showed what that buys under
weaker delivery: once the bound loosens (``bounded:d``) or reliability
goes (``loss:p``), chain FD discovers *spurious* failures in
failure-free runs — the model, not the nodes, broke.

This module is the counterpoint the E13 experiment measures: a
heartbeat/timeout protocol that assumes only *eventual* delivery of
retransmitted messages within a ``timeout`` horizon:

* the sender signs its value once and **re-broadcasts** it every
  ``retransmit_every`` ticks — one lost copy is not a lost value;
* every node **broadcasts a heartbeat** every ``heartbeat_every`` ticks,
  so "node j is alive" is a stream of evidence rather than a single
  scheduled message;
* nothing is concluded from *when* a message arrives — only from what
  has arrived (or is still missing) when the ``timeout`` deadline
  expires:

  - no valid signed sender value by the deadline → discover
    (``timeout: no value``);
  - a signature that fails to verify → discover (a failure-free network
    never garbles, and signatures are unforgeable);
  - total silence from some peer over the whole horizon → discover
    (every correct node heartbeats ``timeout // heartbeat_every``
    times; losing all of them is the network analogue of a crash);
  - otherwise → decide the sender's value and halt.

The trade is explicit and measured by E13: timeout FD spends
``Θ(n² · timeout / heartbeat_every)`` messages where the chain spends
``n - 1``, and in exchange its discoveries track *actual* faults far
more closely under loss and delay — spurious discoveries drop to
(deterministically seeded) rarity while genuinely silent nodes are still
caught.  F1–F3 hold in the paper's synchronous model exactly as for the
chain protocol (the deadline guarantees F1; signature unforgeability
gives F2/F3), which ``tests/fd/test_timeout.py`` checks with the same
:func:`repro.fd.problem.evaluate_fd` oracle.
"""

from __future__ import annotations

from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.chain import sign_leaf, verify_chain
from ..crypto.keys import KeyPair
from ..crypto.signing import SignedMessage
from ..errors import ConfigurationError
from ..sim import Envelope, NodeContext, Protocol, assemble_protocols, node_keys
from ..types import NodeId, validate_fault_budget

#: Payload kind tags.
TIMEOUT_VALUE = "fd-timeout-value"
HEARTBEAT = "fd-heartbeat"

#: The distinguished sender is node 0, as everywhere in the library.
SENDER: NodeId = 0


def default_timeout(t: int) -> int:
    """The conventional deadline: comfortably past the chain protocol's
    ``t + 1`` rounds, wide enough for several retransmissions."""
    return max(8, 2 * (t + 2))


class TimeoutFDProtocol(Protocol):
    """One node's behaviour in the heartbeat/timeout FD protocol.

    :param n: network size.
    :param t: tolerated fault budget (evaluation only — unlike the
        chain, no role assignment depends on it).
    :param keypair: this node's signing keys (only the sender's secret
        is used; receivers verify under ``directory``).
    :param directory: accepted test predicates, as for the chain.
    :param value: the initial value; only consulted on the sender.
    :param timeout: deadline tick — every node decides or discovers
        here, never later (weak termination by construction).
    :param retransmit_every: sender re-broadcast period.
    :param heartbeat_every: heartbeat period of every node.
    """

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: Any = None,
        timeout: int | None = None,
        retransmit_every: int = 2,
        heartbeat_every: int = 1,
    ) -> None:
        validate_fault_budget(t, n)
        if timeout is None:
            timeout = default_timeout(t)
        if timeout < 2:
            raise ConfigurationError(f"timeout must be >= 2, got {timeout}")
        if retransmit_every < 1 or heartbeat_every < 1:
            raise ConfigurationError(
                "retransmit_every and heartbeat_every must be >= 1, got "
                f"{retransmit_every} and {heartbeat_every}"
            )
        self._n = n
        self._t = t
        self._keypair = keypair
        self._directory = directory
        self._value = value
        self._timeout = timeout
        self._retransmit_every = retransmit_every
        self._heartbeat_every = heartbeat_every
        self._signed: SignedMessage | None = None
        self._heard: set[NodeId] = set()

    #: Pre-deadline behaviour never reads ``_timeout`` (heartbeats and
    #: retransmissions key on the tick alone), so the deadline is a
    #: valid warm-start fork axis: retuning it on a resumed run whose
    #: snapshot tick precedes both old and new deadline reproduces the
    #: straight run with the new deadline bit-for-bit.
    tunable = frozenset({"timeout"})

    def retune(self, *, timeout: int) -> None:
        if timeout < 1:
            raise ConfigurationError(
                f"timeout must be a positive tick count, got {timeout}"
            )
        self._timeout = timeout

    # -- protocol ---------------------------------------------------------

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self._ingest(ctx, inbox)
        if ctx.state.halted:
            return
        if ctx.round >= self._timeout:
            self._conclude(ctx)
            return
        if ctx.round % self._heartbeat_every == 0:
            ctx.broadcast((HEARTBEAT,))
        if ctx.node == SENDER and ctx.round % self._retransmit_every == 0:
            if self._signed is None:
                self._signed = sign_leaf(self._keypair.secret, self._value)
                ctx.decide(self._value)
            ctx.broadcast((TIMEOUT_VALUE, self._signed))

    def _ingest(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Fold one tick's arrivals into the evidence state."""
        for env in inbox:
            self._heard.add(env.sender)
            payload = env.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == TIMEOUT_VALUE
                and isinstance(payload[1], SignedMessage)
                and env.sender == SENDER
            ):
                verdict = verify_chain(
                    payload[1],
                    outer_signer=SENDER,
                    directory=self._directory,
                    expected_depth=1,
                    expected_signers=(SENDER,),
                )
                if not verdict.ok:
                    # A failure-free network never garbles and signatures
                    # are unforgeable: bad crypto is genuine evidence.
                    ctx.discover_failure(
                        f"sender value failed verification: {verdict.reason}"
                    )
                    ctx.halt()
                    return
                if not ctx.state.decided:
                    ctx.decide(verdict.value)

    def _conclude(self, ctx: NodeContext) -> None:
        """The deadline: decide-or-discover, then leave."""
        if not ctx.state.decided:
            ctx.discover_failure(
                f"timeout: no valid value from sender {SENDER} within "
                f"{self._timeout} ticks"
            )
        else:
            silent = [
                node
                for node in ctx.others()
                if node not in self._heard
            ]
            if silent:
                ctx.discover_failure(
                    f"timeout: no traffic from nodes {silent} within "
                    f"{self._timeout} ticks"
                )
        ctx.halt()


def make_timeout_fd_protocols(
    n: int,
    t: int,
    value: Any,
    keypairs: dict[NodeId, KeyPair],
    directories: dict[NodeId, KeyDirectory],
    adversaries: dict[NodeId, Protocol] | None = None,
    timeout: int | None = None,
    retransmit_every: int = 2,
    heartbeat_every: int = 1,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one timeout-FD run.

    Built by :func:`repro.sim.assemble_protocols`: honest nodes need
    key material, ``adversaries`` replaces behaviours wholesale.

    :raises ConfigurationError: if an honest node lacks keys/directory.
    """
    return assemble_protocols(
        n,
        t,
        lambda node: TimeoutFDProtocol(
            n, t, *node_keys(keypairs, directories, node),
            value=value if node == SENDER else None, timeout=timeout,
            retransmit_every=retransmit_every, heartbeat_every=heartbeat_every,
        ),
        adversaries,
    )
