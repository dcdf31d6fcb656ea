"""The protocol interface and per-node execution state.

A :class:`Protocol` is the behaviour of one node.  Correct nodes run the
honest protocol implementations from :mod:`repro.auth`, :mod:`repro.fd` and
:mod:`repro.agreement`; Byzantine nodes run behaviours from
:mod:`repro.faults`.  Both use the same :class:`NodeContext` API — Byzantine
power in this model is "send anything to anyone at any round", never
breaking network guarantees N1/N2, which the network enforces regardless of
who is sending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..errors import ConfigurationError, ProtocolViolationError, SimulationError
from ..types import NodeId, Round, validate_fault_budget
from .message import Envelope

if TYPE_CHECKING:
    import random

    from .kernel import EventKernel
    from .metrics import Metrics


@dataclass
class NodeState:
    """Externally visible outcome of one node after (or during) a run.

    :ivar decision: the value chosen via :meth:`NodeContext.decide`, if any.
    :ivar decided: whether a decision was made (distinguishes a decision of
        ``None`` from no decision).
    :ivar discovered: failure-discovery reason, or ``None``.  Matches the
        paper's notion: the node noticed its view cannot belong to a
        failure-free run.  The reason string is diagnostic only; the paper
        notes a discoverer need not identify *which* node is faulty.
    :ivar halted: node finished participating.
    :ivar outputs: protocol-specific results (e.g. the key directory built
        by the key distribution protocol).
    """

    node: NodeId
    decision: Any = None
    decided: bool = False
    discovered: str | None = None
    halted: bool = False
    outputs: dict[str, Any] = field(default_factory=dict)

    @property
    def discovered_failure(self) -> bool:
        return self.discovered is not None


class NodeContext:
    """Capabilities handed to a protocol: its window onto the network.

    Created by the runner; one per node per run.  All sends are deferred to
    the end of the current round and delivered at the start of the next —
    the synchronous-rounds semantics of the paper's model.
    """

    def __init__(
        self, runner: "EventKernel", node: NodeId, rng: "random.Random"
    ) -> None:
        self._runner = runner
        self.node = node
        self.rng = rng
        self.state = NodeState(node=node)

    @property
    def n(self) -> int:
        """Network size."""
        return self._runner.n

    @property
    def round(self) -> Round:
        """The current round index (0-based).

        Under lock-step delivery this is literally the synchronous round;
        under a skewed :class:`~repro.sim.network.DeliveryModel` it is the
        kernel tick of the current activation — round-indexed protocols
        keep reading it unchanged either way.
        """
        return self._runner.tick

    @property
    def seed(self) -> int | str:
        """The run's master seed.

        Exposed so composition layers can derive *namespaced* streams —
        :func:`repro.sim.rng.instance_rng` keys per-instance randomness by
        ``(master seed, node, instance)`` — without threading the seed
        through every protocol constructor.  Protocols themselves should
        keep using :attr:`rng`.
        """
        return self._runner.seed

    @property
    def metrics(self) -> "Metrics":
        """The run's live counters (read-only by convention).

        The observation surface for online observers — adaptive
        adversary strategies read per-sender send/drop counts here.
        Protocols implementing the paper's model must not consult it:
        it sees the whole network, not one node's view.
        """
        return self._runner.metrics

    def others(self) -> list[NodeId]:
        """All node ids except this node's, in id order (the caller's
        own copy of the kernel's shared fan-out)."""
        return list(self._runner.others(self.node))

    def _checked(self, to: "Iterable[NodeId] | None") -> "Sequence[NodeId] | None":
        """The one sender/recipient check behind every send.

        All or nothing: raises before anything is sent or charged, so an
        invalid recipient anywhere in ``to`` leaves no partial send
        behind.  Returns ``to`` as a sequence (an iterator is
        materialised once); ``None`` — everyone else — passes through.
        """
        if self.state.halted:
            raise ProtocolViolationError(
                f"node {self.node} sent a message after halting"
            )
        if to is None:
            return None
        if not isinstance(to, (list, tuple)):
            to = list(to)
        node = self.node
        n = self._runner.n
        for recipient in to:
            if recipient == node:
                raise ProtocolViolationError(f"node {node} sent to itself")
            if not 0 <= recipient < n:
                raise ProtocolViolationError(
                    f"node {node} sent to invalid recipient {recipient}"
                )
        return to

    def send(self, to: NodeId, payload: Any) -> None:
        """Send ``payload`` to node ``to``; delivered next round (N1).

        The one-recipient case of :meth:`broadcast`.

        :raises ProtocolViolationError: on self-send, unknown recipient or
            sending after halt — all of these are implementation bugs, not
            expressible Byzantine behaviours.
        """
        self._runner.enqueue(self.node, self._checked((to,)), payload)

    def broadcast(
        self, payload: Any, to: "Iterable[NodeId] | None" = None
    ) -> None:
        """Send ``payload`` to every node in ``to`` (default: all others).

        One logical send: validated as a whole (see :meth:`send` — an
        invalid recipient raises before any copy is sent), charged once,
        one kernel call; a duplicate in ``to`` gets a duplicate copy and
        an empty ``to`` sends nothing and moves no counter.  Every copy
        shares the one payload object, which the metrics size exactly
        once.
        """
        to = self._checked(to)
        runner = self._runner
        runner.enqueue(
            self.node, runner.others(self.node) if to is None else to, payload
        )

    def send_batch(
        self,
        channel: str,
        instance: int,
        payload: Any,
        to: "Iterable[NodeId] | None" = None,
    ) -> tuple[int, int]:
        """One logical mux broadcast as a columnar batch record.

        The batch-plane counterpart of wrapping ``payload`` in the mux
        extension and :meth:`broadcast`-ing it: same all-or-nothing
        validation, same metrics totals, trace events and observable
        deliveries (recipients outside the channel's consumers receive
        the plain wrapped envelopes).

        :returns: ``(count, size)``, the number of envelopes the send
            stands for and ``payload``'s wire size
            (:func:`~repro.sim.message.wire_byte_size`); ``(0, 0)`` for a
            send to nobody.
        """
        return self._runner.enqueue_batch(
            self.node, channel, instance, payload, self._checked(to)
        )

    def register_batch_consumer(self, channel: str) -> None:
        """Declare this node a batch-group consumer for ``channel``, in
        :meth:`Protocol.setup`: its wrapped traffic on the channel then
        arrives in :meth:`batch_groups`, never the plain inbox.

        :raises SimulationError: once the run has started.
        """
        if self._runner._started:
            raise SimulationError(
                f"node {self.node} registered as a batch consumer for channel "
                f"{channel!r} after the run started; consumers join in setup"
            )
        self._runner.batch_plane.register(channel, self.node)

    def batch_groups(self, channel: str):
        """This tick's per-instance batch groups for ``channel``.

        ``None`` when this node is not a consumer of ``channel`` — any
        traffic for it then arrived in the plain inbox.
        """
        return self._runner.batch_plane.groups_for(channel, self.node)

    def decide(self, value: Any) -> None:
        """Choose a decision value (FD condition F1's 'chooses a value')."""
        self.state.decision = value
        self.state.decided = True

    def discover_failure(self, reason: str) -> None:
        """Record that this node's view cannot be failure-free.

        Idempotent: the first reason wins, so diagnostics point at the
        earliest deviation.
        """
        if self.state.discovered is None:
            self.state.discovered = reason

    def halt(self) -> None:
        """Stop participating; the runner will no longer invoke this node."""
        self.state.halted = True


class Protocol:
    """Base class for node behaviours.

    Subclasses override :meth:`setup` (pre-round initialisation, no
    sending) and :meth:`on_round` (invoked every round with the messages
    that arrived this round).  A protocol signals completion by calling
    ``ctx.halt()``; the runner ends the run when all nodes have halted.

    Checkpointing (:mod:`repro.sim.snapshot`) captures protocols by
    pickling the whole object — sufficient for anything whose state is
    plain data.  A protocol holding state that must not travel (an
    unpicklable cache, a shared handle) defines the pickle pair
    ``__getstate__`` / ``__setstate__``; ``__setstate__`` runs on an
    instance created without ``__init__``, so it must reconstruct every
    attribute the protocol's methods read.
    """

    #: Whether the protocol can ingest a columnar
    #: :class:`~repro.sim.batch.ChannelBatch` via :meth:`on_round_batch`
    #: instead of a materialised envelope list.  Opt-in: a mux hosting a
    #: protocol without it simply materialises envelopes from the batch,
    #: so every protocol runs under a mux either way.
    supports_batch_inbox = False

    #: Parameter names a warm-started (snapshot-resumed) run may adjust
    #: on this protocol via :meth:`retune`.  Only parameters whose value
    #: the protocol has provably not yet *read* at the resume tick may
    #: be listed — retuning must leave the suffix bit-for-bit identical
    #: to a straight run constructed with the new value (the deadline of
    #: a timeout FD qualifies; anything consulted every round does not).
    tunable: frozenset = frozenset()

    def retune(self, **params: Any) -> None:
        """Adjust post-construction-tunable parameters after a resume.

        The hook behind prefix-shared sweeps: fork a snapshot, retune
        the sweep axis, finish the run.  Subclasses exposing an axis
        list it in :attr:`tunable` and override this; the base rejects
        everything.
        """
        if params:
            raise ProtocolViolationError(
                f"{type(self).__name__} accepts no retune parameters, "
                f"got {sorted(params)}"
            )

    def setup(self, ctx: NodeContext) -> None:
        """One-time initialisation before round 0.  Must not send."""

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Handle one synchronous round.

        :param ctx: the node's capabilities.
        :param inbox: messages sent to this node in the previous round,
            sorted by sender id (deterministic order).
        """
        raise NotImplementedError

    def on_activate(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Handle one kernel activation (the tick-level API).

        The event kernel activates every live node once per tick with
        the envelopes that *arrived* this tick.  The default is the
        round-adapter: delegate to :meth:`on_round`, so every existing
        round-indexed protocol runs unchanged — under lock-step delivery
        an activation is exactly a synchronous round, and under a skewed
        model the protocol simply sees the skewed inbox in its usual
        shape.  Delivery-model-aware behaviours may override this
        instead of :meth:`on_round`.

        :param inbox: envelopes delivered at this tick, in deterministic
            ``(arrival tick, emission seq)`` order — sender-sorted under
            lock-step delivery, emission-ordered under skew.
        """
        self.on_round(ctx, inbox)

    def on_round_batch(self, ctx: NodeContext, batch) -> None:
        """Handle one round's traffic in columnar form.

        Called (instead of :meth:`on_round`) by a mux only when
        :attr:`supports_batch_inbox` is set and batched traffic actually
        arrived.  ``batch`` is a read-only
        :class:`~repro.sim.batch.ChannelBatch`; implementations must
        filter entries by their own recipient mask (``targets[i]`` being
        ``None`` = everyone but ``senders[i]``, else an int bitmask that
        addresses node ``me`` when ``targets[i] >> me & 1``) and must
        behave identically to :meth:`on_round` over the equivalent
        envelope list.
        """
        raise NotImplementedError


def assemble_protocols(
    n: int,
    t: int,
    honest: Callable[[NodeId], Protocol],
    adversaries: Mapping[NodeId, Protocol] | None = None,
) -> list[Protocol]:
    """The per-node protocol list of one run (index = node id).

    The one loop behind every ``make_*_protocols`` factory: node ``i``
    runs ``adversaries[i]`` when given — a Byzantine behaviour that
    replaces the honest one wholesale — and ``honest(i)`` otherwise.
    ``honest`` is never called for a replaced node, so a replaced node
    needs no key material.

    :raises ConfigurationError: for a fault budget outside
        ``0 <= t <= n-2`` or an adversary id outside ``0 .. n-1``.
    """
    validate_fault_budget(t, n)
    adversaries = adversaries or {}
    outside = sorted(node for node in adversaries if not 0 <= node < n)
    if outside:
        raise ConfigurationError(
            f"adversary ids {outside} outside range(0, {n})"
        )
    return [
        adversaries[node] if node in adversaries else honest(node)
        for node in range(n)
    ]


def node_keys(
    keypairs: Mapping[NodeId, Any], directories: Mapping[NodeId, Any], node: NodeId
) -> tuple[Any, Any]:
    """``node``'s ``(keypair, directory)`` for an honest keyed protocol.

    :raises ConfigurationError: if either is missing.
    """
    if node not in keypairs or node not in directories:
        raise ConfigurationError(
            f"honest node {node} is missing keypair or directory"
        )
    return keypairs[node], directories[node]
