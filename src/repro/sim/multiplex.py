"""Instance multiplexing: K independent protocol instances in one run.

The paper's cost argument against agreement-based key distribution rests
on running *n concurrent* OM(t) instances in one execution ("n agreement
instances cost n·[(n-1)+t(n-1)²] envelopes").  This module makes that
concurrency a first-class primitive of the simulator rather than a
private trick of one protocol: :class:`InstanceMux` runs any number of
independent instances of any :class:`~repro.sim.node.Protocol` inside a
single node behaviour, with

* **stable wire tags** — every instance's traffic travels in the mux
  envelope extension of :mod:`repro.sim.message` (``mux_wrap`` /
  ``mux_unwrap``), filed per instance by the batch plane on arrival;
* **namespaced randomness** — each instance draws from
  :func:`repro.sim.rng.instance_rng`, keyed by ``(master seed, node,
  instance)``, so instance streams are mutually independent *and*
  independent of which other instances share the run.  Being a pure
  function of that key, a stream is built on the instance's first ``rng``
  read: honest OM(t) instances never draw and never pay for one;
* **per-instance accounting** — each instance's sends are also charged,
  at send time, to three integers on its outcome: messages, bytes (the
  inner payload's dense-equivalent size) and rounds; run-level
  aggregation is :func:`collect_instances`;
* **per-instance outcomes** — decide / discover / halt land in an
  :class:`InstanceOutcome` (a :class:`~repro.sim.compose.PhaseOutcome`
  extended with identity and those counts), never in the real node state.

Columnar execution
------------------
K instances sharing one channel make the per-envelope pipeline the run's
hot loop (n=128 key distribution: ~6.2M envelopes, ~4 rounds), so the
mux rides the kernel's batch plane (:mod:`repro.sim.batch`): every
instance broadcast becomes one batch record, arriving traffic is read as
shared structure-of-arrays groups instead of per-node envelope lists,
and protocols that declare ``supports_batch_inbox`` ingest the arrays
directly (others get envelopes materialised on demand).  The plane is
the one path, under every delivery model and with recording on: records
carry per-arrival-tick buckets and an emission-``rounds[]`` column,
plain wrapped copies land in the group too, and a trace or view sees
the plain envelopes the records stand for.  Decisions, per-instance
outcomes and counts, run metrics, trace events and views equal a
per-envelope mux's bit-for-bit (``tests/sim/_reference_mux.py`` is that
mux, and ``tests/sim/test_batch.py`` property-tests the equivalence
under random Byzantine behaviour, every delivery family and adaptive
adversaries).  One stepping loop hands each instance its batch group
(or nothing); the mux never reads its inbox.

Composition
-----------
:class:`InstanceMux` is itself a :class:`~repro.sim.node.Protocol`: it
can run directly under the scheduler, be driven by an embedding
protocol that calls its ``setup`` / ``on_round`` itself (agreement-based
key distribution does, then folds :attr:`InstanceMux.outcomes` into a
directory), and host instances that themselves embed sub-protocols
via :class:`~repro.sim.compose.PhaseHost`; its ``setup`` must run
before tick 0 (so no ``PhaseHost`` can host it).  An instance's context
is the phase lens itself at offset 0 (:class:`_MuxInstanceContext`
subclasses :class:`~repro.sim.compose._PhaseProxyContext`), so a mux
adds one proxy hop.  The mux runs on the event kernel unchanged under
any :class:`~repro.sim.network.DeliveryModel` (``tests/sim/test_multiplex.py``
pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..types import NodeId
from .compose import PhaseOutcome, _PhaseProxyContext
from .kernel import RunResult
from .message import Envelope
from .node import NodeContext, Protocol
from .rng import instance_rng

#: Key under which a completed mux publishes its per-instance outcomes in
#: ``NodeState.outputs``.
MUX_OUTCOMES = "mux-outcomes"

#: Default channel name for anonymous muxes.
DEFAULT_CHANNEL = "mux"

@dataclass(slots=True)
class InstanceOutcome(PhaseOutcome):
    """Captured effects and measurements of one multiplexed instance.

    Generalizes :class:`~repro.sim.compose.PhaseOutcome` (decided /
    decision / discovered / halted) with the instance's identity and the
    cost of its *inner* envelopes — what this instance's protocol sent,
    before mux wrapping — charged when it sends, by the rules of
    :meth:`~repro.sim.metrics.Metrics.record_broadcast`:

    :ivar messages: envelopes the instance sent from this node.
    :ivar bytes: their dense-equivalent payload bytes
        (:func:`~repro.sim.message.wire_byte_size`).
    :ivar rounds: one past the last round (in the mux's frame) in which
        the instance sent; 0 if it never sent.
    """

    instance: int = 0
    messages: int = 0
    bytes: int = 0
    rounds: int = 0


class _MuxInstanceContext(_PhaseProxyContext):
    """One instance's window onto the node: the phase lens at offset 0
    (all instances share the mux's round frame), capturing decide /
    discover / halt into the :class:`InstanceOutcome`, plus the
    instance's namespaced ``rng`` and its tagged sends, charged to that
    outcome."""

    __slots__ = ("_channel", "_slot")

    def __init__(self, ctx, channel: str, slot: "_MuxSlot") -> None:
        # The lens's own slots, set inline: one context per live instance
        # per round.
        self._ctx = ctx
        self._offset = 0
        self._outcome = slot.outcome
        self._channel = channel
        self._slot = slot

    @property
    def rng(self):
        """The instance's namespaced random stream, built on first read."""
        slot = self._slot
        if slot.rng is None:
            seed, node, channel = slot.identity
            slot.rng = instance_rng(seed, node, self._outcome.instance, purpose=channel)
        return slot.rng

    def send(self, to: NodeId, payload: Any) -> None:
        """Send ``payload`` on this instance's tagged stream."""
        self.broadcast(payload, (to,))

    def broadcast(self, payload: Any, to: list[NodeId] | None = None) -> None:
        """Broadcast on this instance's stream: one kernel batch record.

        The kernel sizes the payload once and charges run metrics for
        the full recipient count; the instance's outcome is charged
        here with the same size, at the same (possibly phase-shifted)
        round.  A send to nobody moves no counter.
        """
        ctx = self._ctx
        outcome = self._outcome
        count, size = ctx.send_batch(self._channel, outcome.instance, payload, to)
        if count:
            outcome.messages += count
            outcome.bytes += size * count
            if ctx.round >= outcome.rounds:
                outcome.rounds = ctx.round + 1


class _MuxSlot:
    """Bookkeeping for one hosted instance, and from setup on the one place
    the mux holds its protocol.  ``rng`` is ``None`` until the instance's
    first ``rng`` read; until then (and in a pickle) the slot holds the
    stream's identity: the mux's ``(seed, node, channel)`` +
    ``outcome.instance``.  Once the instance halts the slot keeps only
    ``outcome`` (and that identity): ``protocol`` and ``rng`` are ``None``,
    so the protocol's state (an OM(t) instance's EIG store) is freed while
    other instances still run."""

    __slots__ = ("protocol", "outcome", "identity", "rng")

    def __init__(self, protocol: Protocol, outcome: InstanceOutcome, identity: tuple) -> None:
        self.protocol = protocol
        self.outcome = outcome
        self.identity = identity
        self.rng = None


class InstanceMux(Protocol):
    """Runs K independent protocol instances as one node behaviour.

    :param instances: instance id -> that instance's protocol for *this
        node*.  Ids need not be contiguous; iteration is always in sorted
        id order (determinism).
    :param channel: wire-tag channel shared by all nodes of one mux run.

    Each round every live instance is stepped with its own batch group
    (the inbox is never read: non-parsing Byzantine noise reaches no
    instance), its own rng stream and its own outcome.  The mux owns each hosted
    protocol in one place, its slot, and lets go of it (and of its stream)
    the moment the instance halts: a halted instance keeps only its
    :class:`InstanceOutcome`.  When every instance has halted, the
    per-instance outcomes are published under ``outputs[MUX_OUTCOMES]``
    and the node halts.  Embedding protocols that want to post-process
    (e.g. build a key directory from the decisions) call :meth:`setup`
    and :meth:`on_round` directly and read :attr:`outcomes` once the node
    has halted.
    """

    #: Kept for the engine-fallback counter of ``benchmarks/e2e/trace.py``.
    engine = engine_used = "columnar"

    def __init__(
        self,
        instances: Mapping[int, Protocol],
        channel: str = DEFAULT_CHANNEL,
    ) -> None:
        self._channel = channel
        self._protocols: dict[int, Protocol] | None = {
            int(i): p for i, p in instances.items()
        }
        self._slots: dict[int, _MuxSlot] = {}
        self._live = 0

    @property
    def outcomes(self) -> dict[int, InstanceOutcome]:
        """instance id -> its outcome (shared, live objects)."""
        return {i: slot.outcome for i, slot in self._slots.items()}

    def setup(self, ctx: NodeContext) -> None:
        """Register with the batch plane (before tick 0); move each
        instance's protocol into a slot, in sorted id order, with a fresh
        outcome; set up instances."""
        ctx.register_batch_consumer(self._channel)
        identity = (ctx.seed, ctx.node, self._channel)
        protocols, self._protocols = self._protocols, None
        for instance in sorted(protocols):
            outcome = InstanceOutcome(instance=instance)
            slot = _MuxSlot(protocols[instance], outcome, identity)
            self._slots[instance] = slot
            slot.protocol.setup(
                _MuxInstanceContext(ctx, self._channel, slot)
            )  # type: ignore[arg-type]
            # An instance may already have halted inside its setup (a
            # config-validating or crashed-from-start behaviour): count
            # only the live ones, or _live could never reach zero.
            if slot.outcome.halted:
                slot.protocol = slot.rng = None
            else:
                self._live += 1

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Step every live instance with its batch group, halt when all
        are done.  The plane files all the channel's traffic into the
        groups; the inbox is not read."""
        slots = self._slots
        channel = self._channel
        groups = ctx.batch_groups(channel)
        me = ctx.node
        for instance in sorted(slots):
            slot = slots[instance]
            outcome = slot.outcome
            if outcome.halted:
                continue
            proxy = _MuxInstanceContext(ctx, channel, slot)
            protocol = slot.protocol
            group = groups.get(instance)
            if group is None:
                protocol.on_round(proxy, [])  # type: ignore[arg-type]
            elif getattr(protocol, "supports_batch_inbox", False):
                protocol.on_round_batch(proxy, group)  # type: ignore[arg-type]
            else:
                protocol.on_round(proxy, group.envelopes_for(me))  # type: ignore[arg-type]
            if outcome.halted:
                self._live -= 1
                slot.protocol = slot.rng = None
        if self._live == 0:
            ctx.state.outputs[MUX_OUTCOMES] = self.outcomes
            ctx.halt()


@dataclass
class InstanceAggregate:
    """Run-level view of one instance across all participating nodes.

    The cross-node mirror of :class:`InstanceOutcome`: where the outcome
    captures what *one node* saw of the instance, the aggregate collects
    every node's decision and discovery for it, plus the instance's
    summed counts.  Aggregates are plain data with value equality — what
    the equivalence property tests compare bit-for-bit.

    :ivar messages: envelopes this instance's participants sent (all nodes).
    :ivar bytes: dense-equivalent payload bytes across those envelopes.
    :ivar rounds: rounds (in the mux's frame) in which the instance had
        traffic — the largest of the participants' ``rounds``.
    """

    instance: int
    decisions: dict[NodeId, Any] = field(default_factory=dict)
    discovered: dict[NodeId, str] = field(default_factory=dict)
    messages: int = 0
    bytes: int = 0
    rounds: int = 0


def collect_instances(run: RunResult) -> dict[int, InstanceAggregate]:
    """Aggregate every node's published mux outcomes per instance.

    Walks ``run.states`` in node order, adding each node's counts (and
    taking the largest ``rounds``).  Nodes that published no
    :data:`MUX_OUTCOMES` (Byzantine behaviours that are not muxes, nodes
    that never finished) simply contribute nothing; per-instance counts
    therefore measure the *participating* nodes' traffic, matching the
    library's convention that only correct-node counts are meaningfully
    bounded.
    """
    aggregates: dict[int, InstanceAggregate] = {}
    for state in run.states:
        outcomes = state.outputs.get(MUX_OUTCOMES)
        if not isinstance(outcomes, dict):
            continue
        for instance in sorted(outcomes):
            outcome = outcomes[instance]
            agg = aggregates.get(instance)
            if agg is None:
                agg = aggregates[instance] = InstanceAggregate(instance=instance)
            if outcome.decided:
                agg.decisions[state.node] = outcome.decision
            if outcome.discovered is not None:
                agg.discovered[state.node] = outcome.discovered
            agg.messages += outcome.messages
            agg.bytes += outcome.bytes
            agg.rounds = max(agg.rounds, outcome.rounds)
    return dict(sorted(aggregates.items()))
