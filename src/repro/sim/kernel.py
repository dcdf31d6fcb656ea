"""The event-driven simulation kernel.

Where the pre-kernel runner hard-coded the paper's model (N1 bounded-time
delivery with the bound known and equal to one round, N2 authentic
immediate senders, lock-step rounds), the kernel factors the runtime into

* **this module** — a deterministic event core: a calendar priority
  queue of deliveries ordered by ``(arrival tick, emission seq)``, plus
  one activation per live node per tick in a model-chosen order; and
* **:mod:`repro.sim.network`** — pluggable :class:`DeliveryModel`\\ s
  deciding every envelope's arrival tick and the per-tick activation
  order.  Synchronous rounds are one such model — the default, and a
  *special case*, not the kernel's shape.

Determinism contract, re-proved at the event level
--------------------------------------------------
Given the same protocols, master seed and delivery model, a run is
bit-for-bit reproducible.  The event-level argument:

1. every emitted envelope receives a global *emission sequence number*;
   node activations within a tick follow the model's fixed order, and a
   node's sends are appended in call order, so the emission sequence is
   itself deterministic;
2. arrival ticks are pure functions of ``(envelope, emission tick)`` and
   seed-derived streams (:meth:`DeliveryModel.arrival_tick` consults no
   global state), so the calendar's buckets are deterministic;
3. within one arrival tick, deliveries are handed to inboxes in emission
   sequence order (buckets are appended in ascending seq, so no sort is
   ever needed), making each inbox a deterministic sequence;
4. node randomness is seed-derived per node (:func:`repro.sim.rng.node_rng`)
   exactly as before.

One loop, one filing site
-------------------------
:meth:`EventKernel.run` is the paper's loop, spelled once: per tick, one
drain of what arrived (plain envelopes and batch records alike, in
emission order) and one activation pass over the nodes; recording views
or a trace adds what the pass *keeps*, never a second pass.  Plain
traffic enters at one site too: :meth:`EventKernel.enqueue` takes a
*logical send* (``ctx.send`` is the one-recipient ``ctx.broadcast``),
charges it once, and does per copy only what differs per copy — the
envelope, the model's arrival tick, the filing.  Mux traffic enters at
:meth:`EventKernel.enqueue_batch`, which makes the same charge, trace
events, drops and same-tick filing (one causality check serves both)
and files the later copies as batch records.  Lock-step
models vary exactly one thing: the arrivals come from the single pending
list instead of a calendar bucket, and the drain's ``metrics`` is
``None`` — every arrival is "next tick" at zero lag, so no delivery is
recorded and no plain envelope is captured into the batch groups.  Under
:class:`~repro.sim.network.SynchronousRounds` activations ascend by node
id, so every inbox is born sender-sorted and the run is *bit-for-bit
identical* to the pre-kernel lock-step loop in decisions, rounds and
per-kind message/byte counters (``tests/sim/_reference_runner.py`` keeps
a verbatim copy of that loop as the reference oracle and
``tests/sim/test_kernel.py`` property-tests the equivalence under random
Byzantine behaviour; ``scripts/bench_check.py`` checks the whole grid's
counts against the committed ``BENCH_9.json``).

Causality
---------
The kernel enforces that no delivery lands in the past: an arrival tick
below the current tick, or equal to it when the recipient has already
acted this tick, raises :class:`~repro.errors.SimulationError`.  Models
like :class:`~repro.sim.network.AdversarialOrder` exploit the legal
same-tick window — deliveries to nodes the activation order places
later — to grant rushing power without ever violating causality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import ConfigurationError, SimulationError
from ..types import NodeId, Round, validate_node_count
from .batch import BatchPlane, BatchRecord
from .message import Envelope, mux_header_size, mux_wrap, wire_byte_size
from .metrics import Metrics
from .network import DeliveryModel, SynchronousRounds
from .node import NodeContext, NodeState, Protocol
from .rng import node_rng
from .trace import Trace
from .views import View


@dataclass
class RunResult:
    """Everything observable about one completed run.

    :ivar n: network size.
    :ivar rounds_executed: number of kernel ticks executed.  Under
        lock-step delivery a tick is exactly one synchronous round; the
        name is kept for the 100+ pre-kernel call sites.
    :ivar metrics: message/byte/round counters (see :class:`Metrics`).
    :ivar states: per-node outcomes, indexed by node id.
    :ivar views: per-node recorded views (empty if view recording was off).
    :ivar trace: structured event log (None if trace recording was off).
    :ivar seed: the master seed, for reproduction.
    """

    n: int
    rounds_executed: int
    metrics: Metrics
    states: list[NodeState]
    views: list[View]
    seed: int | str
    trace: Trace | None = None

    def decisions(self) -> dict[NodeId, Any]:
        """Decisions of all nodes that decided."""
        return {s.node: s.decision for s in self.states if s.decided}

    def discoverers(self) -> list[NodeId]:
        """Nodes that discovered a failure."""
        return [s.node for s in self.states if s.discovered_failure]


class EventKernel:
    """Drives protocols to completion under a pluggable delivery model.

    The single source of truth for simulated time is :attr:`tick`
    (exposed to contexts as ``round`` for API continuity): the event
    loop advances it once per processed tick, the final value *is*
    ``RunResult.rounds_executed``, and every trace timestamp and
    envelope ``round_sent`` derives from it — there is no second
    counter to keep in lock-step.
    """

    def __init__(
        self,
        protocols: Sequence[Protocol],
        seed: int | str = 0,
        max_rounds: int = 10_000,
        record_views: bool = False,
        record_trace: bool = False,
        delivery: DeliveryModel | None = None,
    ) -> None:
        """
        :param protocols: one behaviour per node; index = node id.
        :param seed: master seed for all node randomness (and for the
            delivery model's jitter streams).
        :param max_rounds: safety horizon in ticks; exceeding it raises,
            naming the nodes that had not halted.
        :param record_views: capture per-node views (costs memory; enable
            for semantic failure-discovery analyses).
        :param record_trace: capture a structured event log of sends,
            decisions, discoveries and halts (see :class:`Trace`).
        :param delivery: the network-timing policy; ``None`` means the
            paper's :class:`~repro.sim.network.SynchronousRounds`.
        """
        validate_node_count(len(protocols))
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.n = len(protocols)
        self.seed = seed
        self.tick: Round = 0
        # sender -> all-other-nodes list behind :meth:`others`.
        self._others: dict[NodeId, list[NodeId]] = {}
        self._protocols = list(protocols)
        self._max_rounds = max_rounds
        self._record_views = record_views
        self._trace = Trace() if record_trace else None
        self._metrics = Metrics()
        self._delivery = delivery if delivery is not None else SynchronousRounds()
        self._lockstep = self._delivery.lockstep
        # Lock-step fast queue: every arrival is "next tick", so a single
        # pending list (drained into per-recipient buckets each tick) is
        # the whole calendar.  May also hold BatchRecords (see below).
        self._pending: list[Envelope] = []
        # General calendar queue: arrival tick -> envelopes in emission
        # (seq) order.  Buckets are appended in ascending seq, so popping
        # a bucket yields (tick, seq)-ordered deliveries without sorting.
        self._calendar: dict[Round, list[Envelope]] = {}
        # Columnar batch plane (structure-of-arrays mux delivery): the one
        # path for mux traffic, under every model and with recording on.
        self._batch = BatchPlane(self)
        # Persistent inboxes for the general path (same-tick rushing
        # deliveries append here mid-tick); freshly rebuilt per tick on
        # the lock-step path.
        self._inboxes: list[list[Envelope]] = [[] for _ in range(self.n)]
        # Last tick each node acted in (causality check for same-tick
        # deliveries); -1 = never.
        self._acted_at: list[Round] = [-1] * self.n
        self._contexts = [
            NodeContext(self, node, node_rng(seed, node)) for node in range(self.n)
        ]
        self._views = [View(node=node) for node in range(self.n)]
        # One-time protocol setup() has run (guards resumed runs against
        # a second setup — the flag travels inside snapshots).
        self._started = False
        self._delivery.bind(self)

    @property
    def protocols(self) -> list[Protocol]:
        """The per-node protocol objects (index = node id) — what a
        resumed run retunes (:func:`repro.sim.snapshot.retune_protocols`)
        or inspects (finding the adaptive coordinator's commitments)."""
        return self._protocols

    @property
    def metrics(self) -> Metrics:
        """Live run counters (read-only view for online observers).

        The observation surface for adaptive adversary strategies: a
        strategy hook may *read* the instrument mid-run, never write it.
        """
        return self._metrics

    @property
    def batch_plane(self) -> BatchPlane:
        """The columnar batch plane that carries every mux's traffic."""
        return self._batch

    def others(self, sender: NodeId) -> list[NodeId]:
        """Every node id but ``sender``'s, ascending: the default fan-out
        of a broadcast, built once per sender and shared (never mutate
        it — recipient order is part of the schedule contract)."""
        others = self._others.get(sender)
        if others is None:
            others = self._others[sender] = [
                node for node in range(self.n) if node != sender
            ]
        return others

    def enqueue(
        self, sender: NodeId, recipients: Sequence[NodeId], payload: Any
    ) -> None:
        """Accept one logical send — ``payload`` from ``sender`` to each of
        ``recipients``, already validated by the context — for delivery.

        The send is charged once (:meth:`Metrics.record_broadcast`, whose
        body :meth:`enqueue_batch` charges) and a send to nobody returns
        before any counter moves.  Per copy only what is per copy
        remains: the envelope, the model's arrival tick (one
        ``arrival_tick`` call each, in recipient order — every per-link
        draw repeats), the trace event, the causality check and the
        filing; drops and legal same-tick deliveries are counted here and
        charged once on the way out.
        """
        if not recipients:
            return
        tick = self.tick
        metrics = self._metrics
        metrics.record_broadcast(sender, tick, payload, len(recipients))
        trace = self._trace
        if self._lockstep:
            pending = self._pending
            for recipient in recipients:
                envelope = Envelope(sender, recipient, payload, tick)
                if trace is not None:
                    trace.record_send(envelope)
                pending.append(envelope)
            return
        arrival_tick = self._delivery.arrival_tick
        calendar = self._calendar
        dropped = rushed = 0
        for recipient in recipients:
            envelope = Envelope(sender, recipient, payload, tick)
            arrival = arrival_tick(envelope, tick)
            if arrival is None:
                # The model dropped the copy (lossy links, partition
                # boundary): it still counts as sent, and the loss itself
                # is accounted so runs under unreliable delivery stay
                # auditable.
                dropped += 1
                if trace is not None:
                    trace.record_drop(envelope)
                continue
            if trace is not None:
                trace.record_send(envelope, arrival_tick=arrival)
            if arrival > tick:
                bucket = calendar.get(arrival)
                if bucket is None:
                    bucket = calendar[arrival] = []
                bucket.append(envelope)
                continue
            self._deliver_now(envelope, arrival)
            rushed += 1
        if dropped:
            metrics.record_drops(sender, tick, dropped)
        if rushed:
            metrics.record_deliveries(tick, rushed, tick)

    def _deliver_now(self, envelope: Envelope, arrival: Round) -> None:
        """File a copy the model scheduled for the current tick.

        Legal only for a recipient that acts later this tick (the
        rushing window): it then sees the envelope in its current inbox.
        Anything else is a delivery into the past and raises.
        """
        tick = self.tick
        recipient = envelope.recipient
        if arrival < tick or self._acted_at[recipient] == tick:
            raise SimulationError(
                f"delivery model {self._delivery.name!r} scheduled an envelope "
                f"from {envelope.sender} to {recipient} into the past "
                f"(arrival {arrival}, tick {tick})"
            )
        self._inboxes[recipient].append(envelope)

    def enqueue_batch(
        self,
        sender: NodeId,
        channel: str,
        instance: int,
        payload: Any,
        recipients: "Sequence[NodeId] | None" = None,
    ) -> tuple[int, int]:
        """Accept one logical mux broadcast as batch records.

        The columnar counterpart of :meth:`enqueue`: the same single
        charge, the same per-copy arrival draws, drops, trace events and
        same-tick filing, but the copies due in a later tick travel as
        :class:`~repro.sim.batch.BatchRecord`\\ s interleaved with plain
        envelopes in emission order.  ``recipients=None`` is the
        broadcast-to-all-others fast path (a single record, no
        per-recipient structure); an explicit recipient list becomes one
        single-bit record per entry, which preserves per-copy delivery
        even for duplicate recipients.  A copy the model schedules for
        the current tick (the rushing window) is filed plain into its
        recipient's inbox, as :meth:`enqueue` files it, and one scheduled
        into the past raises the same
        :class:`~repro.errors.SimulationError`.

        The send is charged without building its mux wrapper: as kind
        ``channel`` (a wrapper's kind), and as the mux header for
        ``(channel, instance)`` plus ``payload``'s wire size, sized once.
        The wrapper is built only for the plain copies a trace or the
        rushing window needs.

        Returns ``(count, size)``: the number of envelopes the send
        stands for and ``payload``'s wire size, for the sending
        instance's own charge; a send to nobody returns ``(0, 0)`` and
        moves no counter, as in :meth:`enqueue`.
        """
        tick = self.tick
        broadcast_all = recipients is None
        count = self.n - 1 if broadcast_all else len(recipients)
        if not count:
            return 0, 0
        size = wire_byte_size(payload)
        metrics = self._metrics
        metrics.record_send(
            sender, tick, channel, mux_header_size(channel, instance) + size, count
        )
        trace = self._trace
        lockstep = self._lockstep
        if broadcast_all and (trace is not None or not lockstep):
            recipients = self.others(sender)
        wrapped = mux_wrap(channel, instance, payload) if trace is not None else None
        # Price the send once: one (arrival tick, target) pair per record
        # to file, in filing order.
        placed: "list[tuple[Round, int | None]]"
        if lockstep:
            # Every copy arrives next tick and none is dropped, so there
            # is nothing to ask the model.
            if trace is not None:
                for recipient in recipients:
                    trace.record_send(Envelope(sender, recipient, wrapped, tick))
            targets = (None,) if broadcast_all else [1 << node for node in recipients]
            placed = [(tick + 1, target) for target in targets]
        else:
            # One bulk pricing call instead of per-envelope arrival_tick:
            # the model draws per-recipient latency/drop decisions from the
            # same per-link streams, in recipient order == the per-envelope
            # emission order, so the calendar it produces is bit-identical.
            arrivals = self._delivery.batch_arrivals(sender, recipients, tick)
            if trace is not None:
                for recipient, arrival in zip(recipients, arrivals):
                    envelope = Envelope(sender, recipient, wrapped, tick)
                    if arrival is None:
                        trace.record_drop(envelope)
                    else:
                        trace.record_send(envelope, arrival_tick=arrival)
            dropped = arrivals.count(None)
            if dropped:
                metrics.record_drops(sender, tick, dropped)
            if broadcast_all:
                # Split the logical broadcast into one record per arrival
                # tick: no per-recipient structure when every copy shares
                # it, the bitmask of its recipients otherwise.
                buckets: dict[Round, int] = {}
                for recipient, arrival in zip(recipients, arrivals):
                    if arrival is not None:
                        buckets[arrival] = buckets.get(arrival, 0) | 1 << recipient
                ticks = sorted(buckets)
                # Copies due this tick or earlier head the sorted ticks.
                early = bool(ticks) and ticks[0] <= tick
                placed = []
                for arrival in ticks[1:] if early else ticks:
                    mask = buckets[arrival]
                    placed.append((arrival, None if mask.bit_count() == count else mask))
            else:
                # Explicit recipient lists keep one single-bit record per
                # surviving later copy (duplicate recipients get duplicate
                # copies, as plain envelopes would be delivered).
                placed = [
                    (arrival, 1 << recipient)
                    for arrival, recipient in zip(arrivals, recipients)
                    if arrival is not None and arrival > tick
                ]
                early = len(placed) + dropped < count
            if early:
                # File copies due now plain, in recipient order, as
                # :meth:`enqueue` does; an earlier one raises there.
                if wrapped is None:
                    wrapped = mux_wrap(channel, instance, payload)
                rushed = 0
                for recipient, arrival in zip(recipients, arrivals):
                    if arrival is not None and arrival <= tick:
                        envelope = Envelope(sender, recipient, wrapped, tick)
                        self._deliver_now(envelope, arrival)
                        rushed += 1
                metrics.record_deliveries(tick, rushed, tick)
        # Filing during this call keeps each bucket in emission order
        # relative to other senders' traffic.
        for arrival, target in placed:
            bucket = (
                self._pending if lockstep else self._calendar.setdefault(arrival, [])
            )
            bucket.append(BatchRecord(channel, instance, sender, payload, target, tick))
        return count, size

    def run(self, until_tick: Round | None = None) -> RunResult | None:
        """Execute ticks until every node halts.

        :param until_tick: stop *before* processing this tick (a clean
            snapshot boundary) and return ``None`` instead of a result;
            a later ``run()`` — on this kernel or on one resumed from a
            snapshot taken here — continues where it stopped.
        :raises SimulationError: if the horizon is exceeded — the error
            names the nodes (id + protocol class) that had not halted,
            so the stuck protocol is identifiable without a trace re-run.
        """
        contexts = self._contexts
        protocols = self._protocols
        if not self._started:
            for ctx, protocol in zip(contexts, protocols):
                protocol.setup(ctx)
            self._started = True

        from .snapshot import active_checkpoint_policy

        policy = active_checkpoint_policy()
        n = self.n
        record_views = self._record_views
        trace = self._trace
        acted_at = self._acted_at
        # Early-exit bookkeeping: count halted nodes incrementally instead
        # of re-scanning every context each tick.
        halted = sum(1 for ctx in contexts if ctx.state.halted)
        lockstep = self._lockstep
        # The lock-step variation of the drain below: every arrival is
        # "next tick" at zero lag, so no delivery is recorded, and plain
        # envelopes need no capture (inboxes are born sender-sorted).
        metrics = None if lockstep else self._metrics
        order = list(self._delivery.activation_order(n))
        if sorted(order) != list(range(n)):
            raise ConfigurationError(
                f"delivery model {self._delivery.name!r} returned an "
                f"activation order that is not a permutation of 0..{n - 1}"
            )

        while halted < n:
            tick = self.tick
            if until_tick is not None and tick >= until_tick:
                return None
            if tick >= self._max_rounds:
                raise SimulationError(self._horizon_report())
            plane = self._batch
            batching = plane.used
            if batching:
                # Snapshot the consumer registry and reset the per-tick
                # buffer *before* any delivery of this tick is filed.
                plane.begin_tick()
            if lockstep:
                # Fresh per-recipient buckets filled in emission order.
                # Senders act in ascending id order, so each bucket is
                # born sender-sorted — no per-inbox sort, same as the
                # pre-kernel fast path.
                inboxes: list[list[Envelope]] = [[] for _ in range(n)]
                arrived, self._pending = self._pending, []
            else:
                inboxes = self._inboxes
                arrived = self._calendar.pop(tick, ())
            # Plain arrivals per emission round, charged once each below.
            delivered: dict[Round, int] = {}
            for item in arrived:
                if type(item) is Envelope:
                    if metrics is not None:
                        # Plain wrapped traffic to a consumer is captured
                        # into the group arrays at its calendar position,
                        # preserving the per-envelope arrival interleave
                        # under jitter.
                        if batching and plane.capture(item, metrics, tick):
                            continue
                        sent = item.round_sent
                        delivered[sent] = delivered.get(sent, 0) + 1
                    inboxes[item.recipient].append(item)
                else:
                    plane.deliver(item, inboxes, metrics, tick)
            for sent, count in delivered.items():
                metrics.record_deliveries(tick, count, sent)

            for node in order:
                ctx = contexts[node]
                state = ctx.state
                inbox = inboxes[node]
                if not lockstep:
                    if inbox:
                        inboxes[node] = []
                    acted_at[node] = tick
                if state.halted:
                    continue
                if record_views:
                    # A consumer's view also holds its group entries,
                    # re-wrapped as they crossed the wire.
                    self._views[node].record_round(
                        inbox + plane.wrapped_for(node) if batching else inbox
                    )
                decided, discovered = state.decided, state.discovered
                protocols[node].on_activate(ctx, inbox)
                if trace is not None:
                    # Log the transitions this activation made.
                    if state.decided and not decided:
                        trace.record_decide(tick, node, state.decision)
                    if state.discovered is not None and discovered is None:
                        trace.record_discover(tick, node, state.discovered)
                    if state.halted:
                        trace.record_halt(tick, node)
                if state.halted:
                    halted += 1

            self.tick += 1
            if (
                policy is not None
                and halted < n
                and self.tick % policy.every == 0
            ):
                policy.checkpoint(self)

        if self._calendar and getattr(self._delivery, "sweep_undelivered", False):
            # Envelopes still parked past the final tick (a defer-mode
            # partition whose heal lands at or after run end) would
            # otherwise vanish without a drop record.  Models that opt in
            # get them swept into the loss accounting, in deterministic
            # (tick, seq) order.
            for arrival in sorted(self._calendar):
                for item in self._calendar.pop(arrival):
                    # A parked batch record stands for its whole recipient
                    # set: one drop per copy.
                    copies = [item] if type(item) is Envelope else item.envelopes(self.n)
                    self._metrics.record_drops(item.sender, item.round_sent, len(copies))
                    if self._trace is not None:
                        for envelope in copies:
                            self._trace.record_drop(envelope)

        # Every node has halted (a halted context may not send) and the
        # result carries the states: drop the contexts' back-references,
        # the graph's one cycle, so a finished kernel and its link streams
        # are freed by reference count, not by the next full collection.
        for ctx in contexts:
            ctx._runner = None
        return RunResult(
            n=self.n,
            rounds_executed=self.tick,
            metrics=self._metrics,
            states=[ctx.state for ctx in contexts],
            views=self._views if self._record_views else [],
            seed=self.seed,
            trace=self._trace,
        )

    def _horizon_report(self) -> str:
        """Horizon-overrun message naming the stuck nodes."""
        stuck = [
            (ctx.node, type(self._protocols[ctx.node]).__name__)
            for ctx in self._contexts
            if not ctx.state.halted
        ]
        shown = ", ".join(f"{node}:{name}" for node, name in stuck[:16])
        more = f", +{len(stuck) - 16} more" if len(stuck) > 16 else ""
        return (
            f"run exceeded max_rounds={self._max_rounds}; "
            f"{len(stuck)} of {self.n} nodes had not halted "
            f"(node:protocol = {shown}{more})"
        )


def run_protocols(
    protocols: Sequence[Protocol],
    seed: int | str = 0,
    max_rounds: int = 10_000,
    record_views: bool = False,
    record_trace: bool = False,
    delivery: DeliveryModel | None = None,
) -> RunResult:
    """Convenience one-shot: build an :class:`EventKernel` and run it.

    :param delivery: optional :class:`~repro.sim.network.DeliveryModel`;
        ``None`` keeps the paper's synchronous rounds.
    """
    return EventKernel(
        protocols,
        seed=seed,
        max_rounds=max_rounds,
        record_views=record_views,
        record_trace=record_trace,
        delivery=delivery,
    ).run()
