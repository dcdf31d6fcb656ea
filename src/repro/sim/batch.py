"""Columnar batch execution: structure-of-arrays delivery for mux traffic.

The object-per-envelope pipeline prices every multiplexed send at one
:class:`~repro.sim.message.Envelope` NamedTuple, one ``mux_wrap`` tuple,
one metrics record, one calendar append and one ``mux_unwrap`` on
arrival.  For the agreement-based key-distribution grid that is ~6.2M
envelope objects per ``n=128`` run, and the interpreter overhead of that
plumbing dominates everything the crypto memos and the succinct EIG
engine already removed (PERFORMANCE.md).  This module replaces the
per-envelope chain with *batch records*:

* a :class:`BatchRecord` stands for one logical mux broadcast — K
  recipients share one record instead of K envelopes;
* the :class:`BatchPlane` (owned by the kernel) collects the records
  delivered in a tick into per-``(channel, instance)``
  :class:`ChannelBatch` groups — parallel ``senders[]`` / ``payloads[]``
  / ``targets[]`` arrays that every consuming node *shares* read-only,
  filtering by recipient mask instead of materialising inboxes;
* a recipient mask is ``None`` (every node but the sender) or an ``int``
  bitmask with bit ``r`` set for each recipient ``r``: node ``me`` is
  addressed when ``target >> me & 1``, and ``target.bit_count()`` is the
  copy count — one small int per record, whatever the subset;
* consumers (every :class:`~repro.sim.multiplex.InstanceMux`) register
  per channel; traffic addressed to non-consumers is materialised back
  into ordinary wrapped envelopes, so plain protocols, Byzantine
  behaviours and per-envelope muxes beside the plane keep exact
  per-envelope semantics.

Equivalence contract
--------------------
The plane is an execution strategy, never a semantics choice: a run on
it is bit-for-bit identical to one of per-envelope muxes in decisions,
per-instance outcomes, every metrics counter, trace events and views
(``tests/sim/test_batch.py`` property-tests this against the reference
mux in ``tests/sim/_reference_mux.py`` under random Byzantine
behaviour, every delivery family and adaptive adversaries).  The
ingredients:

* **ordering** — each arrival tick's calendar bucket holds records (and
  plain envelopes) in emission order, and groups are filed in bucket
  order, so group arrays replay the per-envelope per-inbox arrival
  order exactly — even under jittered calendars, where one bucket mixes
  emissions from several earlier ticks.  On the general event path the
  plane also *captures* plain wrapped envelopes addressed to consumers
  (:meth:`BatchPlane.capture`) into the same arrays at their bucket
  position, so mixed plain/batched traffic needs no merge heuristics.
* **timing** — records carry their emission round and arrive in
  per-arrival-tick calendar buckets; the per-entry ``rounds[]`` column
  reproduces every materialised envelope's ``round_sent`` and every
  delivery-lag charge exactly, whatever the jitter.
* **loss/jitter** — :meth:`~repro.sim.network.DeliveryModel.batch_arrivals`
  draws per-recipient latency and drop decisions in the same per-link
  stream order as the per-envelope ``arrival_tick`` calls,
  so the arrival schedule (and every drop counter) reproduces exactly.
* **rushing** — a copy the model schedules for the current tick
  (:class:`~repro.sim.network.AdversarialOrder`) is filed plain into
  its recipient's inbox, as the per-envelope path files it; the mux
  splices it in after the group's earlier rounds.
* **recording** — a trace logs one send or drop per copy at enqueue
  (and one drop per copy of a record parked past the run's end), and a
  consumer's recorded view holds its group entries re-wrapped
  (:meth:`BatchPlane.wrapped_for`), so observing a run never changes
  its path.

Consumer registration is snapshotted at each tick's delivery drain:
a node that registers mid-tick (a mux set up lazily on its node's
first activation, e.g. inside a ``PhaseHost``) becomes a group consumer
from the *next* drain on,
and any traffic delivered before that was materialised to its plain
inbox — no record is ever both grouped and materialised for one node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..types import NodeId, Round
from .message import Envelope, mux_unwrap, mux_wrap

if TYPE_CHECKING:
    from .kernel import EventKernel
    from .metrics import Metrics

#: Shared read-only result for "consumer channel with no traffic yet".
_EMPTY_GROUPS: dict[int, "ChannelBatch"] = {}


class BatchRecord:
    """One logical mux broadcast in flight: the batch unit of delivery.

    ``target`` encodes the recipient set: ``None`` = every node except
    the sender (the broadcast fast path — no per-recipient structure at
    all), or an ``int`` bitmask with bit ``r`` set for each recipient
    ``r`` — ``1 << r`` for single sends and the per-recipient split of
    explicit recipient lists, several bits for the surviving subset of a
    broadcast under a lossy model.

    A record holds the inner ``payload`` only, not its mux wrapper: run
    metrics were charged at enqueue (the mux header plus the payload's
    size), and the ordinary wire tuple ``mux_wrap(channel, instance,
    payload)`` is built only where a plain envelope is made — for
    non-consumer recipients in :meth:`BatchPlane.deliver`, in
    :meth:`envelopes` and in :meth:`BatchPlane.wrapped_for` — so a
    record is observably indistinguishable from the per-envelope sends
    it replaces.
    """

    __slots__ = ("channel", "instance", "sender", "payload", "target", "round_sent")

    def __init__(
        self,
        channel: str,
        instance: int,
        sender: NodeId,
        payload: Any,
        target: "int | None",
        round_sent: Round,
    ) -> None:
        self.channel = channel
        self.instance = instance
        self.sender = sender
        self.payload = payload
        self.target = target
        self.round_sent = round_sent

    def recipient_count(self, n: int) -> int:
        """How many deliveries this record stands for."""
        target = self.target
        return n - 1 if target is None else target.bit_count()

    def envelopes(self, n: int) -> list[Envelope]:
        """The plain wrapped copies this record stands for, in ascending
        recipient order — what the per-envelope path would have filed."""
        target, sender = self.target, self.sender
        wrapped = mux_wrap(self.channel, self.instance, self.payload)
        return [
            Envelope(sender, node, wrapped, self.round_sent)
            for node in range(n)
            if (node != sender if target is None else target >> node & 1)
        ]


class ChannelBatch:
    """Structure-of-arrays view of one instance's deliveries this tick.

    Parallel arrays in arrival (bucket) order — which is emission order
    within each arrival tick: ``senders[i]`` emitted ``payloads[i]`` at
    round ``rounds[i]`` to the recipient set ``targets[i]`` (encoded as
    in :attr:`BatchRecord.target`: ``None`` or an ``int`` bitmask).
    Under lock-step models every entry has ``rounds[i] == tick - 1``;
    under jittered calendars the column is what keeps materialised
    envelopes and delivery-lag accounting exact.  One ``ChannelBatch`` is shared by every consumer of the
    channel — consumers filter by their own id and must never mutate the
    arrays.

    ``shared`` is a scratch dict for cross-consumer memoisation: any
    receiver-independent work (the succinct EIG ingest's report
    validation) can be computed by the first consumer that needs it and
    keyed by entry index for the other ~n-1 consumers to reuse.  It is
    scoped to this tick's batch, so entries can never leak across ticks
    or instances.
    """

    __slots__ = ("senders", "payloads", "targets", "rounds", "shared")

    def __init__(self) -> None:
        self.senders: list[NodeId] = []
        self.payloads: list[Any] = []
        self.targets: list[int | None] = []
        self.rounds: list[Round] = []
        self.shared: dict[Any, Any] = {}

    def envelopes_for(self, me: NodeId) -> list[Envelope]:
        """The entries addressed to node ``me``, as inner-payload envelopes.

        In the group's arrival order, each stamped with its entry's
        emission round from the ``rounds[]`` column: exactly the
        per-instance inbox a per-envelope demux would have built, under
        lock-step and jittered calendars alike.
        """
        return [
            Envelope(sender, me, payload, round_sent)
            for sender, payload, target, round_sent in zip(
                self.senders, self.payloads, self.targets, self.rounds
            )
            if (sender != me if target is None else target >> me & 1)
        ]


class BatchPlane:
    """The kernel's per-tick batch buffer and consumer registry.

    Every kernel owns one; a mux joins it through
    :meth:`~repro.sim.node.NodeContext.register_batch_consumer`.
    """

    __slots__ = ("_n", "_consumers", "_snapshot", "_outsiders", "_groups", "used")

    def __init__(self, kernel: "EventKernel") -> None:
        self._n = kernel.n
        # channel -> registered consumer node ids (grows only).
        self._consumers: dict[str, set[NodeId]] = {}
        # Per-tick snapshot of the registry, frozen at drain start.
        self._snapshot: dict[str, frozenset[NodeId]] = {}
        # channel -> nodes *not* in the snapshot (materialisation targets).
        self._outsiders: dict[str, list[NodeId]] = {}
        # channel -> instance -> this tick's batch.
        self._groups: dict[str, dict[int, ChannelBatch]] = {}
        #: Whether any consumer ever registered — the kernel's gate for
        #: taking the mixed-item drain loops at all.
        self.used = False

    def register(self, channel: str, node: NodeId) -> None:
        """Declare ``node`` a group consumer for ``channel`` (from the
        next delivery drain on — see the module docstring)."""
        self._consumers.setdefault(channel, set()).add(node)
        self.used = True

    def begin_tick(self) -> None:
        """Reset the per-tick buffer and snapshot the consumer registry."""
        self._groups = {}
        n = self._n
        snapshot = {
            channel: frozenset(nodes)
            for channel, nodes in self._consumers.items()
        }
        self._snapshot = snapshot
        self._outsiders = {
            channel: [node for node in range(n) if node not in members]
            for channel, members in snapshot.items()
        }

    def deliver(
        self,
        record: BatchRecord,
        inboxes: list[list[Envelope]],
        metrics: "Metrics | None",
        tick: Round,
    ) -> None:
        """File one arriving record: group it for consumers, materialise
        plain envelopes for everyone else, account deliveries in bulk.

        ``metrics`` is ``None`` on the lock-step path (where plain
        envelopes record no deliveries either); on the general path the bulk
        charge passes the record's emission round so the delivery-lag
        accumulator stays exact under jittered calendars (the charge is
        zero on next-tick arrivals, matching the pre-jitter counts).
        """
        channel = record.channel
        groups = self._groups.get(channel)
        if groups is None:
            groups = self._groups[channel] = {}
        group = groups.get(record.instance)
        if group is None:
            group = groups[record.instance] = ChannelBatch()
        target = record.target
        sender = record.sender
        group.senders.append(sender)
        group.payloads.append(record.payload)
        group.targets.append(target)
        group.rounds.append(record.round_sent)
        if metrics is not None:
            metrics.record_deliveries(
                tick, record.recipient_count(len(inboxes)), record.round_sent
            )
        outsiders = self._outsiders.get(channel)
        if outsiders is None:
            # No consumer snapshot for this channel yet (records from a
            # mid-tick registration): everyone gets plain envelopes.
            outsiders = range(len(inboxes))
        elif not outsiders:
            return
        wrapped = mux_wrap(channel, record.instance, record.payload)
        round_sent = record.round_sent
        for node in outsiders:
            if node != sender if target is None else target >> node & 1:
                inboxes[node].append(Envelope(sender, node, wrapped, round_sent))

    def capture(
        self,
        envelope: Envelope,
        metrics: "Metrics | None",
        tick: Round,
    ) -> bool:
        """Try to file a plain wrapped envelope into its consumer's group.

        The general event path's answer to mixed plain/batched traffic
        under jittered calendars: an ordinary envelope (a tampering lens
        re-materialising its sends, a Byzantine node writing wire tuples
        by hand) whose recipient is a snapshot consumer and whose payload
        parses as that channel's mux wrapper is appended to the group
        arrays *at its calendar position*, so the consumer sees exactly
        the per-envelope per-inbox arrival order without any
        sender-sorted merge heuristics (which are only valid lock-step).
        Returns ``False`` — deliver it plain — for non-consumers and
        malformed wrappers; the mux's demux would treat the latter
        as noise for no instance, and an unparsed envelope in a plain
        inbox reproduces that exactly.
        """
        recipient = envelope.recipient
        payload = envelope.payload
        for channel, members in self._snapshot.items():
            if recipient not in members:
                continue
            parsed = mux_unwrap(payload, channel)
            if parsed is None:
                continue
            instance, inner = parsed
            groups = self._groups.get(channel)
            if groups is None:
                groups = self._groups[channel] = {}
            group = groups.get(instance)
            if group is None:
                group = groups[instance] = ChannelBatch()
            group.senders.append(envelope.sender)
            group.payloads.append(inner)
            group.targets.append(1 << recipient)
            group.rounds.append(envelope.round_sent)
            if metrics is not None:
                metrics.record_deliveries(tick, 1, envelope.round_sent)
            return True
        return False

    def wrapped_for(self, node: NodeId) -> list[Envelope]:
        """This tick's group entries addressed to ``node``, re-wrapped in
        their channel's mux extension: the plain envelopes the node
        would have received had it not been a consumer (what a recorded
        view holds beside the node's plain inbox)."""
        return [
            Envelope(env.sender, node, mux_wrap(channel, instance, env.payload), env.round_sent)
            for channel, members in self._snapshot.items() if node in members
            for instance, group in self._groups.get(channel, _EMPTY_GROUPS).items()
            for env in group.envelopes_for(node)
        ]

    def groups_for(self, channel: str, node: NodeId) -> "dict[int, ChannelBatch] | None":
        """This tick's groups for a consumer, or ``None`` when ``node``
        is not in the current snapshot (its traffic, if any, went to its
        plain inbox — the caller must read that instead)."""
        snapshot = self._snapshot.get(channel)
        if snapshot is None or node not in snapshot:
            return None
        groups = self._groups.get(channel)
        return groups if groups is not None else _EMPTY_GROUPS
