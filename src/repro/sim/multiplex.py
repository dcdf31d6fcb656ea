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
  ``mux_unwrap``), demultiplexed back to per-instance inboxes on arrival;
* **namespaced randomness** — each instance draws from
  :func:`repro.sim.rng.instance_rng`, keyed by ``(master seed, node,
  instance)``, so instance streams are mutually independent *and*
  independent of which other instances share the run.  Being a pure
  function of that key, a stream is built on the instance's first ``rng``
  read: honest OM(t) instances never draw and never pay for one;
* **per-instance metrics** — each instance's sends are also recorded, at
  the inner payload's (dense-equivalent) size, into a per-instance
  :class:`~repro.sim.metrics.Metrics`, settled every round to bound
  retention; run-level aggregation is :func:`collect_instances`;
* **per-instance outcomes** — decide / discover / halt land in an
  :class:`InstanceOutcome` (a :class:`~repro.sim.compose.PhaseOutcome`
  extended with identity and metrics), never in the real node state.

Causal independence and sharding
--------------------------------
Instances that never read each other's state — the agreement-based
key-distribution case: instance *i* is one OM(t) run about node *i*'s
key — interact only through their own tagged traffic and their own rng
streams.  A run over any *subset* of the instances therefore reproduces
that subset's decisions, rounds and per-instance metrics bit-for-bit,
which is what lets :func:`repro.harness.parallel.run_mux_shards` split
the K instances of one logical run across worker processes and merge the
per-instance results deterministically.  ``tests/harness/``'s sharding
property test enforces the equivalence under random Byzantine behaviour.

Columnar execution
------------------
K instances sharing one channel make the per-envelope pipeline the run's
hot loop (n=128 key distribution: ~6.2M envelopes, ~4 rounds).  The
mux's default ``engine="columnar"`` therefore rides the kernel's batch
plane (:mod:`repro.sim.batch`): every instance broadcast becomes one
batch record, arriving traffic is read as shared structure-of-arrays
groups instead of per-node envelope lists, and protocols that declare
``supports_batch_inbox`` ingest the arrays directly (others get
envelopes materialised on demand).  Jittered, lossy and partitioned
calendars batch too: records carry per-arrival-tick buckets and an
emission-``rounds[]`` column (see :mod:`repro.sim.batch`), so the plane
engages for every deterministic delivery model, not just lock-step.
``engine="object"`` forces the original per-envelope path — the
reference oracle — and the columnar engine *falls back to it
automatically* whenever the run cannot batch (views/trace recording on,
a rushing delivery model); the fallback is recorded on the mux
(:attr:`InstanceMux.fallback_reason` / :attr:`InstanceMux.engine_used`)
and warned once per process, so "silently slower" is neither.  The
process-wide default engine can be forced via the ``REPRO_MUX_ENGINE``
environment variable (:func:`default_mux_engine`).  The engine knob
changes execution strategy only: decisions, per-instance outcomes and
all metrics counters are bit-for-bit identical either way
(``tests/sim/test_batch.py`` property-tests this under random Byzantine
behaviour, jittered/lossy/partitioned delivery and adaptive
adversaries).  The engines share their code wherever they share their
behaviour: one instance context, whose ``broadcast`` picks the wire form
from the engine :meth:`InstanceMux.setup` settled on and charges the
per-instance mirror in one place, and one stepping loop, which hands an
instance its batch group when one arrived (plain traffic beside it
spliced in first) and its plain inbox otherwise.

Composition
-----------
:class:`InstanceMux` is itself a :class:`~repro.sim.node.Protocol`: it
can run directly under the scheduler, be embedded in a larger protocol
through :class:`~repro.sim.compose.PhaseHost`, and host instances that
themselves embed sub-protocols via ``PhaseHost`` — the three layerings
the key-distribution and FD→BA stacks use.  Because it only speaks the
``Protocol`` API, the mux runs on the event kernel unchanged under any
:class:`~repro.sim.network.DeliveryModel`: each activation demultiplexes
whatever arrived that tick (``tests/sim/test_multiplex.py`` pins this).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..errors import ConfigurationError
from ..types import NodeId
from .batch import ChannelBatch
from .compose import PhaseOutcome
from .kernel import RunResult
from .message import Envelope, mux_unwrap, mux_wrap
from .metrics import Metrics
from .node import NodeContext, Protocol
from .rng import instance_rng

#: Key under which a completed mux publishes its per-instance outcomes in
#: ``NodeState.outputs``.
MUX_OUTCOMES = "mux-outcomes"

#: Default channel name for anonymous muxes.
DEFAULT_CHANNEL = "mux"

#: Execution engines (see :class:`InstanceMux`): the columnar default
#: rides the kernel's batch plane when available; the object engine is
#: the per-envelope reference path the equivalence tests pin against.
OBJECT_ENGINE = "object"
COLUMNAR_ENGINE = "columnar"
DEFAULT_MUX_ENGINE = COLUMNAR_ENGINE

#: Environment knob overriding the default engine for muxes constructed
#: without an explicit ``engine=`` — how CI forces a whole test/bench
#: pass onto the object reference path (``REPRO_MUX_ENGINE=object``).
MUX_ENGINE_ENV = "REPRO_MUX_ENGINE"


def default_mux_engine() -> str:
    """The engine muxes use when none is requested explicitly.

    :data:`DEFAULT_MUX_ENGINE` (columnar), overridable per process via
    the :data:`MUX_ENGINE_ENV` environment variable — the knob CI's
    second quick-bench pass uses to keep the object oracle exercised and
    count-identical on every change.

    :raises ConfigurationError: if the variable holds an unknown engine.
    """
    engine = os.environ.get(MUX_ENGINE_ENV)
    if engine is None:
        return DEFAULT_MUX_ENGINE
    if engine not in (OBJECT_ENGINE, COLUMNAR_ENGINE):
        raise ConfigurationError(
            f"{MUX_ENGINE_ENV}={engine!r} names an unknown mux engine; "
            f"expected {OBJECT_ENGINE!r} or {COLUMNAR_ENGINE!r}"
        )
    return engine


#: Fallback reasons already warned about this process (one warning per
#: distinct reason, not one per mux — an n=128 run builds 128 muxes).
_FALLBACK_WARNED: set[str] = set()


def _warn_engine_fallback(reason: str) -> None:
    """One-time ``RuntimeWarning`` when a columnar mux degrades.

    The fallback is *correct* (the object path is the reference oracle)
    but silently slower; surfacing it once per distinct reason turns
    "why is this run 10x slower" into a printed answer without drowning
    multi-run sweeps in repeats.
    """
    if reason in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(reason)
    warnings.warn(
        f"columnar mux fell back to the object engine: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass
class InstanceOutcome(PhaseOutcome):
    """Captured effects and measurements of one multiplexed instance.

    Generalizes :class:`~repro.sim.compose.PhaseOutcome` (decided /
    decision / discovered / halted) with the instance's identity and its
    own :class:`~repro.sim.metrics.Metrics`, fed with the instance's
    *inner* envelopes — what this instance's protocol sent, charged at
    dense-equivalent payload sizes, before mux wrapping.
    """

    instance: int = 0
    metrics: Metrics = field(default_factory=Metrics)


class _MuxInstanceContext:
    """One instance's window onto the node: tagged sends, namespaced rng.

    The mirror of :class:`repro.sim.compose._PhaseProxyContext`, per
    instance instead of per phase: sends travel on the instance's tagged
    stream (and are mirrored into the instance's metrics), ``rng`` is the
    instance's namespaced stream, and decide / discover / halt are
    captured in the :class:`InstanceOutcome` instead of the node state.
    Rounds pass through unshifted — all instances share the mux's round
    frame (shift the whole mux with a ``PhaseHost`` if needed).

    ``columnar`` is the engine :meth:`InstanceMux.setup` settled on; it
    picks the wire form of a send and nothing else.
    """

    __slots__ = ("_ctx", "_channel", "_slot", "_outcome", "_columnar")

    def __init__(self, ctx, channel: str, slot: "_MuxSlot", columnar: bool) -> None:
        self._ctx = ctx
        self._channel = channel
        self._slot = slot
        self._outcome = slot.outcome
        self._columnar = columnar

    def __getattr__(self, item: str) -> Any:
        return getattr(self._ctx, item)

    @property
    def node(self) -> NodeId:
        """This node's id (pass-through)."""
        return self._ctx.node

    @property
    def n(self) -> int:
        """Network size (pass-through)."""
        return self._ctx.n

    @property
    def round(self) -> int:
        """The mux's round frame, unshifted."""
        return self._ctx.round

    @property
    def rng(self):
        """The instance's namespaced random stream, built on first read."""
        slot = self._slot
        if slot.rng is None:
            seed, node, channel = slot.identity
            slot.rng = instance_rng(seed, node, self._outcome.instance, purpose=channel)
        return slot.rng

    @property
    def state(self):
        """The real node state (outputs only; terminal effects never
        reach it through this proxy)."""
        return self._ctx.state

    def others(self) -> list[NodeId]:
        """All node ids except this node's (pass-through)."""
        return self._ctx.others()

    def send(self, to: NodeId, payload: Any) -> None:
        """Send ``payload`` on this instance's tagged stream."""
        self.broadcast(payload, (to,))

    def broadcast(self, payload: Any, to: list[NodeId] | None = None) -> None:
        """Broadcast on this instance's stream.

        Columnar: one kernel batch record — the kernel wraps the payload
        once and charges run metrics for the full recipient count.
        Object: wrap once and broadcast the wrapper, one logical send
        of one payload object to the run-level meters as well (a
        tampering lens below still sees each copy).  Either way
        the per-instance mirror is charged here, once, with the one
        shared inner payload at the same (possibly phase-shifted) round;
        a send to nobody moves no counter.
        """
        ctx = self._ctx
        outcome = self._outcome
        if self._columnar:
            count = ctx.send_batch(self._channel, outcome.instance, payload, to)
        else:
            ctx.broadcast(mux_wrap(self._channel, outcome.instance, payload), to)
            count = ctx.n - 1 if to is None else len(to)
        if count:
            outcome.metrics.record_broadcast(ctx.node, ctx.round, payload, count)

    def decide(self, value: Any) -> None:
        """Capture the instance's decision."""
        self._outcome.decided = True
        self._outcome.decision = value

    def discover_failure(self, reason: str) -> None:
        """Capture the instance's failure discovery (first reason wins)."""
        if self._outcome.discovered is None:
            self._outcome.discovered = reason

    def halt(self) -> None:
        """Mark the instance finished; the mux stops stepping it."""
        self._outcome.halted = True


def _batch_envelopes(group: ChannelBatch, me: NodeId) -> list[Envelope]:
    """Materialise one instance's batched deliveries for node ``me``.

    Inner payloads in the group's arrival order, each stamped with its
    entry's emission round from the ``rounds[]`` column — exactly the
    per-instance inbox the object path's demux would have built, under
    lock-step and jittered calendars alike.
    """
    envelopes = []
    senders = group.senders
    payloads = group.payloads
    targets = group.targets
    rounds = group.rounds
    for i in range(len(senders)):
        target = targets[i]
        sender = senders[i]
        if target is None:
            if sender == me:
                continue
        elif type(target) is int:
            if target != me:
                continue
        elif me not in target:
            continue
        envelopes.append(Envelope(sender, me, payloads[i], rounds[i]))
    return envelopes


def _merge_plain_into_batch(
    group: ChannelBatch, plain: list[Envelope]
) -> ChannelBatch:
    """Splice demuxed plain envelopes into a copy of a batch group.

    Used when an instance received plain wrapped traffic beside its
    batch group (object-engine peers, Byzantine forgeries): the protocol
    still sees one sender-ascending view, batched first on ties — a
    sender ties with itself only if it sent both batch records and plain
    wrapped envelopes in one tick (a hand-crafted adversary).  Both only
    ever coexist lock-step (a jittered calendar's plain envelopes are
    captured into the group at their calendar position), where each side
    is born sender-sorted.  The copy gets a fresh ``shared`` scratch
    (entry indices shift), which is fine — the plain-traffic case is the
    rare one.
    """
    merged = ChannelBatch()
    senders = merged.senders
    payloads = merged.payloads
    targets = merged.targets
    rounds = merged.rounds
    group_senders = group.senders
    group_payloads = group.payloads
    group_targets = group.targets
    group_rounds = group.rounds
    i = 0
    total = len(group_senders)
    for env in plain:
        sender = env.sender
        while i < total and group_senders[i] <= sender:
            senders.append(group_senders[i])
            payloads.append(group_payloads[i])
            targets.append(group_targets[i])
            rounds.append(group_rounds[i])
            i += 1
        senders.append(env.sender)
        payloads.append(env.payload)
        targets.append(env.recipient)
        rounds.append(env.round_sent)
    while i < total:
        senders.append(group_senders[i])
        payloads.append(group_payloads[i])
        targets.append(group_targets[i])
        rounds.append(group_rounds[i])
        i += 1
    return merged


class _MuxSlot:
    """Bookkeeping for one hosted instance.  ``rng`` is ``None`` until the
    instance's first ``rng`` read; until then (and in a pickle) the slot holds
    the stream's identity: the mux's ``(seed, node, channel)`` + ``outcome.instance``."""

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
    :param engine: :data:`COLUMNAR_ENGINE` to ride the kernel's batch
        plane when the run supports it, :data:`OBJECT_ENGINE` to force
        the per-envelope reference path, or ``None`` (default) to use
        :func:`default_mux_engine` — columnar unless the
        ``REPRO_MUX_ENGINE`` environment knob says otherwise.  Execution
        strategy only — observable behaviour is identical (see module
        docstring).  After :meth:`setup`, :attr:`engine_used` reports
        the engine actually running and :attr:`fallback_reason` why a
        columnar request degraded (if it did).

    Each round, the inbox is demultiplexed by the mux envelope extension
    (non-parsing traffic is dropped — Byzantine noise belongs to no
    instance) and every live instance is stepped with its own envelopes,
    its own rng stream and its own metrics.  When every instance has
    halted, the per-instance outcomes are published under
    ``outputs[MUX_OUTCOMES]`` and the node halts.  Embedding protocols
    that want to post-process (e.g. build a key directory from the
    decisions) wrap the mux in a :class:`~repro.sim.compose.PhaseHost`
    and read :attr:`outcomes` when the host reports the halt.
    """

    def __init__(
        self,
        instances: Mapping[int, Protocol],
        channel: str = DEFAULT_CHANNEL,
        engine: "str | None" = None,
    ) -> None:
        if engine is None:
            engine = default_mux_engine()
        elif engine not in (OBJECT_ENGINE, COLUMNAR_ENGINE):
            raise ConfigurationError(
                f"unknown mux engine {engine!r}; expected "
                f"{OBJECT_ENGINE!r} or {COLUMNAR_ENGINE!r}"
            )
        self._channel = channel
        self._engine = engine
        self._columnar = False
        self._fallback_reason: "str | None" = None
        self._protocols = {int(i): p for i, p in instances.items()}
        self._slots: dict[int, _MuxSlot] = {}
        self._live = 0

    @property
    def engine(self) -> str:
        """The configured execution engine (``"object"``/``"columnar"``)."""
        return self._engine

    @property
    def engine_used(self) -> str:
        """The engine actually running (meaningful after :meth:`setup`):
        :data:`COLUMNAR_ENGINE` when the batch-plane registration
        succeeded, else :data:`OBJECT_ENGINE` — either because it was
        configured, or because a columnar request fell back (see
        :attr:`fallback_reason`)."""
        return COLUMNAR_ENGINE if self._columnar else OBJECT_ENGINE

    @property
    def fallback_reason(self) -> "str | None":
        """Why a columnar mux is running the object path, or ``None``.

        Set during :meth:`setup` when ``engine="columnar"`` could not
        register with the run's batch plane (recording on, delivery
        model not batch-capable, or a context without the batch API);
        always ``None`` for object-engine muxes and for columnar muxes
        that engaged.  The same reason is emitted once per process as a
        ``RuntimeWarning`` — fallback is correct but silently slower.
        """
        return self._fallback_reason

    @property
    def channel(self) -> str:
        """The mux's wire-tag channel."""
        return self._channel

    @property
    def outcomes(self) -> dict[int, InstanceOutcome]:
        """instance id -> its outcome (shared, live objects)."""
        return {i: slot.outcome for i, slot in self._slots.items()}

    def setup(self, ctx: NodeContext) -> None:
        """Create per-instance outcomes and slots; set up instances."""
        if self._engine == COLUMNAR_ENGINE:
            # getattr-probed: composition layers hand the mux proxy
            # contexts, and tests hand it bare fakes — anything without
            # the batch API simply runs the object path.
            register = getattr(ctx, "register_batch_consumer", None)
            self._columnar = (
                bool(register(self._channel)) if register is not None else False
            )
            if not self._columnar:
                reason_fn = getattr(ctx, "batch_fallback_reason", None)
                reason = reason_fn() if callable(reason_fn) else None
                if reason is None:
                    reason = "run context exposes no batch plane API"
                self._fallback_reason = reason
                _warn_engine_fallback(reason)
        identity = (ctx.seed, ctx.node, self._channel)
        for instance in sorted(self._protocols):
            outcome = InstanceOutcome(instance=instance)
            slot = _MuxSlot(self._protocols[instance], outcome, identity)
            self._slots[instance] = slot
            slot.protocol.setup(
                _MuxInstanceContext(ctx, self._channel, slot, self._columnar)
            )  # type: ignore[arg-type]
        # An instance may already have halted inside its setup (a
        # config-validating or crashed-from-start behaviour): count only
        # the live ones, or _live could never reach zero.
        self._live = sum(
            1 for slot in self._slots.values() if not slot.outcome.halted
        )

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Demultiplex, step every live instance, halt when all are done."""
        slots = self._slots
        per_instance: dict[int, list[Envelope]] = {}
        channel = self._channel
        for env in inbox:
            parsed = mux_unwrap(env.payload, channel)
            if parsed is None:
                continue
            instance, inner = parsed
            if instance in slots:
                per_instance.setdefault(instance, []).append(
                    Envelope(env.sender, env.recipient, inner, env.round_sent)
                )
        columnar = self._columnar
        # No groups: the object engine, or a columnar mux outside this
        # tick's consumer snapshot — its traffic arrived plain, though it
        # still *sends* through the plane.
        groups = (ctx.batch_groups(channel) if columnar else None) or {}
        me = ctx.node
        for instance in sorted(slots):
            slot = slots[instance]
            outcome = slot.outcome
            if outcome.halted:
                continue
            proxy = _MuxInstanceContext(ctx, channel, slot, columnar)
            protocol = slot.protocol
            group = groups.get(instance)
            plain = per_instance.get(instance)
            if group is not None and plain is not None:
                group = _merge_plain_into_batch(group, plain)
            if group is None:
                protocol.on_round(proxy, plain or [])  # type: ignore[arg-type]
            elif getattr(protocol, "supports_batch_inbox", False):
                protocol.on_round_batch(proxy, group)  # type: ignore[arg-type]
            else:
                protocol.on_round(proxy, _batch_envelopes(group, me))  # type: ignore[arg-type]
            outcome.metrics.settle()
            if outcome.halted:
                self._live -= 1
        if self._live == 0:
            ctx.state.outputs[MUX_OUTCOMES] = self.outcomes
            ctx.halt()


@dataclass
class InstanceAggregate:
    """Run-level view of one instance across all participating nodes.

    The cross-node mirror of :class:`InstanceOutcome`: where the outcome
    captures what *one node* saw of the instance, the aggregate collects
    every node's decision and discovery for it, plus the instance's
    merged metrics (every node's per-instance instrument folded together
    in node order).  Aggregates are plain picklable data with value
    equality — the currency the sharded executor ships between processes
    and the equivalence property tests compare bit-for-bit.
    """

    instance: int
    decisions: dict[NodeId, Any] = field(default_factory=dict)
    discovered: dict[NodeId, str] = field(default_factory=dict)
    metrics: Metrics = field(default_factory=Metrics)

    @property
    def messages(self) -> int:
        """Envelopes this instance's participants sent (all nodes)."""
        return self.metrics.messages_total

    @property
    def bytes(self) -> int:
        """Dense-equivalent payload bytes across the instance's envelopes."""
        return self.metrics.bytes_total

    @property
    def rounds(self) -> int:
        """Rounds (in the mux's frame) in which the instance had traffic."""
        return self.metrics.rounds_used


def collect_instances(run: RunResult) -> dict[int, InstanceAggregate]:
    """Aggregate every node's published mux outcomes per instance.

    Walks ``run.states`` in node order, so metric merging — commutative
    anyway — happens in one canonical order.  Nodes that published no
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
            agg.metrics.merge(outcome.metrics)
    return dict(sorted(aggregates.items()))


def merge_instance_aggregates(
    shards: Iterator[Mapping[int, InstanceAggregate]] | list,
) -> dict[int, InstanceAggregate]:
    """Combine disjoint per-shard aggregate maps into one, id-sorted.

    :raises ValueError: if two shards claim the same instance — shards of
        one logical run must partition the instance set.
    """
    merged: dict[int, InstanceAggregate] = {}
    for shard in shards:
        for instance, aggregate in shard.items():
            if instance in merged:
                raise ValueError(
                    f"instance {instance} appears in more than one shard"
                )
            merged[instance] = aggregate
    return dict(sorted(merged.items()))
