"""Pluggable delivery models: the network-timing half of the runtime.

The event kernel (:mod:`repro.sim.kernel`) separates *protocol logic*
(what nodes compute and send) from *network timing* (when sends arrive
and in what order nodes act).  This module owns the timing half: a
:class:`DeliveryModel` maps every emitted envelope to its arrival tick
and fixes the per-tick node activation order.  Five models ship:

* :class:`SynchronousRounds` — the paper's model (N1 with the delivery
  bound *known* and equal to one round, lock-step activations).  This is
  the default and is required to be bit-for-bit identical to the
  pre-kernel lock-step loop: same decisions, same round counts, same
  per-kind message/byte counters, across the whole benchmark grid
  (``tests/sim/test_kernel.py`` property-tests the equivalence under
  random Byzantine behaviour).
* :class:`BoundedDelay` — N1 with a *looser* bound: every message
  arrives within ``delay`` ticks, with deterministic seed-derived
  per-link jitter.  Protocols written against lock-step rounds now see
  skewed inboxes; experiment E12 measures where their agreement and
  discovery guarantees start to diverge.
* :class:`AdversarialOrder` — a *rushing* scheduler: the designated
  Byzantine nodes receive honest tick-``r`` traffic in tick ``r``
  itself, before they emit their own tick-``r`` messages (honest nodes
  keep lock-step delivery).  What the rushing nodes *do* with that
  foreknowledge is a pluggable strategy from :mod:`repro.faults` (for
  example :class:`~repro.faults.RushMirrorProtocol`); the model only
  grants the scheduling power.
* :class:`LossyDelivery` — the first model that breaks N1's
  *reliability*: each envelope is independently dropped with
  probability ``p``, drawn from a deterministic seed-derived per-link
  stream.  Dropped envelopes never reach an inbox; the kernel records
  each drop in the run's metrics and (when tracing) the event log.
* :class:`PartitionedDelivery` — epoch-indexed network partitions:
  a schedule of disjoint node blocks; messages crossing a block
  boundary are dropped, or (in ``defer`` mode) parked until the first
  tick at which sender and recipient are reunited.  Experiment E13
  measures convergence across the heal.

A model signals a drop by returning ``None`` from :meth:`arrival_tick`
— the kernel then accounts the loss instead of scheduling a delivery.

Determinism: every model is a pure function of the master seed and the
emission sequence — :class:`BoundedDelay` and :class:`LossyDelivery`
derive their per-link streams from the kernel's seed via
:func:`repro.sim.rng.node_rng`, :class:`PartitionedDelivery` consults
only its static schedule, and no model reads wall-clock or global
state.  A link holds its next few pre-drawn outcomes, not a live stream,
and draws exactly what a live stream would (:class:`_LinkStreamDelivery`;
the live recipe is the oracle in ``tests/sim/_reference_links.py``).
Re-running with the same protocols, seed and model reproduces every
arrival *and every drop* bit-for-bit (property-tested in
``tests/sim/test_network.py``).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import ConfigurationError
from ..types import NodeId, Round
from .message import Envelope
from .rng import node_rng

if TYPE_CHECKING:
    import random

    from .kernel import EventKernel


class DeliveryModel:
    """Network-timing policy consulted by the event kernel.

    Subclasses override :meth:`arrival_tick` (when does this envelope
    arrive?) and optionally :meth:`activation_order` (in what order do
    nodes act within a tick?).  A model declaring ``lockstep = True``
    promises "every envelope arrives exactly one tick after emission, in
    id-ascending activation order" — the kernel then takes its batched
    fast path, which is what keeps the synchronous special case as fast
    as the pre-kernel runner.

    :ivar name: stable spec name (see :func:`make_delivery`).
    :ivar lockstep: whether the kernel may use the lock-step fast path.
    :ivar sweep_undelivered: whether envelopes still parked in the
        calendar when the run ends should be swept into the drop
        accounting (metrics ``drops_total`` + trace ``drop`` events).
        Off by default — only models that *park* traffic for later
        (defer-mode partitions) can strand envelopes past the final
        tick; for everything else the calendar drains naturally and the
        flag keeps historical drop counts bit-for-bit unchanged.
    """

    name = "abstract"
    lockstep = False
    sweep_undelivered = False

    def bind(self, kernel: "EventKernel") -> None:
        """One-time hook before the run starts (seed/size derivation)."""

    def batch_arrivals(
        self, sender: NodeId, recipients: Sequence[NodeId], tick: Round
    ) -> "list[Round | None]":
        """Per-recipient arrival ticks for one batch send (``None`` = drop).

        Consulted (on the general event path only) for a mux's batch
        send instead of per-envelope :meth:`arrival_tick` calls: one
        entry per recipient, aligned with ``recipients``.  The default is
        reliable next-tick delivery.  Models with jitter or loss must
        draw their per-recipient latency/drop decisions *in recipient
        order* from the same per-link streams ``arrival_tick`` uses —
        recipient order here equals per-envelope emission order there, so
        a batched broadcast reproduces the per-envelope arrival and drop
        schedule bit-for-bit.  The same causality rules apply: an arrival
        ``== tick`` (the rushing window) is filed into the recipient's
        current inbox and must respect the activation order.
        """
        return [tick + 1] * len(recipients)

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round | None:
        """The tick at which ``envelope`` (emitted at ``tick``) arrives.

        Must be ``>= tick + 1`` for recipients that already acted this
        tick; ``== tick`` is allowed only for recipients the activation
        order places *after* the sender (the rushing case) — the kernel
        enforces causality and raises on violations.  ``None`` means the
        network *drops* the envelope: it is never delivered, and the
        kernel records the loss (metrics ``drops_total`` / trace
        ``drop`` event) instead of scheduling it.
        """
        raise NotImplementedError

    def activation_order(self, n: int) -> Sequence[NodeId]:
        """Node activation order within one tick (default: id order)."""
        return range(n)


class SynchronousRounds(DeliveryModel):
    """The paper's lock-step rounds: every message arrives next tick.

    N1 with the bound known and equal to one round.  ``lockstep = True``
    lets the kernel run its batched fast path — behaviourally identical
    to the general event path (property-tested via a ``BoundedDelay(1)``
    cross-check), just without per-envelope calendar bookkeeping.
    """

    name = "sync"
    lockstep = True

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round:
        return tick + 1


#: Outcomes a link draws when first used — enough for every link of a
#: lossy n = 128 timeout-FD run, which then builds each stream once.
_FIRST_CHUNK = 16
#: Each refill grows a link's drawn total this many times over, so a hot
#: link rebuilds its stream O(log draws) times.
_GROWTH = 4
#: ``(typecode, largest value)`` of the unsigned outcome arrays, narrowest
#: first: a model stores latencies in the first that holds its ``delay``.
_OUTCOME_TYPES = [(code, 256 ** array(code).itemsize - 1) for code in "BHIQ"]


class _LinkStreamDelivery(DeliveryModel):
    """Draw-ahead per-link outcomes for seed-derived jitter/loss models.

    :class:`BoundedDelay` and :class:`LossyDelivery` draw from one
    ``random.Random`` per directed link, built by
    :func:`~repro.sim.rng.node_rng` from the master seed.  A link keeps
    not that stream (2.5 KiB of Mersenne state) but an ``array`` of
    pre-drawn outcomes — the latency offset, or ``0`` for a drop (a real
    latency is at least 1), in the narrowest unsigned typecode that holds
    ``delay``; next outcome last, so ``pop()`` reads it.  ``_links`` and
    ``_drawn`` (how many outcomes a link has drawn) are flat ``n * n``
    tables indexed by ``sender * n + recipient``.  :meth:`_fill` refills
    an empty array in place: rebuild the stream, replay the drawn
    outcomes with the model's one recipe (:meth:`_chunk`), draw the next
    chunk, drop the stream.  Replaying the very draws puts the stream
    where a live one would be, so chunks are exact: the k-th outcome on a
    link is the same whatever the chunk sizes, the call path
    (``arrival_tick`` and ``batch_arrivals`` pop the same arrays; the
    fan-out cache holds the arrays themselves) or the checkpoint tick.
    ``arrival_tick`` and ``batch_arrivals`` map ``0`` back to ``None``.
    ``_link_purpose`` is the stream namespace suffix, part of each
    model's frozen schedule contract, so subclasses pin it.
    """

    _link_purpose = "delay"

    def __init__(self, delay: int) -> None:
        if delay < 1:
            raise ConfigurationError(f"delay must be >= 1, got {delay}")
        for typecode, largest in _OUTCOME_TYPES:
            if delay <= largest:
                break
        else:
            raise ConfigurationError(f"delay must be <= {largest}, got {delay}")
        self.delay = delay
        self._typecode = typecode
        self._seed: int | str = 0
        self._n = 0
        self._links: list[array | None] = []
        self._drawn: list[int] = []
        self._fanouts: dict[tuple[NodeId, tuple[NodeId, ...]], list[array]] = {}

    def bind(self, kernel: "EventKernel") -> None:
        self._seed = kernel.seed
        n = self._n = kernel.n
        self._links = [None] * (n * n)
        self._drawn = [0] * (n * n)
        self._fanouts = {}

    def _chunk(self, rng: random.Random, count: int) -> list[int]:
        """The next ``count`` outcomes of a link stream, in draw order."""
        raise NotImplementedError

    def _fill(self, sender: NodeId, recipient: NodeId) -> array:
        """Refill one link's (empty or new) outcome array in place; return it."""
        link = sender * self._n + recipient
        outcomes = self._links[link]
        if outcomes is None:
            outcomes = self._links[link] = array(self._typecode)
        drawn = self._drawn[link]
        rng = node_rng(self._seed, sender, f"link/{recipient}/{self._link_purpose}")
        self._chunk(rng, drawn)
        count = (_GROWTH - 1) * drawn or _FIRST_CHUNK
        outcomes.extend(reversed(self._chunk(rng, count)))
        self._drawn[link] = drawn + count
        return outcomes

    def _fanout(self, sender: NodeId, recipients: Sequence[NodeId]) -> list[array]:
        """One fan-out's outcome arrays, in recipient order — cached per
        ``(sender, recipients)``, since broadcasts repeat a fan-out every
        round, instead of a table probe per recipient per send."""
        key = (sender, tuple(recipients))
        arrays = self._fanouts.get(key)
        if arrays is None:
            links, base = self._links, sender * self._n
            arrays = self._fanouts[key] = [
                links[base + recipient] or self._fill(sender, recipient)
                for recipient in recipients
            ]
        return arrays


class BoundedDelay(_LinkStreamDelivery):
    """Reliable delivery within ``delay`` ticks, seed-derived jitter.

    Keeps N1's *reliability* (never lost, never duplicated) but relaxes
    the *known bound*: each envelope on link ``(sender, recipient)``
    draws its latency uniformly from ``1 .. delay`` from a deterministic
    per-link stream namespaced under the run's master seed.  Messages on
    one link may therefore overtake each other, and a round-indexed
    protocol's inbox for tick ``r`` mixes emissions from several earlier
    ticks — exactly the skew experiment E12 probes.

    ``BoundedDelay(1)`` is semantically synchronous rounds but runs on
    the kernel's general event path, which makes it the reference point
    for proving the event machinery preserves lock-step semantics.
    """

    name = "bounded"

    def __init__(self, delay: int = 2) -> None:
        super().__init__(delay)

    def _chunk(self, rng: random.Random, count: int) -> list[int]:
        # ``1 + rng.randrange(delay)``, with CPython's rejection loop
        # inlined: the same getrandbits(k) draws, without the call layers.
        getrandbits, delay = rng.getrandbits, self.delay
        k = delay.bit_length()
        outcomes = []
        for _ in range(count):
            latency = getrandbits(k)
            while latency >= delay:
                latency = getrandbits(k)
            outcomes.append(1 + latency)
        return outcomes

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round:
        if self.delay == 1:
            return tick + 1
        sender, recipient = envelope.sender, envelope.recipient
        outcomes = self._links[sender * self._n + recipient] or self._fill(sender, recipient)
        return tick + outcomes.pop()

    def batch_arrivals(
        self, sender: NodeId, recipients: Sequence[NodeId], tick: Round
    ) -> "list[Round | None]":
        """One latency per recipient, popped from the same per-link arrays
        as the per-envelope ``arrival_tick`` draws, in the same order."""
        if self.delay == 1:
            return [tick + 1] * len(recipients)
        fill = self._fill
        return [
            tick + (outcomes.pop() if outcomes else fill(sender, recipient).pop())
            for recipient, outcomes in zip(recipients, self._fanout(sender, recipients))
        ]


class AdversarialOrder(DeliveryModel):
    """A rushing scheduler: designated nodes see honest traffic early.

    Honest traffic keeps lock-step delivery *except* towards the rushing
    set: an envelope from an honest sender to a rushing node emitted at
    tick ``r`` is delivered at tick ``r`` itself.  Rushing nodes are
    activated after every honest node within each tick, so by the time a
    rushing node acts it has observed the full honest tick-``r`` traffic
    addressed to it — and everything it emits still arrives at
    ``r + 1``, indistinguishable (to the receivers) from ordinary
    tick-``r`` messages.  This is the classic rushing adversary of the
    distributed-computing literature, impossible to express under
    lock-step rounds.

    The *strategy* — what a rushing node does with its foreknowledge —
    is whatever :class:`~repro.sim.node.Protocol` the node runs,
    typically a behaviour from :mod:`repro.faults`
    (:class:`~repro.faults.RushMirrorProtocol` re-emits observed
    payloads into the same round).  The model itself only reorders.

    :param rushing: the node ids granted rushing power.
    """

    name = "rush"

    def __init__(self, rushing: Iterable[NodeId]) -> None:
        self.rushing = frozenset(int(node) for node in rushing)

    def bind(self, kernel: "EventKernel") -> None:
        """Fail closed on a rushing node outside ``0..n-1``."""
        n = kernel.n
        outside = sorted(self.rushing.difference(range(n)))
        if outside:
            spec = "rush:" + ",".join(map(str, sorted(self.rushing)))
            raise ConfigurationError(
                f"{spec!r} names node(s) {outside} outside 0..{n - 1} (n={n})"
            )

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round:
        if (
            envelope.recipient in self.rushing
            and envelope.sender not in self.rushing
        ):
            return tick
        return tick + 1

    def batch_arrivals(
        self, sender: NodeId, recipients: Sequence[NodeId], tick: Round
    ) -> "list[Round | None]":
        """:meth:`arrival_tick` per recipient: ``tick`` for an honest
        sender's copy to a rushing node, ``tick + 1`` otherwise."""
        rushing = self.rushing
        early = tick + (sender in rushing)
        return [early if recipient in rushing else tick + 1 for recipient in recipients]

    def activation_order(self, n: int) -> Sequence[NodeId]:
        honest = [node for node in range(n) if node not in self.rushing]
        return honest + sorted(self.rushing)


class LossyDelivery(_LinkStreamDelivery):
    """Unreliable delivery: each envelope dropped iid with probability ``p``.

    The first model that relaxes N1's *reliability* rather than its
    timing: a surviving envelope arrives exactly one tick after emission
    (optionally jittered within ``delay`` like :class:`BoundedDelay`),
    but each envelope on link ``(sender, recipient)`` is independently
    lost with probability ``p``, drawn from a deterministic per-link
    stream namespaced under the run's master seed.  Protocols written
    against reliable rounds (the chain FD's "silence is evidence") now
    face genuine message loss — the axis experiment E13 sweeps, and the
    environment the timeout FD protocol (:mod:`repro.fd.timeout`) is
    designed for.

    Determinism: the drop decision for the k-th envelope on a link is a
    pure function of ``(master seed, link, k)``, so a re-run reproduces
    every drop bit-for-bit.

    :param p: per-envelope drop probability in ``[0, 1)``.
    :param delay: latency bound for surviving envelopes (1 = lock-step
        timing, >1 = additional :class:`BoundedDelay`-style jitter).
    """

    name = "loss"
    _link_purpose = "loss"

    def __init__(self, p: float, delay: int = 1) -> None:
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(
                f"loss probability must lie in [0, 1), got {p}"
            )
        super().__init__(delay)
        self.p = p

    def _chunk(self, rng: random.Random, count: int) -> list[int]:
        # Latency first, then the drop coin, even for a dropped envelope.
        # At delay == 1 no latency draw is made, so changing `delay`
        # reshuffles the (gated) drop schedule.  The latency is
        # ``1 + rng.randrange(delay)`` with its rejection loop inlined,
        # as in BoundedDelay._chunk.
        p, delay, coin = self.p, self.delay, rng.random
        if delay == 1:
            return [0 if coin() < p else 1 for _ in range(count)]
        getrandbits, k = rng.getrandbits, delay.bit_length()
        outcomes = []
        for _ in range(count):
            latency = getrandbits(k)
            while latency >= delay:
                latency = getrandbits(k)
            outcomes.append(0 if coin() < p else 1 + latency)
        return outcomes

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round | None:
        sender, recipient = envelope.sender, envelope.recipient
        outcomes = self._links[sender * self._n + recipient] or self._fill(sender, recipient)
        latency = outcomes.pop()
        return tick + latency if latency else None

    def batch_arrivals(
        self, sender: NodeId, recipients: Sequence[NodeId], tick: Round
    ) -> "list[Round | None]":
        """One outcome per recipient, popped from the same per-link arrays
        as ``arrival_tick``, so the k-th send on every link gets the
        per-envelope arrival *and* drop bit-for-bit."""
        fill = self._fill
        arrivals: "list[Round | None]" = []
        append = arrivals.append
        for recipient, outcomes in zip(recipients, self._fanout(sender, recipients)):
            latency = outcomes.pop() if outcomes else fill(sender, recipient).pop()
            append(tick + latency if latency else None)
        return arrivals


#: Search bound for a deferred envelope's healing tick, in ticks after
#: emission (the kernel's default ``max_rounds``).
_DEFER_HORIZON = 10_000


class PartitionedDelivery(DeliveryModel):
    """Epoch-indexed network partitions with an optional healing defer.

    The schedule is a sequence of ``(start_tick, blocks)`` epochs, in
    ascending ``start_tick`` order with the first epoch starting at 0:
    from ``start_tick`` until the next epoch begins, the network is
    split into the given disjoint ``blocks`` of node ids (``None`` =
    fully connected).  A node appearing in no block of a partitioned
    epoch is isolated.  An envelope whose sender and recipient share a
    block (or whose emission tick falls in a healed epoch) is delivered
    next tick; a cross-block envelope is

    * **dropped** (default), or
    * **deferred** (``defer=True``): parked until the first tick at
      which the two nodes are reunited, arriving then — the
      store-and-forward reading, which is what makes partition-heal
      convergence measurable (experiment E13).

    A deferred envelope whose endpoints are never reunited within
    ``_DEFER_HORIZON`` ticks of emission is dropped.  The model consults
    no randomness at all: arrivals and drops are a pure function of the
    static schedule and the emission sequence.

    :param schedule: ``((start_tick, blocks_or_None), ...)``.
    :param defer: park cross-block traffic until heal instead of
        dropping it.
    """

    name = "partition"

    def __init__(
        self,
        schedule: Sequence[tuple[int, "Sequence[Iterable[NodeId]] | None"]],
        defer: bool = False,
    ) -> None:
        if not schedule:
            raise ConfigurationError("partition schedule must not be empty")
        parsed: list[tuple[int, tuple[frozenset[NodeId], ...] | None]] = []
        for start, blocks in schedule:
            start = int(start)
            if blocks is None:
                parsed.append((start, None))
                continue
            frozen = tuple(frozenset(int(node) for node in block) for block in blocks)
            seen: set[NodeId] = set()
            for block in frozen:
                if seen & block:
                    raise ConfigurationError(
                        f"partition blocks overlap: {sorted(seen & block)}"
                    )
                seen |= block
            parsed.append((start, frozen))
        starts = [start for start, _ in parsed]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ConfigurationError(
                f"partition epochs must have strictly ascending start ticks, got {starts}"
            )
        if parsed[0][0] != 0:
            raise ConfigurationError(
                f"the first partition epoch must start at tick 0, got {parsed[0][0]}"
            )
        self.schedule = tuple(parsed)
        self.defer = defer
        # Deferred envelopes can be parked past the run's final tick
        # (a heal landing at or after the last halt); have the kernel
        # sweep them into the drop accounting instead of losing them
        # silently.
        self.sweep_undelivered = defer

    def bind(self, kernel: "EventKernel") -> None:
        """Fail closed on a block naming a node outside ``0..n-1``."""
        n = kernel.n
        for epoch, (_, blocks) in enumerate(self.schedule):
            outside = sorted(frozenset().union(*blocks or ()).difference(range(n)))
            if outside:
                # In spec form: this epoch's blocks, then the later epochs'
                # start ticks (exactly the spec for the parser's schedules).
                spec = "partition:" + "|".join(
                    f"{min(block)}-{max(block)}"
                    if 1 < len(block) == max(block) - min(block) + 1
                    else ",".join(map(str, sorted(block)))
                    for block in blocks
                ) + "".join(f"@{start}" for start, _ in self.schedule[epoch + 1:])
                spec += "/defer" if self.defer else ""
                shown = ", ".join(map(str, outside[:3])) + ", ..." * (len(outside) > 3)
                raise ConfigurationError(
                    f"{spec!r} names node(s) {shown} outside 0..{n - 1} (n={n})"
                )

    def _connected(self, sender: NodeId, recipient: NodeId, tick: Round) -> bool:
        """Whether the two nodes can talk in the epoch covering ``tick``."""
        blocks: tuple[frozenset[NodeId], ...] | None = None
        for start, epoch_blocks in self.schedule:
            if start > tick:
                break
            blocks = epoch_blocks
        if blocks is None:
            return True
        return any(sender in block and recipient in block for block in blocks)

    def _arrival_for(
        self, sender: NodeId, recipient: NodeId, tick: Round
    ) -> Round | None:
        """Arrival tick for one ``sender -> recipient`` emission at ``tick``.

        Shared by the per-envelope and batch paths — the model consults
        no randomness, so the two trivially agree.
        """
        if self._connected(sender, recipient, tick):
            return tick + 1
        if not self.defer:
            return None
        # Park the envelope until the first tick the endpoints reunite.
        # Connectivity only changes at epoch starts, so the reunion tick
        # (if any) is the first epoch start after the emission whose
        # epoch reconnects the pair — O(schedule), not O(horizon).
        for start, _ in self.schedule:
            if start <= tick:
                continue
            if start > tick + _DEFER_HORIZON:
                break
            if self._connected(sender, recipient, start):
                return start + 1
        return None

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round | None:
        return self._arrival_for(envelope.sender, envelope.recipient, tick)

    def batch_arrivals(
        self, sender: NodeId, recipients: Sequence[NodeId], tick: Round
    ) -> "list[Round | None]":
        """Defer-until-heal as an arrival *rewrite*: reachable recipients
        get ``tick + 1``, cross-block ones the post-reunion tick (or
        ``None`` — a drop — without defer / past the horizon)."""
        return [
            self._arrival_for(sender, recipient, tick)
            for recipient in recipients
        ]


#: Spec-name -> model class, for :func:`make_delivery` / the CLI.
DELIVERY_MODELS: dict[str, type[DeliveryModel]] = {
    SynchronousRounds.name: SynchronousRounds,
    BoundedDelay.name: BoundedDelay,
    AdversarialOrder.name: AdversarialOrder,
    LossyDelivery.name: LossyDelivery,
    PartitionedDelivery.name: PartitionedDelivery,
}


def available_deliveries() -> list[str]:
    """Registered delivery-model spec names, sorted."""
    return sorted(DELIVERY_MODELS)


def _parse_partition_spec(spec: str, arg: str) -> PartitionedDelivery:
    """``partition:0-3|4-6@8`` (optionally ``/defer``) -> model.

    ``BLOCKS@HEAL``: blocks are ``|``-separated node ranges/lists
    (``0-3`` or ``0,2,5``), partitioned from tick 0 and healed (fully
    connected) from tick ``HEAL`` on; append ``/defer`` to park
    cross-block traffic until the heal instead of dropping it.
    """
    defer = False
    if arg.endswith("/defer"):
        defer = True
        arg = arg[: -len("/defer")]
    blocks_part, sep, heal_part = arg.partition("@")
    if not sep or not blocks_part or not heal_part:
        raise ConfigurationError(
            f"partition spec must look like 'partition:0-3|4-6@8', got {spec!r}"
        )
    try:
        heal = int(heal_part)
        blocks = []
        for block_spec in blocks_part.split("|"):
            block: set[NodeId] = set()
            for item in block_spec.split(","):
                low, dash, high = item.partition("-")
                if dash:
                    block.update(range(int(low), int(high) + 1))
                else:
                    block.add(int(item))
            if not block:
                raise ConfigurationError(
                    f"partition block {block_spec!r} names no node in {spec!r}"
                )
            blocks.append(block)
    except ValueError:
        raise ConfigurationError(
            f"partition spec must use integer node ids and heal tick, got {spec!r}"
        ) from None
    if heal < 1:
        raise ConfigurationError(
            f"partition heal tick must be >= 1 (the blocks hold from tick 0), "
            f"got {heal} in {spec!r}"
        )
    return PartitionedDelivery(
        schedule=((0, tuple(blocks)), (heal, None)), defer=defer
    )


def make_delivery(
    spec: "str | DeliveryModel | None",
    rushing: Iterable[NodeId] = (),
) -> DeliveryModel:
    """Build a delivery model from a primitive spec string.

    Specs are what travels through workload parameters and the CLI's
    ``--delivery`` knob (always picklable):

    * ``"sync"`` — :class:`SynchronousRounds`;
    * ``"bounded"`` / ``"bounded:3"`` — :class:`BoundedDelay` with the
      given bound (default 2; ``"bounded:"`` is an error);
    * ``"rush"`` / ``"rush:5,6"`` — :class:`AdversarialOrder`; the
      rushing set comes from the spec suffix when given, else from
      ``rushing`` (conventionally the scenario's faulty set).  A suffix
      naming no node (``"rush:"``, ``"rush:,"``) is an error, not the
      fallback set;
    * ``"loss:0.2"`` / ``"loss:0.2:3"`` — :class:`LossyDelivery` with
      drop probability 0.2 (and optional latency bound 3; bare ``"loss"``
      means ``"loss:0.1"``, ``"loss:"`` is an error);
    * ``"partition:0-3|4-6@8"`` (optionally ``.../defer``) —
      :class:`PartitionedDelivery`: ``|``-separated blocks of node
      ranges, healed from tick 8 on; ``/defer`` parks cross-block
      traffic until the heal instead of dropping it.  A block must name
      a node and the heal tick must be at least 1.

    Node ids a spec names are checked against the run's size when the
    kernel binds the model: a rushing node or block member outside
    ``0..n-1`` is an error naming the spec and ``n``.  A ready
    :class:`DeliveryModel` instance passes through unchanged; ``None``
    means the default synchronous model.

    :raises ConfigurationError: for unknown or malformed specs — the
        error names the valid spec heads.
    """
    if spec is None:
        return SynchronousRounds()
    if isinstance(spec, DeliveryModel):
        return spec
    head, sep, arg = spec.partition(":")
    if head == SynchronousRounds.name:
        if arg:
            raise ConfigurationError(f"sync takes no argument, got {spec!r}")
        return SynchronousRounds()
    if head == BoundedDelay.name:
        try:
            delay = int(arg) if sep else 2
        except ValueError:
            raise ConfigurationError(
                f"bounded delay must be an integer, got {spec!r}"
            ) from None
        return BoundedDelay(delay)
    if head == AdversarialOrder.name:
        if sep:
            try:
                rushing = [int(part) for part in arg.split(",") if part]
            except ValueError:
                raise ConfigurationError(
                    f"rush node list must be integers, got {spec!r}"
                ) from None
            if not rushing:
                raise ConfigurationError(
                    f"rush node list is empty in {spec!r}; write 'rush' to rush "
                    "the faulty set"
                )
        return AdversarialOrder(rushing)
    if head == LossyDelivery.name:
        parts = arg.split(":") if sep else []
        try:
            if len(parts) > 2:
                raise ValueError("extra fields")
            p = float(parts[0]) if parts else 0.1
            delay = int(parts[1]) if len(parts) > 1 else 1
        except ValueError:
            raise ConfigurationError(
                f"loss spec must look like 'loss:0.2' or 'loss:0.2:3', got {spec!r}"
            ) from None
        return LossyDelivery(p, delay=delay)
    if head == PartitionedDelivery.name:
        return _parse_partition_spec(spec, arg)
    raise ConfigurationError(
        f"unknown delivery model {spec!r}; "
        f"available: {', '.join(available_deliveries())}"
    )
