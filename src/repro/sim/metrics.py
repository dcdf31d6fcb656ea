"""Run metrics: message, byte and round accounting.

These counters are the measurement instrument for every experiment in
README's "Experiment index" — the paper's claims are claims about *message counts* and
*round counts*, so the simulator counts them exactly (no sampling).

The unit of charge is the *logical send*: the kernel charges a
``ctx.broadcast`` (plain or columnar, one recipient or ``n - 1``) with
one :meth:`Metrics.record_broadcast`, its drops with one
:meth:`Metrics.record_drops`, and a tick's arrivals with one
:meth:`Metrics.record_deliveries` per emission round — each bumps every
counter of its family by the count at once, O(1) per send.  There is one
body per counter family: the per-envelope spellings (:meth:`Metrics.record`
/ :meth:`~Metrics.record_delivery` / :meth:`~Metrics.record_drop`) are
the count-1 calls of those bodies, kept for callers that hold an
envelope (the reference runner in ``tests/sim``, which charges per copy
so the equivalence tests prove the two agree).

Byte accounting is exact but *lazy*: encoding every payload at send time
dominated sweep wall-clock, so a charge only stashes a ``(round,
payload, count)`` entry and the encode happens on first read of
:attr:`Metrics.bytes_total` / :attr:`Metrics.bytes_per_round`.  Two facts
make this sound:

* payloads are wire values, immutable by library discipline, so encoding
  later yields the same bytes as encoding at send time;
* a payload object relayed in several sends is deduplicated by object
  identity at settle time and encoded once (the references held in the
  deferred list keep ids stable).

Compressed payloads (the succinct EIG engine's run-length reports) are
charged at their *dense equivalent* size via
:func:`repro.sim.message.wire_byte_size`: the byte counters measure the
protocol's information content, not the engine's representation choice,
so they stay bit-for-bit identical across engines (experiment E9 reports
the dense-vs-compressed gap separately).

The trade is time for memory: until the byte counters are read (or the
Metrics object is released with its run result), the deferred list keeps
every payload alive — the same order of retention as view recording,
and freed wholesale with the :class:`~repro.sim.kernel.RunResult`.
Callers that accumulate many run results and want the bytes anyway can
simply read ``bytes_total`` to settle and drop the references early.

Per-instance attribution
------------------------
A run hosting multiplexed protocol instances
(:mod:`repro.sim.multiplex`) carries one run-level ``Metrics`` (this
module, owned by the kernel, charging the mux-wrapped wire payloads).
The instances' own cost is not a ``Metrics``: the mux charges each
instance's inner sends, at send time, to three integers on its outcome
— messages, dense-equivalent bytes and rounds, by the same rules as
:meth:`Metrics.record_broadcast` and its byte settlement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from ..types import NodeId, Round
from .message import Envelope, payload_kind, wire_byte_size


@dataclass
class Metrics:
    """Aggregate counters for one run.

    :ivar messages_total: every envelope handed to the network.
    :ivar rounds_used: number of rounds in which at least one message was
        sent.  This matches the paper's round counting: its key
        distribution protocol "takes 3 rounds" — three communication steps.
    :ivar messages_per_round: round -> messages sent that round.
    :ivar messages_per_sender: node -> messages it sent.
    :ivar messages_per_kind: payload kind tag -> count.

    ``bytes_total`` and ``bytes_per_round`` (canonical-encoding bytes) are
    settled-on-read properties — see the module docstring.
    """

    messages_total: int = 0
    rounds_used: int = 0
    messages_per_round: Counter[Round] = field(default_factory=Counter)
    messages_per_sender: Counter[NodeId] = field(default_factory=Counter)
    messages_per_kind: Counter[str] = field(default_factory=Counter)
    delivered_per_tick: Counter[Round] = field(default_factory=Counter)
    delivery_lag_total: int = 0
    deliveries_total: int = 0
    drops_total: int = 0
    dropped_per_round: Counter[Round] = field(default_factory=Counter)
    dropped_per_sender: Counter[NodeId] = field(default_factory=Counter)
    _settled_bytes: int = 0
    _settled_bytes_per_round: Counter[Round] = field(default_factory=Counter)
    _deferred_payloads: list[tuple[Round, Any, int]] = field(
        default_factory=list, repr=False
    )

    def record(self, envelope: Envelope) -> None:
        """Account one sent envelope: :meth:`record_broadcast`, count 1."""
        self.record_broadcast(
            envelope.sender, envelope.round_sent, envelope.payload, 1
        )

    def record_broadcast(
        self, sender: NodeId, round_sent: Round, payload: Any, count: int
    ) -> None:
        """Account one logical send: ``count`` copies of one payload.

        Every counter moves by ``count`` at once and a single ``(round,
        payload, count)`` entry is deferred for the byte meters (see the
        module docstring) — the totals of ``count`` one-copy charges of
        the same payload object, at O(1).  All per-round counters key on
        ``round_sent``, the emission tick, so they stay exact under
        skewed delivery models, where a copy's *arrival* tick (tracked
        separately by :meth:`record_deliveries`) can trail it.
        """
        self.messages_total += count
        self.messages_per_round[round_sent] += count
        self.messages_per_sender[sender] += count
        self.messages_per_kind[payload_kind(payload)] += count
        self._deferred_payloads.append((round_sent, payload, count))
        if round_sent >= self.rounds_used:
            self.rounds_used = round_sent + 1

    def record_delivery(self, envelope: Envelope, tick: Round) -> None:
        """Account one delivery: :meth:`record_deliveries`, count 1."""
        self.record_deliveries(tick, 1, envelope.round_sent)

    def record_drop(self, envelope: Envelope) -> None:
        """Account one dropped envelope: :meth:`record_drops`, count 1."""
        self.record_drops(envelope.sender, envelope.round_sent, 1)

    def record_deliveries(self, tick: Round, count: int, round_sent: Round) -> None:
        """Account ``count`` deliveries at ``tick`` of copies emitted at
        ``round_sent``, under a non-lock-step model.

        ``delivery lag`` is the arrival's excess over the lock-step bound
        (``tick - round_sent - 1``): positive for late bounded-delay
        arrivals, ``-1`` for a same-tick rushed delivery, and identically
        zero under synchronous rounds — so the kernel skips the call
        entirely on the lock-step fast path and these counters stay at
        their defaults, keeping lock-step metrics bit-for-bit comparable
        with pre-kernel runs.
        """
        self.delivered_per_tick[tick] += count
        self.deliveries_total += count
        self.delivery_lag_total += (tick - round_sent - 1) * count

    def record_drops(self, sender: NodeId, round_sent: Round, count: int) -> None:
        """Account ``count`` copies of one send that the delivery model
        dropped (``arrival_tick`` returned ``None``: lossy links,
        partition boundaries) or the run's end swept undelivered.

        The copies are *also* in the send counters — drops measure how
        much of the sent traffic the network ate, keyed (like every
        per-round counter) on the emission round.  Identically zero under
        reliable models.
        """
        self.drops_total += count
        self.dropped_per_round[round_sent] += count
        self.dropped_per_sender[sender] += count

    @property
    def loss_rate(self) -> float:
        """Fraction of sent envelopes the network dropped (0.0 when no
        message was ever sent)."""
        if not self.messages_total:
            return 0.0
        return self.drops_total / self.messages_total

    @property
    def mean_delivery_lag(self) -> float:
        """Mean excess latency (ticks beyond the lock-step bound) per
        delivered envelope — negative when rushed deliveries dominate;
        0.0 when no deliveries were recorded."""
        if not self.deliveries_total:
            return 0.0
        return self.delivery_lag_total / self.deliveries_total

    def settle(self) -> "Metrics":
        """Force byte settlement now; returns ``self`` for chaining.

        Settling is incremental and idempotent — counters only ever grow
        by the deferred batch, so periodic settles bound deferred-list
        retention without changing any total.  A settled ``Metrics``
        holds no payload references, which also makes it cheaply
        picklable.
        """
        self._settle()
        return self

    def merge(self, other: "Metrics") -> None:
        """Fold another instrument's counts into this one.

        Both sides are settled first, so the merge is pure counter
        addition — commutative and associative, hence deterministic
        regardless of merge order.  Nothing in ``src/`` calls it any
        more (per-instance counts are plain integers, see
        :mod:`repro.sim.multiplex`); the end-to-end benchmark's tracer
        still resolves it by name, so it goes with the next change to
        that benchmark.
        """
        self._settle()
        other._settle()
        self.messages_total += other.messages_total
        self.rounds_used = max(self.rounds_used, other.rounds_used)
        self.messages_per_round.update(other.messages_per_round)
        self.messages_per_sender.update(other.messages_per_sender)
        self.messages_per_kind.update(other.messages_per_kind)
        self.delivered_per_tick.update(other.delivered_per_tick)
        self.delivery_lag_total += other.delivery_lag_total
        self.deliveries_total += other.deliveries_total
        self.drops_total += other.drops_total
        self.dropped_per_round.update(other.dropped_per_round)
        self.dropped_per_sender.update(other.dropped_per_sender)
        self._settled_bytes += other._settled_bytes
        self._settled_bytes_per_round.update(other._settled_bytes_per_round)

    def _settle(self) -> None:
        """Encode all deferred payloads into the byte counters."""
        if not self._deferred_payloads:
            return
        byte_size = wire_byte_size
        sizes_by_id: dict[int, int] = {}
        per_round = self._settled_bytes_per_round
        total = 0
        for round_sent, payload, count in self._deferred_payloads:
            key = id(payload)
            size = sizes_by_id.get(key)
            if size is None:
                size = byte_size(payload)
                sizes_by_id[key] = size
            charge = size * count
            total += charge
            per_round[round_sent] += charge
        self._settled_bytes += total
        self._deferred_payloads.clear()

    @property
    def bytes_total(self) -> int:
        """Canonical-encoding bytes across all envelopes."""
        self._settle()
        return self._settled_bytes

    @property
    def bytes_per_round(self) -> Counter[Round]:
        """round -> bytes sent that round."""
        self._settle()
        return self._settled_bytes_per_round

    def activity_snapshot(self, n: int) -> tuple[tuple[int, int], ...]:
        """Per-node ``(sent, dropped)`` counts as a hashable snapshot.

        The observation surface for adaptive adversary strategies
        (:mod:`repro.faults.adversary`): a pure value derived from the
        run so far, so a strategy keyed on it stays a deterministic
        function of the master seed plus observed events.
        """
        return tuple(
            (self.messages_per_sender[node], self.dropped_per_sender[node])
            for node in range(n)
        )
