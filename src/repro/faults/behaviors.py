"""Generic Byzantine behaviours: crash, silence, drop, payload tampering.

The model places no restriction on faulty nodes ("If a node is faulty it
may behave in an arbitrary manner"), but every expressible behaviour still
goes through the simulator's send/receive API — network properties N1/N2
are *network* properties and hold regardless of who is sending.  These
wrappers compose arbitrary misbehaviour out of an honest inner protocol:
suppress some sends, rewrite some payloads, die at a chosen round.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim import Envelope, NodeContext, Protocol
from ..sim.message import mux_wrap, payload_kind, wire_byte_size
from ..types import NodeId, Round

# (round, recipient, payload) -> deliver?  Used by the drop filter.
SendPredicate = Callable[[Round, NodeId, Any], bool]
# (round, recipient, payload) -> replacement payload.
PayloadTransform = Callable[[Round, NodeId, Any], Any]

#: Payload tags that carry an FD protocol's *value* (as opposed to pure
#: liveness traffic).  Duplicated literals rather than imports: the fault
#: layer must not import :mod:`repro.fd` (which imports back into
#: :mod:`repro.faults` for its attack scenarios), so the tags are pinned
#: here and equality with the FD modules' constants is asserted in
#: ``tests/faults/test_loss_exploits.py``.
FD_VALUE_TAGS = ("fd-timeout-value", "fd-adaptive-value")

#: Tag of the adaptive FD's acknowledgement payloads (same duplication
#: rationale as :data:`FD_VALUE_TAGS`).
FD_ACK_TAG = "fd-adaptive-ack"

#: The FD problem's designated sender.
_FD_SENDER: NodeId = 0

#: Marker embedded in an equivocator's garbled twin payloads.
EQUIVOCAL_TWIN = "equivocal-twin"


class SilentProtocol(Protocol):
    """A node that never says anything (crashed before the run).

    Note this is *not* a no-op for the system: peers expecting its
    messages see deviations from failure-free views and discover failures.
    """

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        ctx.halt()


class CrashProtocol(Protocol):
    """Behaves honestly, then crashes (halts silently) at ``crash_round``.

    A crash at round ``r`` means the node performs rounds ``0 .. r-1``
    honestly and sends nothing from round ``r`` on — the cleanest Byzantine
    behaviour, and already enough to exercise missing-message discovery.

    Crash-*recovery*: with ``recover_round`` set, the node does not halt
    but goes dark for ticks ``crash_round .. recover_round-1`` — sending
    nothing, acting on nothing — and resumes the honest inner protocol
    at ``recover_round`` *with its inbox intact*: every envelope that
    arrived during the outage is buffered, in arrival order, and handed
    to the inner protocol ahead of the recovery tick's own arrivals.
    This is the crash-recovery timing model of the weak-delivery
    experiments (E13): a recovering node has missed its chance to *act*
    in the dark ticks but has lost no message delivered to its inbox
    (an :class:`~repro.sim.multiplex.InstanceMux` reads batch groups,
    not its inbox, so it does lose what arrived for it in the dark
    ticks).  Determinism is untouched — the buffer replays the kernel's
    own deterministic arrival sequence.

    :param recover_round: tick at which the node resumes, or ``None``
        (the classic fail-stop crash).
    """

    def __init__(
        self,
        inner: Protocol,
        crash_round: Round,
        recover_round: Round | None = None,
    ) -> None:
        if recover_round is not None and recover_round <= crash_round:
            raise ValueError(
                f"recover_round must come after crash_round, got "
                f"crash@{crash_round} recover@{recover_round}"
            )
        self.inner = inner
        self.crash_round = crash_round
        self.recover_round = recover_round
        self._outage_inbox: list[Envelope] = []

    def setup(self, ctx: NodeContext) -> None:
        self.inner.setup(ctx)

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round >= self.crash_round:
            if self.recover_round is None:
                ctx.halt()
                return
            if ctx.round < self.recover_round:
                # Down but not out: keep the arrivals for the resume.
                self._outage_inbox.extend(inbox)
                return
            if self._outage_inbox:
                inbox = self._outage_inbox + list(inbox)
                self._outage_inbox = []
        self.inner.on_round(ctx, inbox)


class _InterceptingContext:
    """Context proxy that filters/rewrites outgoing messages.

    Delegates everything to the wrapped context except ``send`` (and hence
    ``broadcast``, which it reimplements on top of its own ``send`` so the
    filter sees every individual message).
    """

    def __init__(
        self,
        ctx: NodeContext,
        should_send: SendPredicate | None,
        transform: PayloadTransform | None,
    ) -> None:
        self._ctx = ctx
        self._should_send = should_send
        self._transform = transform

    def __getattr__(self, item: str) -> Any:
        return getattr(self._ctx, item)

    def send(self, to: NodeId, payload: Any) -> None:
        if self._should_send is not None and not self._should_send(
            self._ctx.round, to, payload
        ):
            return
        if self._transform is not None:
            payload = self._transform(self._ctx.round, to, payload)
        self._ctx.send(to, payload)

    def broadcast(self, payload: Any, to: list[NodeId] | None = None) -> None:
        recipients = self._ctx.others() if to is None else to
        for recipient in recipients:
            self.send(recipient, payload)

    def send_batch(
        self,
        channel: str,
        instance: int,
        payload: Any,
        to: list[NodeId] | None = None,
    ) -> tuple[int, int]:
        # A mux under this lens loses the batch fast path by
        # construction: the filter's contract is per-message, so the
        # batch send is re-materialised as this lens's own broadcast of
        # one wrapped payload (shared across recipients).  Without this
        # override the batch record would slip past the filter via
        # ``__getattr__`` and a tampered mux would diverge from the
        # per-envelope reference.
        recipients = self._ctx.others() if to is None else list(to)
        self.broadcast(mux_wrap(channel, instance, payload), recipients)
        return len(recipients), wire_byte_size(payload)


class TamperingProtocol(Protocol):
    """Runs an honest protocol through a message-tampering lens.

    :param inner: the honest behaviour to corrupt.
    :param should_send: per-message drop filter (None = keep all).
    :param transform: per-message payload rewrite (None = unchanged).

    This is the workhorse for targeted attacks: selective withholding
    (drop filter on specific recipients), signature garbling, value
    substitution — each expressed as a small closure in the test or
    scenario that builds it.
    """

    def __init__(
        self,
        inner: Protocol,
        should_send: SendPredicate | None = None,
        transform: PayloadTransform | None = None,
    ) -> None:
        self.inner = inner
        self._should_send = should_send
        self._transform = transform

    def setup(self, ctx: NodeContext) -> None:
        self.inner.setup(ctx)

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        proxy = _InterceptingContext(ctx, self._should_send, self._transform)
        self.inner.on_round(proxy, inbox)  # type: ignore[arg-type]


class ScriptedProtocol(Protocol):
    """Send an explicit script of messages; ignore everything received.

    :param script: round -> list of (recipient, payload) to emit.
    :param halt_after: round after which the node halts.

    Maximal-control behaviour for constructing exact counterexample runs
    (equivocation, fabricated chains, replayed messages).
    """

    def __init__(
        self,
        script: dict[Round, list[tuple[NodeId, Any]]],
        halt_after: Round | None = None,
    ) -> None:
        self._script = {r: list(msgs) for r, msgs in script.items()}
        if halt_after is None:
            halt_after = max(self._script, default=0)
        self._halt_after = halt_after

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for recipient, payload in self._script.get(ctx.round, []):
            ctx.send(recipient, payload)
        if ctx.round >= self._halt_after:
            ctx.halt()


class RushMirrorProtocol(Protocol):
    """Re-emits every observed payload to the other nodes, every round.

    The reference *rushing strategy*: under
    :class:`~repro.sim.network.AdversarialOrder` this node receives the
    honest round-``r`` traffic addressed to it *within* round ``r`` and
    mirrors it onward in the same round — its copies arrive at
    ``r + 1`` alongside (and indistinguishable in timing from) the
    originals, which no lock-step adversary can arrange.  Run under
    lock-step or bounded-delay models the identical behaviour only ever
    mirrors stale traffic, so sweeping the delivery axis with this one
    strategy isolates exactly what *scheduling power* (rather than a
    different attack) changes about agreement and discovery outcomes —
    the comparison experiment E12 tabulates.

    :param halt_after: round after which the node halts.
    :param max_mirrors: cap on mirrored copies per round (keeps the
        traffic amplification bounded; earliest observations win).
    """

    def __init__(self, halt_after: Round, max_mirrors: int = 16) -> None:
        self._halt_after = halt_after
        self._max_mirrors = max_mirrors

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        mirrored = 0
        for env in inbox:
            for recipient in ctx.others():
                if recipient == env.sender:
                    continue
                if mirrored >= self._max_mirrors:
                    break
                ctx.send(recipient, env.payload)
                mirrored += 1
        if ctx.round >= self._halt_after:
            ctx.halt()


class RandomNoiseProtocol(Protocol):
    """Sends random payloads from a pool to random peers, every round.

    All randomness is drawn from ``ctx.rng`` — the node's stream in a
    plain run, the *instance's* namespaced stream when hosted in an
    :class:`~repro.sim.multiplex.InstanceMux`.  The latter is what makes
    this the reference Byzantine behaviour for mux equivalence tests: an
    instance's noise is a pure function of ``(master seed, node,
    instance)``, so it replays identically whichever other instances
    share the run.

    :param pool: payload candidates (drawn uniformly, with replacement).
    :param halt_after: round after which the node halts.
    :param max_sends: upper bound on messages per round (at least one
        draw is made per round; a draw of zero recipients sends nothing).
    """

    def __init__(
        self, pool: tuple[Any, ...], halt_after: Round, max_sends: int = 3
    ) -> None:
        if not pool:
            raise ValueError("noise pool must not be empty")
        self._pool = tuple(pool)
        self._halt_after = halt_after
        self._max_sends = max_sends

    supports_batch_inbox = True

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        rng = ctx.rng
        others = ctx.others()
        for _ in range(rng.randrange(self._max_sends + 1)):
            recipient = rng.choice(others)
            payload = self._pool[rng.randrange(len(self._pool))]
            ctx.send(recipient, payload)
        if ctx.round >= self._halt_after:
            ctx.halt()

    def on_round_batch(self, ctx: NodeContext, batch) -> None:
        """Inbox-oblivious, so the columnar form costs nothing: never
        materialise envelopes this behaviour would not read."""
        self.on_round(ctx, [])


class AckLieProtocol(Protocol):
    """Selective-acknowledgement lies against FD retransmission.

    The loss-exploiting attack of experiment E14, in both placements:

    * **on the designated sender** — from ``from_tick`` on, every
      outgoing *value-bearing* payload (:data:`FD_VALUE_TAGS`) is
      suppressed while liveness traffic (heartbeats) still flows: the
      sender looks alive, so the static FD's receivers wait out their
      whole horizon before discovering, and retransmissions silently
      stop carrying the value;
    * **on a receiver** — on first contact from the sender it emits a
      *forged acknowledgement* (:data:`FD_ACK_TAG`) without having
      received any value: an ack-driven retransmitter (the adaptive FD)
      then strikes this node off its retry list, so lost value copies
      towards it are never resent — ack-then-drop.

    Everything else delegates to the honest inner protocol, so the
    corrupt node's timing footprint stays indistinguishable from an
    honest one's.

    :param inner: the honest behaviour to corrupt.
    :param from_tick: first tick the lies apply (default 0 = always).
    """

    def __init__(self, inner: Protocol, from_tick: Round = 0) -> None:
        self.inner = inner
        self.from_tick = from_tick
        self._lied = False

    def setup(self, ctx: NodeContext) -> None:
        self.inner.setup(ctx)

    def _should_send(self, round_: Round, to: NodeId, payload: Any) -> bool:
        if round_ < self.from_tick:
            return True
        return payload_kind(payload) not in FD_VALUE_TAGS

    def _forge_ack(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if (
            self._lied
            or ctx.node == _FD_SENDER
            or ctx.round < self.from_tick
            or not any(env.sender == _FD_SENDER for env in inbox)
        ):
            return
        ctx.send(_FD_SENDER, (FD_ACK_TAG, int(ctx.node)))
        self._lied = True

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self._forge_ack(ctx, inbox)
        proxy = _InterceptingContext(ctx, self._should_send, None)
        self.inner.on_round(proxy, inbox)  # type: ignore[arg-type]


class EquivocatingProtocol(Protocol):
    """Partition-straddling equivocation: two stories, one per side.

    From ``from_tick`` on, payloads to the *lower* half of the id space
    (``node < n // 2``) pass through genuine while payloads to the upper
    half are replaced by recognisably-garbled twins — same leading tag,
    body stamped :data:`EQUIVOCAL_TWIN`.  Under a
    :class:`~repro.sim.network.PartitionedDelivery` split along the same
    boundary, each side sees a *consistent* story for as long as the
    partition holds; whether the heal exposes the equivocation (garbled
    twins finally crossing, failing signature checks) or hides it (run
    ends first, deferred twins swept as drops) is exactly what the
    ``e14-equivocation`` workload measures.

    :param inner: the honest behaviour to corrupt.
    :param from_tick: first tick the equivocation applies (default 0).
    """

    def __init__(self, inner: Protocol, from_tick: Round = 0) -> None:
        self.inner = inner
        self.from_tick = from_tick

    def setup(self, ctx: NodeContext) -> None:
        self.inner.setup(ctx)

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        split = ctx.n // 2
        node = int(ctx.node)
        from_tick = self.from_tick

        def transform(round_: Round, to: NodeId, payload: Any) -> Any:
            if round_ < from_tick or to < split:
                return payload
            if isinstance(payload, tuple) and payload:
                return (payload[0], EQUIVOCAL_TWIN, node, int(round_))
            return (EQUIVOCAL_TWIN, node, int(round_))

        proxy = _InterceptingContext(ctx, None, transform)
        self.inner.on_round(proxy, inbox)  # type: ignore[arg-type]
