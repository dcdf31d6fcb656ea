"""Structured event traces of a run.

A :class:`Trace` records what happened, in order: every send, every
decision, every discovery, every halt.  Where the :class:`~repro.sim.views.View`
machinery captures what each node *received* (the paper's semantic
object), the trace captures the run as a whole — the thing you read when a
protocol misbehaves, and the thing the examples print to walk a reader
through an execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..types import NodeId, Round
from .message import Envelope, payload_kind


@dataclass(frozen=True)
class TraceEvent:
    """One run event.

    :ivar round: round (kernel tick) in which the event happened.
    :ivar kind: ``"send"``, ``"drop"``, ``"decide"``, ``"discover"`` or
        ``"halt"``.
    :ivar node: the acting node.
    :ivar detail: kind-specific payload: for sends and drops,
        ``(recipient, payload kind tag)``; for decisions, the value; for
        discoveries, the reason; for halts, ``None``.
    :ivar tick: delivery timestamp for sends under a non-lock-step
        :class:`~repro.sim.network.DeliveryModel`: the kernel tick at
        which the envelope *arrives* (``None`` under lock-step delivery,
        where arrival is always ``round + 1`` and needs no annotation).
    """

    round: Round
    kind: str
    node: NodeId
    detail: Any
    tick: Round | None = None

    def format(self) -> str:
        """One human-readable line."""
        if self.kind == "send":
            recipient, tag = self.detail
            stamp = f"  @t{self.tick}" if self.tick is not None else ""
            return f"r{self.round:<3} P{self.node} -> P{recipient}  [{tag}]{stamp}"
        if self.kind == "drop":
            recipient, tag = self.detail
            return (
                f"r{self.round:<3} P{self.node} -> P{recipient}  [{tag}]  DROPPED"
            )
        if self.kind == "decide":
            return f"r{self.round:<3} P{self.node} decides {self.detail!r}"
        if self.kind == "discover":
            return f"r{self.round:<3} P{self.node} DISCOVERS: {self.detail}"
        return f"r{self.round:<3} P{self.node} halts"


class Trace:
    """Append-only event log with a size cap.

    The cap exists because Byzantine scripted behaviours can spray
    unbounded traffic; a capped trace degrades gracefully (the
    :attr:`truncated` flag records that it happened) instead of eating
    memory in long fuzz runs.
    """

    def __init__(self, max_events: int = 100_000) -> None:
        self.events: list[TraceEvent] = []
        self.max_events = max_events
        self.truncated = False

    def _append(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(event)

    def record_send(
        self, envelope: Envelope, arrival_tick: Round | None = None
    ) -> None:
        """Log one outgoing envelope (recipient + payload kind).

        :param arrival_tick: the delivery tick assigned by a non-lock-step
            delivery model; lock-step callers omit it (arrival is always
            the next tick) and the event carries no timestamp annotation.
        """
        self._append(
            TraceEvent(
                round=envelope.round_sent,
                kind="send",
                node=envelope.sender,
                detail=(envelope.recipient, payload_kind(envelope.payload)),
                tick=arrival_tick,
            )
        )

    def record_drop(self, envelope: Envelope) -> None:
        """Log one envelope the delivery model dropped (never delivered).

        Recorded *instead of* the send event — a dropped envelope has no
        arrival tick, and the distinct kind keeps loss visible when
        reading a trace of an unreliable-network run.
        """
        self._append(
            TraceEvent(
                round=envelope.round_sent,
                kind="drop",
                node=envelope.sender,
                detail=(envelope.recipient, payload_kind(envelope.payload)),
            )
        )

    def record_decide(self, round_: Round, node: NodeId, value: Any) -> None:
        """Log a node choosing its decision value."""
        self._append(TraceEvent(round=round_, kind="decide", node=node, detail=value))

    def record_discover(self, round_: Round, node: NodeId, reason: str) -> None:
        """Log a node discovering a failure, with its reason."""
        self._append(
            TraceEvent(round=round_, kind="discover", node=node, detail=reason)
        )

    def record_halt(self, round_: Round, node: NodeId) -> None:
        """Log a node leaving the protocol."""
        self._append(TraceEvent(round=round_, kind="halt", node=node, detail=None))

    # -- queries ----------------------------------------------------------

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def format(self, max_lines: int | None = None) -> str:
        """The whole trace (or its head) as printable lines."""
        lines = [event.format() for event in self.events]
        if max_lines is not None and len(lines) > max_lines:
            lines = lines[:max_lines] + [f"... ({len(self.events) - max_lines} more)"]
        if self.truncated:
            lines.append("... (trace truncated at cap)")
        return "\n".join(lines)
