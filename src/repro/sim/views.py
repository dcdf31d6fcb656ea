"""Node views, as defined by the paper's model of computation.

    "A view of a node in round i of run r is the sequence of sets of
    messages it has received in each round of the run r up to round i. ...
    If a node's view of a run differs from its views of all failure-free
    runs it discovers a failure."

Protocols in this library perform discovery *operationally* (they check the
concrete expectations that characterise their failure-free views), but the
recorded :class:`View` objects let tests and analyses apply the paper's
semantic definition directly: run the failure-free reference run, compare
views, and confirm the operational checks discover exactly when the
definition says a deviation exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto import encoding
from ..types import NodeId, Round
from .message import Envelope


@dataclass(frozen=True)
class ReceivedMessage:
    """One element of a round's received set: ``(sender, payload)``.

    Payload equality is by canonical encoding so views compare reliably
    even for payloads containing nested structures.  Payload objects that
    are not directly encodable but expose an encodable ``wire_tuple()``
    (the succinct EIG engine's run-length reports) are recorded through
    that form — the stored bytes are then exactly what crossed the
    simulated wire, which is what E9's compression probes measure.
    """

    sender: NodeId
    payload_encoding: bytes

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> "ReceivedMessage":
        payload = envelope.payload
        wire = getattr(payload, "wire_tuple", None)
        if wire is not None:
            payload = wire()
        try:
            raw = encoding.encode(payload)
        except encoding.EncodingError:
            # A wire_tuple payload nested inside a composition wrapper
            # (e.g. ("akd", instance, RleReport)) — unwrap recursively,
            # mirroring repro.sim.message.wire_byte_size.
            raw = encoding.encode(_unwrap_wire_tuples(payload))
        return cls(sender=envelope.sender, payload_encoding=raw)

    def payload(self) -> Any:
        """Decode the payload back to its structured form."""
        return encoding.decode(self.payload_encoding)


def _unwrap_wire_tuples(value: Any) -> Any:
    """Replace nested ``wire_tuple()`` payload objects with their
    encodable tuple forms inside list/tuple containers."""
    wire = getattr(value, "wire_tuple", None)
    if wire is not None:
        return wire()
    if isinstance(value, (list, tuple)):
        return tuple(_unwrap_wire_tuples(item) for item in value)
    return value


@dataclass
class View:
    """The per-round sequence of received message sets of one node."""

    node: NodeId
    rounds: list[frozenset[ReceivedMessage]] = field(default_factory=list)

    def record_round(self, inbox: list[Envelope]) -> None:
        """Append the received set for the next round."""
        self.rounds.append(
            frozenset(ReceivedMessage.from_envelope(env) for env in inbox)
        )

    def differs_from(self, reference: "View") -> Round | None:
        """First round where this view deviates from ``reference``.

        Returns ``None`` when this view is a prefix-compatible match of the
        reference (same sets in every common round and same length) — i.e.
        the node would *not* discover a failure against that reference run.
        """
        common = min(len(self.rounds), len(reference.rounds))
        for index in range(common):
            if self.rounds[index] != reference.rounds[index]:
                return index
        if len(self.rounds) != len(reference.rounds):
            return common
        return None
