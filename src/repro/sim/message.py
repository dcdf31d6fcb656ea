"""Message envelopes delivered by the synchronous network.

An :class:`Envelope` is the simulator's unit of delivery.  It carries the
unforgeable ``sender`` field — network property N2 ("a receiver of a message
can identify its immediate sender") is realised by the fact that only the
network constructs envelopes, stamping the true origin.

Envelopes are named tuples rather than dataclasses: the runner constructs
one per (sender, recipient, round) and frozen-dataclass construction was a
measurable share of large-sweep wall-clock.  The type is still immutable
and field-addressable; only construction got cheaper.

Succinct payloads
-----------------
Payloads are canonical-encodable wire values by library discipline, with
one sanctioned exception: a payload object exposing ``dense_byte_size()``
(the succinct EIG engine's :class:`~repro.agreement.eigtree.RleReport`) is
a *compressed stand-in* for a dense wire value, and the byte meters charge
it at the dense value's exact size.  :func:`wire_byte_size` implements
that accounting, including compressed payloads nested inside the mux
envelope extension below; :func:`payload_kind` honours the object's
``kind`` tag so per-kind tallies stay engine-independent.

Multiplex envelope extension
----------------------------
:mod:`repro.sim.multiplex` runs K independent protocol instances inside
one run.  Their traffic shares the wire, so each instance's payloads are
wrapped in the *mux extension*: an ordinary encodable tuple
``(MUX_WIRE_TAG, channel, instance, payload)`` built by :func:`mux_wrap`
and parsed by :func:`mux_unwrap`.  The wrapper is part of the payload —
Byzantine nodes can forge or mangle it like any other wire value, and a
wrapper that does not parse is delivered to no instance (dropped by the
demux, exactly like other unintelligible noise).  Per-kind tallies
attribute a well-formed wrapper to its channel, so run-level metrics
breakdowns see ``"akd"`` rather than the transport-level tag.

Under the columnar batch plane (:mod:`repro.sim.batch`) one broadcast
rides a single batch record instead of K envelopes, and the record
holds the *inner* payload only: batch consumers read it straight from
the record (the wrap/unwrap round-trip is elided, which is legal
because :func:`mux_unwrap` of a :func:`mux_wrap` result is the identity
on ``(instance, payload)``), the run metrics charge the channel as the
kind and :func:`mux_header_size` plus the payload's size as the bytes,
and a wrapper is built only for the plain envelopes that recipients
outside the batch plane get — byte accounting, kind tallies and forgery
semantics are unchanged.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from ..crypto import encoding
from ..crypto.encoding import EncodingError, uvarint_size
from ..types import NodeId, Round


class Envelope(NamedTuple):
    """A message in flight: who sent it, to whom, what, and when.

    :ivar sender: true originating node (stamped by the network, N2).
    :ivar recipient: destination node.
    :ivar payload: any wire-encodable value; by convention protocols use
        tuples whose first element is a string kind tag.
    :ivar round_sent: round in which the sender emitted the message; it is
        received at ``round_sent + 1`` (bounded-time delivery, N1).
    """

    sender: NodeId
    recipient: NodeId
    payload: Any
    round_sent: Round


#: Head tag of the mux envelope extension (see module docstring).
MUX_WIRE_TAG = "mux"

_MUX_HEADER = 1 + uvarint_size(4) + encoding.byte_size(MUX_WIRE_TAG)  # 4-tuple + head tag


def mux_wrap(channel: str, instance: int, payload: Any) -> tuple:
    """Wrap one instance's payload in the mux envelope extension.

    The result is a plain encodable tuple, so wrapped traffic obeys every
    wire rule unchanged (canonical encoding, byte accounting, Byzantine
    forgeability).  ``channel`` names the multiplexed protocol family
    (e.g. ``"akd"``), ``instance`` the stream within it.
    """
    return (MUX_WIRE_TAG, channel, instance, payload)


def mux_header_size(channel: str, instance: int) -> int:
    """What :func:`mux_wrap` adds to a payload's wire size: the 4-tuple's
    header, the head tag, ``channel`` and ``instance``.  The batch path
    charges a send as this plus its inner payload's size, without
    building the wrapper."""
    return _MUX_HEADER + encoding.byte_size(channel) + encoding.byte_size(instance)


def mux_unwrap(payload: Any, channel: str) -> tuple[int, Any] | None:
    """Parse a mux extension for ``channel``: ``(instance, inner)`` or None.

    Anything that is not a well-formed wrapper for this channel — wrong
    tag, wrong channel, non-int instance, wrong arity — yields ``None``:
    the demux treats it as noise for no instance, never as a crash.
    """
    if (
        type(payload) is tuple
        and len(payload) == 4
        and payload[0] == MUX_WIRE_TAG
        and payload[1] == channel
        and type(payload[2]) is int
    ):
        return payload[2], payload[3]
    return None


def _is_mux_wrapper(payload: Any) -> bool:
    """Whether ``payload`` is a well-formed mux wrapper, on any channel."""
    return (
        isinstance(payload, tuple) and len(payload) == 4 and isinstance(payload[0], str)
        and payload[0] == MUX_WIRE_TAG and isinstance(payload[1], str) and type(payload[2]) is int
    )


def payload_kind(payload: Any) -> str:
    """Classify a payload for metrics breakdowns.

    Protocol payloads are tuples tagged with a string head (for example
    ``("predicate", ...)`` or ``("chain", ...)``); payload objects may tag
    themselves via a string ``kind`` attribute (the succinct EIG report
    declares the same kind as its dense form, keeping per-kind counts
    engine-independent); anything else is grouped under its type name.
    A well-formed mux wrapper is attributed to its *channel* — per-kind
    tallies describe protocols, not the multiplexing transport.
    """
    if _is_mux_wrapper(payload):
        return payload[1]
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0]
    kind = getattr(payload, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(payload).__name__


def wire_byte_size(payload: Any) -> int:
    """Byte accounting for one payload: canonical-encoding size, with
    compressed stand-ins charged at their dense equivalent.

    The common cases stay on the fast paths: a plain tuple is never a
    compressed stand-in, a compressed payload answers
    ``dense_byte_size()`` directly, a well-formed mux wrapper is its header
    (:func:`mux_header_size`) plus its inner payload, every other payload goes
    through :func:`repro.crypto.encoding.byte_size` unchanged.  Only a
    payload the encoder rejects — a composition wrapper with a compressed
    payload nested inside — takes the structural walk, which prices
    containers by the additive encoding rule (tag + varint length + items).
    """
    if type(payload) is tuple:
        if _is_mux_wrapper(payload):
            return mux_header_size(payload[1], payload[2]) + wire_byte_size(payload[3])
    else:
        dense = getattr(payload, "dense_byte_size", None)
        if dense is not None:
            return dense()
    try:
        return encoding.byte_size(payload)
    except EncodingError:
        return _structural_size(payload)


def _structural_size(value: Any) -> int:
    """Additive size of a container holding compressed payload objects."""
    dense = getattr(value, "dense_byte_size", None)
    if dense is not None:
        return dense()
    if isinstance(value, (tuple, list)):
        return (
            1
            + uvarint_size(len(value))
            + sum(_structural_size(item) for item in value)
        )
    return encoding.byte_size(value)
