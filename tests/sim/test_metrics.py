"""Metrics: one body per counter family.

The kernel charges a logical send once (``record_broadcast``), a tick's
plain arrivals once per emission round (``record_deliveries``) and a
send's drops once (``record_drops``).  The per-envelope methods are the
count-1 calls of those bodies; this property keeps the two spellings
equal on everything a reader can see — including the byte meters, which
must charge a shared payload object ``count × size`` either way.

Bytes are charged at send, so a finished run holds no payload it sent,
and the batch path's wrapper-free charge (mux header plus inner size)
equals the encoded wrapper's size.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreement.eigtree import RleReport
from repro.crypto.encoding import encode, register_codec
from repro.sim import Envelope, InstanceMux, Metrics, Protocol, run_protocols
from repro.sim.message import mux_header_size, mux_wrap, payload_kind, wire_byte_size

N = 6

#: Payload objects shared across sends (drawn by index, so one object can
#: ride several sends, as a relayed payload does): tagged tuples, bare
#: values, a compressed report, and mux wrappers around both kinds.
_REPORT = RleReport(N, 1, 2, 1, ((3, "v"), (1, "w")))
PAYLOADS = (
    ("heartbeat",),
    ("chain", 7, b"\x00" * 40),
    "junk",
    17,
    _REPORT,
    mux_wrap("akd", 3, ("om-value", 0, "v")),
    mux_wrap("akd", 4, _REPORT),
)

nodes = st.integers(0, N - 1)
rounds = st.integers(0, 5)
counts = st.integers(1, N - 1)
charges = st.one_of(
    st.tuples(st.just("send"), nodes, rounds, st.integers(0, len(PAYLOADS) - 1), counts),
    st.tuples(st.just("deliver"), st.integers(0, 8), counts, rounds),
    st.tuples(st.just("drop"), nodes, rounds, counts),
    st.tuples(st.just("settle")),
)


def readings(metrics: Metrics) -> dict:
    """Every public counter, the byte meters included."""
    data = {
        f.name: getattr(metrics, f.name)
        for f in fields(Metrics)
        if not f.name.startswith("_")
    }
    data["activity"] = metrics.activity_snapshot(N)
    return data


@given(ops=st.lists(charges, max_size=30))
@settings(max_examples=60, deadline=None)
def test_bulk_charges_equal_count_times_the_per_envelope_ones(ops):
    bulk, single = Metrics(), Metrics()
    for op in ops:
        if op[0] == "send":
            _, sender, round_sent, index, count = op
            payload = PAYLOADS[index]
            bulk.record_broadcast(sender, round_sent, payload, count)
            for copy in range(count):
                recipient = (sender + 1 + copy) % N
                single.record(Envelope(sender, recipient, payload, round_sent))
        elif op[0] == "deliver":
            _, tick, count, round_sent = op
            bulk.record_deliveries(tick, count, round_sent)
            for _ in range(count):
                single.record_delivery(Envelope(0, 1, "x", round_sent), tick)
        elif op[0] == "drop":
            _, sender, round_sent, count = op
            bulk.record_drops(sender, round_sent, count)
            for _ in range(count):
                single.record_drop(Envelope(sender, (sender + 1) % N, "x", round_sent))
        else:
            bulk.settle()
            single.settle()
    assert readings(bulk) == readings(single)
    assert bulk.loss_rate == single.loss_rate
    assert bulk.mean_delivery_lag == single.mean_delivery_lag


wire_leaves = st.none() | st.booleans() | st.integers() | st.binary(max_size=40) | st.text(max_size=12)
wire_values = st.recursive(
    wire_leaves, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=12
)
channels = st.text(max_size=8)
instances = st.integers(min_value=-(2**40), max_value=2**40)


@given(channels, instances, wire_values)
@settings(max_examples=100, deadline=None)
def test_a_mux_wrapper_is_sized_as_its_encoding(channel, instance, payload):
    """The batch path charges kind ``channel`` and ``mux_header_size +
    wire_byte_size(inner)`` without building the wrapper: the wrapper's
    kind and its encoded size."""
    wrapped = mux_wrap(channel, instance, payload)
    size = len(encode(wrapped))
    assert wire_byte_size(wrapped) == size
    assert mux_header_size(channel, instance) + wire_byte_size(payload) == size
    assert payload_kind(wrapped) == channel


@dataclass(frozen=True)
class _Note:
    """A registered wire value that can be weakly referenced."""

    text: str


register_codec(_Note, "test.metrics.Note", lambda note: note.text, _Note)


class _BroadcastOnce(Protocol):
    """Broadcasts one fresh :class:`_Note` at round 0, keeping only a
    weak reference to it, and halts at round 1."""

    def __init__(self, sent: list) -> None:
        self.sent = sent

    def on_round(self, ctx, inbox) -> None:
        if ctx.round == 0:
            note = _Note(f"from {ctx.node}")
            self.sent.append(weakref.ref(note))
            ctx.broadcast(note)
        else:
            ctx.halt()


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batch"])
def test_a_finished_run_keeps_no_sent_payload_alive(batched):
    """Bytes are charged at send, so neither the run's ``Metrics`` nor a
    batch record holds a payload: every note is collected while the
    ``RunResult`` is still held, and the bytes are still exact."""
    n, sent = 4, []
    protocols = [
        InstanceMux({0: _BroadcastOnce(sent)}, channel="note") if batched
        else _BroadcastOnce(sent)
        for _ in range(n)
    ]
    result = run_protocols(protocols, seed=0)
    gc.collect()
    assert len(sent) == n
    assert [ref() for ref in sent] == [None] * n
    header = mux_header_size("note", 0) if batched else 0
    assert result.metrics.bytes_total == sum(
        (n - 1) * (header + len(encode(_Note(f"from {node}")))) for node in range(n)
    )
