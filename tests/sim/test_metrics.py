"""Metrics: one body per counter family.

The kernel charges a logical send once (``record_broadcast``), a tick's
plain arrivals once per emission round (``record_deliveries``) and a
send's drops once (``record_drops``).  The per-envelope methods are the
count-1 calls of those bodies; this property keeps the two spellings
equal on everything a reader can see — including the lazy byte meters,
whose identity dedup must charge a shared payload object ``count ×
size`` either way.
"""

from __future__ import annotations

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreement.eigtree import RleReport
from repro.sim import Envelope, Metrics
from repro.sim.message import mux_wrap

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
    """Every public counter plus the settled-on-read byte meters."""
    data = {
        f.name: getattr(metrics, f.name)
        for f in fields(Metrics)
        if not f.name.startswith("_")
    }
    data["bytes_total"] = metrics.bytes_total
    data["bytes_per_round"] = metrics.bytes_per_round
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
