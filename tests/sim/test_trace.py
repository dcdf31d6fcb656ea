"""Event tracing: order, transitions, caps, rendering — including the
arrival/drop annotations under combined delivery-model + mux runs."""

from __future__ import annotations

import pytest

from repro.auth import trusted_dealer_setup
from repro.errors import SimulationError
from repro.faults import SilentProtocol
from repro.fd import make_chain_fd_protocols
from repro.sim import (
    BoundedDelay,
    InstanceMux,
    LossyDelivery,
    PartitionedDelivery,
    Protocol,
    Trace,
    run_protocols,
)
from repro.sim.message import Envelope


def chain_run(n=5, t=1, adversaries=None, seed=1):
    keypairs, directories = trusted_dealer_setup(n, seed="trace")
    protocols = make_chain_fd_protocols(
        n, t, "v", keypairs, directories, adversaries=adversaries or {}
    )
    return run_protocols(protocols, seed=seed, record_trace=True)


class TestRecording:
    def test_off_by_default(self):
        keypairs, directories = trusted_dealer_setup(4, seed="trace")
        result = run_protocols(
            make_chain_fd_protocols(4, 1, "v", keypairs, directories)
        )
        assert result.trace is None

    def test_send_events_match_metrics(self):
        result = chain_run()
        sends = result.trace.of_kind("send")
        assert len(sends) == result.metrics.messages_total

    def test_every_decision_traced_once(self):
        result = chain_run(n=5)
        decides = result.trace.of_kind("decide")
        assert len(decides) == 5
        assert {event.node for event in decides} == set(range(5))

    def test_every_halt_traced_once(self):
        result = chain_run(n=5)
        halts = result.trace.of_kind("halt")
        assert len(halts) == 5

    def test_discovery_traced_with_reason(self):
        result = chain_run(adversaries={1: SilentProtocol()})
        discoveries = result.trace.of_kind("discover")
        assert discoveries
        assert all(isinstance(event.detail, str) for event in discoveries)

    def test_events_are_round_ordered(self):
        result = chain_run()
        rounds = [event.round for event in result.trace.events]
        assert rounds == sorted(rounds)


class TestFormatting:
    def test_format_contains_arrows_and_kinds(self):
        result = chain_run()
        text = result.trace.format()
        assert "P0 -> P1" in text
        assert "decides" in text
        assert "halts" in text

    def test_max_lines_truncates_output(self):
        result = chain_run()
        text = result.trace.format(max_lines=2)
        assert "more)" in text
        assert len(text.splitlines()) == 3


class TestCap:
    def test_cap_sets_truncated_flag(self):
        trace = Trace(max_events=2)
        for i in range(5):
            trace.record_halt(0, i % 2)
        assert len(trace.events) == 2
        assert trace.truncated
        assert "truncated" in trace.format()


class _MuxTalker(Protocol):
    """Broadcasts one tagged payload per round inside a mux instance."""

    def __init__(self, rounds=3):
        self._rounds = rounds

    def on_round(self, ctx, inbox):
        if ctx.round < self._rounds:
            ctx.broadcast(("mux-say", ctx.node, ctx.round))
        else:
            ctx.halt()


def mux_run(n=4, delivery=None, seed=3, instances=2):
    protocols = [
        InstanceMux(
            {k: _MuxTalker() for k in range(instances)}, channel="tchan"
        )
        for _ in range(n)
    ]
    return run_protocols(
        protocols, seed=seed, delivery=delivery, record_trace=True
    )


class TestRecordingUnderDeliveryModels:
    """The recording branch under a skewed model *and* an instance mux
    combined — each was only pinned per-model before."""

    def test_bounded_delay_plus_mux_sends_carry_arrival_ticks(self):
        result = mux_run(delivery=BoundedDelay(3))
        sends = result.trace.of_kind("send")
        assert sends
        # Every send is annotated with its arrival tick, within the bound.
        assert all(e.tick is not None for e in sends)
        assert all(e.round + 1 <= e.tick <= e.round + 3 for e in sends)
        # Per-kind attribution still names the mux channel, not the
        # transport tag — the trace and the metrics agree.
        assert all(e.detail[1] == "tchan" for e in sends)
        assert set(result.metrics.messages_per_kind) == {"tchan"}
        assert "@t" in result.trace.format()

    def test_lockstep_mux_sends_carry_no_arrival_ticks(self):
        result = mux_run(delivery=None)
        sends = result.trace.of_kind("send")
        assert sends and all(e.tick is None for e in sends)

    def test_lossy_mux_run_records_drops_with_channel_attribution(self):
        result = mux_run(delivery=LossyDelivery(0.4), seed=5)
        drops = result.trace.of_kind("drop")
        sends = result.trace.of_kind("send")
        assert drops
        assert len(drops) == result.metrics.drops_total
        # A dropped envelope is a drop event instead of a send event.
        assert len(sends) + len(drops) == result.metrics.messages_total
        assert all(e.detail[1] == "tchan" for e in drops)
        assert "DROPPED" in result.trace.format()

    def test_partition_drops_are_traced(self):
        result = mux_run(
            delivery=PartitionedDelivery(((0, ({0, 1}, {2, 3})), (2, None)))
        )
        drops = result.trace.of_kind("drop")
        assert drops
        same_block = {(0, 1), (1, 0), (2, 3), (3, 2)}
        assert all(
            (e.node, e.detail[0]) not in same_block for e in drops
        )


class _WaitsForever(Protocol):
    """Halts only on hearing from node 0 — stuck if the message is lost."""

    def on_round(self, ctx, inbox):
        if ctx.node == 0:
            if ctx.round == 0:
                ctx.broadcast(("go",))
            ctx.halt()
            return
        if any(env.sender == 0 for env in inbox):
            ctx.halt()


class TestHorizonUnderNewModels:
    def test_loss_starved_run_names_stuck_nodes(self):
        """A protocol whose one trigger message the network ate must die
        at the horizon with the stuck nodes named — same diagnostics as
        the lock-step path."""
        with pytest.raises(SimulationError) as err:
            run_protocols(
                [_WaitsForever() for _ in range(3)],
                seed=1,
                max_rounds=6,
                delivery=LossyDelivery(0.999),
            )
        message = str(err.value)
        assert "max_rounds=6" in message
        assert "_WaitsForever" in message
        assert "2 of 3 nodes" in message

    def test_partitioned_run_names_stuck_nodes(self):
        with pytest.raises(SimulationError) as err:
            run_protocols(
                [_WaitsForever() for _ in range(4)],
                seed=1,
                max_rounds=5,
                delivery=PartitionedDelivery(((0, ({0, 1}, {2, 3})),)),
            )
        message = str(err.value)
        assert "max_rounds=5" in message
        # Nodes 2 and 3 never hear from node 0 across the partition.
        assert "2:_WaitsForever" in message and "3:_WaitsForever" in message
