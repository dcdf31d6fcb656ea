"""Simulator semantics: N1/N2, round lock-step, determinism, termination."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolViolationError, SimulationError
from repro.sim import Envelope, EventKernel, NodeContext, Protocol, run_protocols


class Halter(Protocol):
    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        ctx.halt()


class PingOnce(Protocol):
    """Send one message to a fixed peer in round 0, record what arrives."""

    def __init__(self, peer: int | None = None) -> None:
        self.peer = peer
        self.received: list[tuple[int, object, int]] = []

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for env in inbox:
            self.received.append((env.sender, env.payload, ctx.round))
        if ctx.round == 0 and self.peer is not None:
            ctx.send(self.peer, ("ping", ctx.node))
        if ctx.round >= 1:
            ctx.halt()


class TestDeliverySemantics:
    def test_message_arrives_next_round_exactly_once(self):
        a, b = PingOnce(peer=1), PingOnce()
        run_protocols([a, b])
        assert b.received == [(0, ("ping", 0), 1)]

    def test_sender_identification_is_truthful(self):
        """N2: the envelope's sender is stamped by the network."""
        a, b, c = PingOnce(peer=2), PingOnce(peer=2), PingOnce()
        run_protocols([a, b, c])
        senders = sorted(sender for sender, _, _ in c.received)
        assert senders == [0, 1]

    def test_inbox_sorted_by_sender(self):
        receivers: list[list[int]] = []

        class Recorder(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0 and ctx.node != 3:
                    ctx.send(3, "m")
                if ctx.round == 1 and ctx.node == 3:
                    receivers.append([env.sender for env in inbox])
                if ctx.round >= 1:
                    ctx.halt()

        run_protocols([Recorder() for _ in range(4)])
        assert receivers == [[0, 1, 2]]

    def test_no_message_loss_or_duplication(self):
        """N1: every sent message is delivered exactly once."""

        class Spammer(Protocol):
            def __init__(self):
                self.got = 0

            def on_round(self, ctx, inbox):
                self.got += len(inbox)
                if ctx.round < 3:
                    ctx.broadcast(("r", ctx.round))
                else:
                    ctx.halt()

        protocols = [Spammer() for _ in range(4)]
        result = run_protocols(protocols)
        # 3 rounds of 4 nodes broadcasting to 3 peers each.
        assert result.metrics.messages_total == 3 * 4 * 3
        assert sum(p.got for p in protocols) == 3 * 4 * 3

    def test_broadcast_excludes_self(self):
        class B(Protocol):
            def __init__(self):
                self.got_own = False

            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.broadcast("x")
                self.got_own |= any(env.sender == ctx.node for env in inbox)
                if ctx.round >= 1:
                    ctx.halt()

        protocols = [B() for _ in range(3)]
        run_protocols(protocols)
        assert not any(p.got_own for p in protocols)


class TestContracts:
    def test_self_send_rejected(self):
        class SelfSender(Protocol):
            def on_round(self, ctx, inbox):
                ctx.send(ctx.node, "oops")

        with pytest.raises(ProtocolViolationError):
            run_protocols([SelfSender(), Halter()])

    def test_out_of_range_recipient_rejected(self):
        class Wild(Protocol):
            def on_round(self, ctx, inbox):
                ctx.send(99, "oops")

        with pytest.raises(ProtocolViolationError):
            run_protocols([Wild(), Halter()])

    def test_send_after_halt_rejected(self):
        class Zombie(Protocol):
            def on_round(self, ctx, inbox):
                ctx.halt()
                ctx.send(1, "from the grave")

        with pytest.raises(ProtocolViolationError):
            run_protocols([Zombie(), Halter()])

    def test_nonhalting_protocol_trips_horizon(self):
        class Forever(Protocol):
            def on_round(self, ctx, inbox):
                pass

        with pytest.raises(SimulationError):
            run_protocols([Forever(), Halter()], max_rounds=10)

    def test_single_node_network_rejected(self):
        with pytest.raises(ConfigurationError):
            run_protocols([Halter()])

    def test_bad_max_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            EventKernel([Halter(), Halter()], max_rounds=0)


class TestDeterminism:
    def test_same_seed_same_rng_streams(self):
        draws: dict[int, list[int]] = {}

        class Draws(Protocol):
            def on_round(self, ctx, inbox):
                draws.setdefault(ctx.node, []).append(ctx.rng.getrandbits(32))
                if ctx.round >= 2:
                    ctx.halt()

        run_protocols([Draws(), Draws()], seed=77)
        first = {k: list(v) for k, v in draws.items()}
        draws.clear()
        run_protocols([Draws(), Draws()], seed=77)
        assert draws == first

    def test_nodes_have_independent_streams(self):
        from repro.sim import node_rng

        assert node_rng(1, 0).getrandbits(64) != node_rng(1, 1).getrandbits(64)
        assert node_rng(1, 0, "a").getrandbits(64) != node_rng(1, 0, "b").getrandbits(64)

    def test_seed_changes_streams(self):
        from repro.sim import node_rng

        assert node_rng(1, 0).getrandbits(64) != node_rng(2, 0).getrandbits(64)


class TestMetrics:
    def test_round_accounting_matches_sends(self):
        class TwoRounds(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.send((ctx.node + 1) % ctx.n, "a")
                elif ctx.round == 1:
                    ctx.send((ctx.node + 1) % ctx.n, "bb")
                else:
                    ctx.halt()

        result = run_protocols([TwoRounds() for _ in range(3)])
        metrics = result.metrics
        assert metrics.messages_total == 6
        assert metrics.rounds_used == 2
        assert metrics.messages_per_round[0] == 3
        assert metrics.messages_per_round[1] == 3
        assert metrics.messages_per_sender[0] == 2
        assert metrics.bytes_total > 0

    def test_payload_kind_breakdown(self):
        class Kinds(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0 and ctx.node == 0:
                    ctx.send(1, ("alpha", 1))
                    ctx.send(1, ("beta", 2))
                    ctx.send(1, 42)
                if ctx.round >= 1:
                    ctx.halt()

        result = run_protocols([Kinds(), Kinds()])
        kinds = result.metrics.messages_per_kind
        assert kinds["alpha"] == 1
        assert kinds["beta"] == 1
        assert kinds["int"] == 1


class TestRunResult:
    def test_decisions_and_discoverers(self):
        class Decider(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.node == 0:
                    ctx.decide("yes")
                else:
                    ctx.discover_failure("saw something")
                ctx.halt()

        result = run_protocols([Decider(), Decider()])
        assert result.decisions() == {0: "yes"}
        assert result.discoverers() == [1]

    def test_first_discovery_reason_wins(self):
        class Doubter(Protocol):
            def on_round(self, ctx, inbox):
                ctx.discover_failure("first")
                ctx.discover_failure("second")
                ctx.halt()

        result = run_protocols([Doubter(), Doubter()])
        assert all(state.discovered == "first" for state in result.states)

    def test_outputs_collection(self):
        class Producer(Protocol):
            def on_round(self, ctx, inbox):
                ctx.state.outputs["thing"] = ctx.node * 10
                ctx.halt()

        result = run_protocols([Producer(), Producer()])
        assert {s.node: s.outputs["thing"] for s in result.states} == {0: 0, 1: 10}
