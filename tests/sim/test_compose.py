"""Phase composition: embedded protocols see shifted rounds, effects are
captured, sends pass through."""

from __future__ import annotations

from repro.sim import Envelope, NodeContext, Protocol, run_protocols
from repro.sim.compose import PhaseHost


class Inner(Protocol):
    """Decides at its round 1; sends at its round 0."""

    def __init__(self) -> None:
        self.seen_rounds: list[int] = []
        self.context_reads: tuple | None = None

    def on_round(self, ctx: NodeContext, inbox):
        self.seen_rounds.append(ctx.round)
        if ctx.round == 0:
            self.context_reads = (ctx.n, ctx.rng, ctx.state, ctx.others())
        if ctx.round == 0 and ctx.node == 0:
            for peer in ctx.others():
                ctx.send(peer, ("inner", "hello"))
        if ctx.round >= 1:
            ctx.decide(("inner-decision", ctx.node))
            ctx.discover_failure("inner-reason")
            ctx.halt()


class Outer(Protocol):
    """Hosts Inner starting at outer round 2."""

    def __init__(self) -> None:
        self.host: PhaseHost | None = None
        self.inner = Inner()
        self.ctx: NodeContext | None = None

    def setup(self, ctx):
        self.host = PhaseHost(self.inner, offset=2)
        self.ctx = ctx

    def on_round(self, ctx, inbox):
        if ctx.round >= 2:
            self.host.step(ctx, inbox)
        if self.host.outcome.halted:
            # Outer interprets the captured outcome however it wants.
            ctx.decide(("outer-wrapped", self.host.outcome.decision))
            ctx.halt()


class TestPhaseHost:
    def test_rounds_are_shifted(self):
        protocols = [Outer(), Outer()]
        run_protocols(protocols)
        assert protocols[0].inner.seen_rounds == [0, 1]

    def test_sends_pass_through_and_are_received(self):
        protocols = [Outer(), Outer()]
        result = run_protocols(protocols)
        assert result.metrics.messages_total == 1
        # Sent at outer round 2 (inner round 0).
        assert result.metrics.messages_per_round[2] == 1
        # The lens passes every other member through to the node's context.
        for node, outer in enumerate(protocols):
            n, rng, state, others = outer.inner.context_reads
            assert (n, others) == (2, [1 - node])
            assert rng is outer.ctx.rng
            assert state is outer.ctx.state is result.states[node]

    def test_terminal_effects_are_captured_not_applied(self):
        protocols = [Outer(), Outer()]
        result = run_protocols(protocols)
        # The inner decide/discover landed in the outcome, not directly in
        # node state; the outer protocol re-decided with its own wrapper.
        assert result.states[0].decision == ("outer-wrapped", ("inner-decision", 0))
        assert result.states[0].discovered is None
        assert protocols[0].host.outcome.discovered == "inner-reason"

    def test_step_after_halt_is_noop(self):
        protocols = [Outer(), Outer()]
        run_protocols(protocols)
        host = protocols[0].host
        rounds_before = list(protocols[0].inner.seen_rounds)
        host.step(None, [])  # ctx unused when halted
        assert protocols[0].inner.seen_rounds == rounds_before


class _ImmediateInner(Protocol):
    """Decides and halts in its own round 0 — the earliest possible."""

    def __init__(self):
        self.seen_rounds = []

    def on_round(self, ctx, inbox):
        self.seen_rounds.append(ctx.round)
        ctx.decide(("instant", ctx.round))
        ctx.halt()


class TestRoundOffsetEdges:
    """Window edges: deciding at inner round 0, halting mid-window."""

    def test_inner_decides_in_its_round_zero_at_nonzero_offset(self):
        class Outer(Protocol):
            def __init__(self):
                self.inner = _ImmediateInner()
                self.host = None
                self.decided_at = None

            def setup(self, ctx):
                self.host = PhaseHost(self.inner, offset=3)

            def on_round(self, ctx, inbox):
                if ctx.round >= 3:
                    self.host.step(ctx, inbox)
                if self.host.outcome.halted:
                    self.decided_at = ctx.round
                    ctx.decide(self.host.outcome.decision)
                    ctx.halt()

        protocols = [Outer(), Outer()]
        result = run_protocols(protocols)
        # Inner round 0 fell at outer round 3, and its decision was
        # captured the same outer round it was made.
        assert protocols[0].inner.seen_rounds == [0]
        assert protocols[0].decided_at == 3
        assert result.states[0].decision == ("instant", 0)

    def test_inner_halting_inside_window_freezes_outcome(self):
        """A window longer than the inner protocol: once the inner halts
        mid-window, later steps are no-ops and the captured outcome does
        not drift."""

        class Outer(Protocol):
            def __init__(self):
                self.inner = _ImmediateInner()
                self.host = None
                self.snapshots = []

            def setup(self, ctx):
                self.host = PhaseHost(self.inner, offset=1)

            def on_round(self, ctx, inbox):
                if 1 <= ctx.round <= 4:  # window of 4 outer rounds
                    self.host.step(ctx, inbox)
                    self.snapshots.append(
                        (self.host.outcome.halted, self.host.outcome.decision)
                    )
                if ctx.round >= 4:
                    ctx.halt()

        protocols = [Outer(), Outer()]
        run_protocols(protocols)
        outer = protocols[0]
        assert outer.inner.seen_rounds == [0]  # stepped exactly once
        assert outer.snapshots == [(True, ("instant", 0))] * 4

    def test_kind_filter_hands_inner_only_its_traffic(self):
        class Chatter(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0 and ctx.node == 0:
                    ctx.broadcast(("wanted", 1))
                    ctx.broadcast(("unwanted", 2))
                ctx.halt()

        class Listener(Protocol):
            def __init__(self):
                self.inner_inboxes = []
                self.host = None

            def setup(self, ctx):
                inner = self

                class Inner(Protocol):
                    def on_round(self, ictx, inbox):
                        inner.inner_inboxes.append(
                            [env.payload for env in inbox]
                        )
                        if ictx.round >= 1:
                            ictx.halt()

                self.host = PhaseHost(Inner(), offset=0, kinds=("wanted",))

            def on_round(self, ctx, inbox):
                self.host.step(ctx, inbox)
                if self.host.outcome.halted:
                    ctx.halt()

        protocols = [Chatter(), Listener()]
        run_protocols(protocols)
        assert protocols[1].inner_inboxes == [[], [("wanted", 1)]]
