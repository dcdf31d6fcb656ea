"""Instance multiplexing: wire tags, demux, per-instance rng and metrics."""

from __future__ import annotations

import pickle
import weakref

import pytest

from repro.agreement.oral import OralAgreementProtocol
from repro.analysis.complexity import om_envelopes
from repro.auth.agreement_based import (
    AgreementKeyDistributionProtocol,
    run_agreement_key_distribution,
)
from repro.faults import RandomNoiseProtocol, make_adversary
from repro.sim import (
    MUX_OUTCOMES,
    Envelope,
    EventKernel,
    InstanceMux,
    NodeContext,
    Protocol,
    collect_instances,
    instance_rng,
    mux_unwrap,
    mux_wrap,
    payload_kind,
    capture_kernel,
    make_delivery,
    restore_kernel,
    run_protocols,
)
from repro.sim import multiplex
from repro.sim.compose import PhaseHost, PhaseOutcome
from repro.sim.message import wire_byte_size

from ._reference_mux import ReferenceMux
from .test_batch import observables, om_mux_protocols


class TestWireExtension:
    def test_wrap_unwrap_round_trip(self):
        wrapped = mux_wrap("akd", 3, ("om-value", "v"))
        assert mux_unwrap(wrapped, "akd") == (3, ("om-value", "v"))

    @pytest.mark.parametrize(
        "noise",
        [
            ("mux", "akd", 3),                    # wrong arity
            ("mux", "other", 3, "payload"),       # wrong channel
            ("mux", "akd", "3", "payload"),       # non-int instance
            ("akd", 3, "payload"),                # the old raw-tuple hack
            "garbage",
            b"raw",
            42,
        ],
    )
    def test_malformed_wrappers_parse_to_none(self, noise):
        assert mux_unwrap(noise, "akd") is None

    def test_payload_kind_attributes_to_channel(self):
        assert payload_kind(mux_wrap("akd", 0, ("om-value", "v"))) == "akd"

    def test_payload_kind_of_malformed_wrapper_is_the_raw_tag(self):
        assert payload_kind(("mux", 1, 2)) == "mux"


class _Echo(Protocol):
    """Round 0: node 0 broadcasts; round 1: everyone decides on receipt."""

    def on_round(self, ctx, inbox):
        if ctx.round == 0 and ctx.node == 0:
            ctx.broadcast(("echo", "hello"))
        if ctx.round >= 1:
            values = [env.payload for env in inbox]
            ctx.decide((ctx.node, values))
            ctx.halt()


class TestInstanceMux:
    def _run(self, n=3, ids=(0, 1, 4)):
        protocols = [
            InstanceMux({k: _Echo() for k in ids}, channel="test")
            for _ in range(n)
        ]
        return run_protocols(protocols, seed=7), protocols

    def test_streams_are_isolated_and_demuxed(self):
        run, protocols = self._run()
        for mux in protocols:
            for k, outcome in mux.outcomes.items():
                assert outcome.halted and outcome.decided
        # Each instance's receivers saw exactly their own instance's
        # traffic, unwrapped.
        _, values = protocols[1].outcomes[4].decision
        assert values == [("echo", "hello")]

    def test_outputs_published_and_node_halts(self):
        run, _ = self._run()
        for state in run.states:
            assert state.halted
            assert sorted(state.outputs[MUX_OUTCOMES]) == [0, 1, 4]

    def test_per_instance_metrics_count_inner_envelopes(self):
        run, protocols = self._run()
        outcome = protocols[0].outcomes[1]
        assert outcome.messages == 2      # node 0 -> 2 peers
        assert outcome.bytes == 2 * wire_byte_size(("echo", "hello"))
        assert outcome.rounds == 1
        # Run-level accounting sees the wrapped traffic, attributed to
        # the channel, and counts every instance.
        assert run.metrics.messages_total == 6
        assert run.metrics.messages_per_kind == {"test": 6}

    def test_wrapper_overhead_is_charged_at_run_level_only(self):
        run, protocols = self._run()
        inner_bytes = sum(
            mux.outcomes[k].bytes
            for mux in protocols
            for k in mux.outcomes
        )
        assert run.metrics.bytes_total > inner_bytes

    def test_instance_context_passes_node_view_through(self):
        """An instance reads the node's ``n``, ``state`` and (through the
        fallback attribute lookup) ``seed``; its discoveries land in its
        outcome, first reason first, and never in the node state."""

        class Reader(Protocol):
            def on_round(self, ctx, inbox):
                ctx.decide((ctx.n, ctx.seed, ctx.state.node))
                ctx.discover_failure("a")
                ctx.discover_failure("b")
                ctx.halt()

        def run(mux):
            protocols = [mux({k: Reader() for k in (0, 2)}, channel="test") for _ in range(3)]
            return run_protocols(protocols, seed=11)

        plane = run(InstanceMux)
        aggregates = collect_instances(plane)
        assert sorted(aggregates) == [0, 2]
        for aggregate in aggregates.values():
            assert aggregate.discovered == {node: "a" for node in range(3)}
            assert aggregate.decisions == {node: (3, 11, node) for node in range(3)}
        assert [state.discovered for state in plane.states] == [None] * 3
        assert aggregates == collect_instances(run(ReferenceMux))

    def test_instance_halting_in_setup_does_not_wedge_the_mux(self):
        """Regression: an instance that halts during its setup (a
        config-validating or crashed-from-start behaviour) used to leave
        the live count permanently positive, so the mux never halted and
        the run hit the scheduler horizon."""

        class HaltsInSetup(Protocol):
            def setup(self, ctx):
                ctx.halt()

            def on_round(self, ctx, inbox):  # pragma: no cover
                raise AssertionError("stepped a setup-halted instance")

        protocols = [
            InstanceMux({0: HaltsInSetup(), 1: _Echo()}, channel="test")
            for _ in range(2)
        ]
        run = run_protocols(protocols, seed=1)
        for state in run.states:
            assert state.halted
            assert sorted(state.outputs[MUX_OUTCOMES]) == [0, 1]
        assert protocols[0].outcomes[0].halted
        assert protocols[0].outcomes[1].decided

    def test_all_instances_halting_in_setup(self):
        class HaltsInSetup(Protocol):
            def setup(self, ctx):
                ctx.halt()

            def on_round(self, ctx, inbox):  # pragma: no cover
                raise AssertionError("stepped a setup-halted instance")

        protocols = [InstanceMux({0: HaltsInSetup()}) for _ in range(2)]
        run = run_protocols(protocols, seed=1)
        assert run.rounds_executed == 1
        assert all(state.halted for state in run.states)

    def test_foreign_and_malformed_traffic_reaches_no_instance(self):
        class Noisy(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.broadcast(("mux", "test", 99, "foreign-instance"))
                    ctx.broadcast(("not-mux", "junk"))
                ctx.halt()

        protocols = [
            Noisy(),
            InstanceMux({0: _Echo()}, channel="test"),
        ]
        run = run_protocols(protocols, seed=1)
        _, values = protocols[1].outcomes[0].decision
        assert values == []  # nothing parsed into instance 0


class TestRecordingUnderMux:
    """The recording branch of the run loop under multiplexed hosts —
    previously only exercised single-instance (and now also living in
    the event kernel rather than the old runner)."""

    def _run(self, **kwargs):
        protocols = [
            InstanceMux({k: _Echo() for k in (0, 1, 4)}, channel="test")
            for _ in range(3)
        ]
        return run_protocols(protocols, seed=7, **kwargs)

    def test_record_trace_sees_wrapped_sends_and_halts(self):
        run = self._run(record_trace=True)
        sends = run.trace.of_kind("send")
        assert len(sends) == run.metrics.messages_total == 6
        # Per-kind attribution in the trace matches the metrics: the
        # channel, not the transport tag.
        assert {tag for _, tag in (e.detail for e in sends)} == {"test"}
        halts = run.trace.of_kind("halt")
        assert {e.node for e in halts} == {0, 1, 2}
        # Instance decisions are captured in outcomes, never in the node
        # state — so the trace must show no decide transitions.
        assert run.trace.of_kind("decide") == []

    def test_record_views_captures_wrapped_rounds(self):
        run = self._run(record_views=True)
        assert len(run.views) == 3
        for view in run.views:
            assert len(view.rounds) == run.rounds_executed
        # Round 1: node 1 received node 0's broadcast on every instance.
        round1 = run.views[1].rounds[1]
        assert len(round1) == 3
        assert {msg.sender for msg in round1} == {0}

    def test_recording_changes_no_outcome(self):
        plain = self._run()
        recorded = self._run(record_views=True, record_trace=True)
        assert plain.rounds_executed == recorded.rounds_executed
        assert plain.metrics.messages_total == recorded.metrics.messages_total
        assert plain.metrics.bytes_total == recorded.metrics.bytes_total
        assert collect_instances(plain) == collect_instances(recorded)


class TestMuxOnKernelDeliveryModels:
    """InstanceMux is delivery-model agnostic: it runs on the kernel's
    general event path unchanged (the mux demultiplexes whatever arrives
    at each activation)."""

    def test_mux_completes_under_bounded_delay(self):
        from repro.sim import BoundedDelay

        protocols = [
            InstanceMux({k: _Echo() for k in (0, 1)}, channel="test")
            for _ in range(3)
        ]
        run = run_protocols(protocols, seed=7, delivery=BoundedDelay(1))
        aggregates = collect_instances(run)
        baseline = collect_instances(
            run_protocols(
                [
                    InstanceMux({k: _Echo() for k in (0, 1)}, channel="test")
                    for _ in range(3)
                ],
                seed=7,
            )
        )
        assert aggregates == baseline


class TestInstanceRngNamespacing:
    def test_streams_distinct_across_instances(self):
        a = instance_rng(0, 1, 0)
        b = instance_rng(0, 1, 1)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_streams_distinct_from_node_stream(self):
        from repro.sim import node_rng

        assert instance_rng(0, 1, 0).random() != node_rng(0, 1).random()

    def test_two_byzantine_instances_draw_distinct_streams(self):
        """Regression: all instances at one node used to share the node's
        one rng stream, so co-located Byzantine behaviours were clones."""
        pool = (("noise", "a"), ("noise", "b"), ("noise", "c"))
        mux = InstanceMux(
            {0: RandomNoiseProtocol(pool, halt_after=4, max_sends=3),
             1: RandomNoiseProtocol(pool, halt_after=4, max_sends=3)},
            channel="test",
        )
        peers = [
            InstanceMux({0: _Collector(), 1: _Collector()}, channel="test")
            for _ in range(3)
        ]
        run = run_protocols([mux] + peers, seed=42)
        sent = {0: [], 1: []}
        for state in run.states[1:]:
            for k, outcome in state.outputs[MUX_OUTCOMES].items():
                sent[k].extend(outcome.decision)
        # Both instances were noisy, and their draws differ.
        assert sent[0] and sent[1]
        assert sent[0] != sent[1]

    def test_instance_stream_independent_of_corun_instances(self):
        """Instance independence, at rng level: instance 0's draws do
        not depend on instance 1 existing."""
        pool = (("noise", "x"), ("noise", "y"))

        def noise_sent(ids):
            mux = InstanceMux(
                {k: RandomNoiseProtocol(pool, halt_after=3) for k in ids},
                channel="c",
            )
            peers = [
                InstanceMux({k: _Collector() for k in ids}, channel="c")
                for _ in range(2)
            ]
            run = run_protocols([mux] + peers, seed=5)
            out = []
            for state in run.states[1:]:
                outcome = state.outputs[MUX_OUTCOMES][0]
                out.append(outcome.decision)
            return out

        assert noise_sent((0,)) == noise_sent((0, 1))

    @pytest.fixture
    def stream_builds(self, monkeypatch):
        """Every ``instance_rng`` call the mux makes, as (args, purpose)."""
        built = []
        real = multiplex.instance_rng

        def counting(*args, purpose=""):
            built.append((args, purpose))
            return real(*args, purpose=purpose)

        monkeypatch.setattr(multiplex, "instance_rng", counting)
        return built

    def test_honest_runs_build_no_instance_stream(self, stream_builds):
        """No honest OM(t) instance reads ``ctx.rng``, so no stream is
        built; a noise adversary's instances build theirs, once each."""
        run_protocols(om_mux_protocols(7, 2), seed=11)
        run_agreement_key_distribution(7, 2, seed=1)
        assert stream_builds == []
        run_agreement_key_distribution(7, 2, seed=1, adversary="3=noise")
        assert stream_builds == [((1, 3, k), "akd") for k in range(7)]

    @pytest.mark.parametrize("delivery", [None, "loss:0.2:2"])
    def test_streams_built_on_first_read_draw_what_eager_ones_draw(
        self, monkeypatch, delivery
    ):
        """AKD with two noise nodes: a run whose every slot builds its
        stream at setup (the eager shape) is the same run."""

        def akd():
            return run_agreement_key_distribution(
                7, 2, seed=4, adversary="1=noise;5=noise", delivery=delivery
            )

        lazy = akd()
        lazy_init = multiplex._MuxSlot.__init__

        def eager_init(slot, protocol, outcome, identity):
            lazy_init(slot, protocol, outcome, identity)
            seed, node, channel = identity
            slot.rng = instance_rng(seed, node, outcome.instance, purpose=channel)

        monkeypatch.setattr(multiplex._MuxSlot, "__init__", eager_init)
        eager = akd()
        assert lazy.per_instance == eager.per_instance
        assert observables(lazy.run) == observables(eager.run)
        assert lazy.run.metrics.messages_per_sender[1] > 0  # the noise was sent


class _Collector(Protocol):
    """Accumulates every received payload; decides the list at round 4."""

    def __init__(self):
        self.received = []

    def on_round(self, ctx, inbox):
        self.received.extend(env.payload for env in inbox)
        if ctx.round >= 4:
            ctx.decide(tuple(self.received))
            ctx.halt()


class _Late(Protocol):
    """Decides in its round 0 — exercises PhaseHost round-offset edges."""

    def __init__(self):
        self.seen = []

    def on_round(self, ctx, inbox):
        self.seen.append(ctx.round)
        ctx.decide(("late", ctx.node))
        ctx.halt()


class _HostedInstance(Protocol):
    """An instance that embeds a sub-protocol through PhaseHost at
    offset 1 — PhaseHost *inside* InstanceMux."""

    def __init__(self):
        self.inner = _Late()
        self.host = None

    def setup(self, ctx):
        self.host = PhaseHost(self.inner, offset=1)

    def on_round(self, ctx, inbox):
        if ctx.round >= 1:
            self.host.step(ctx, inbox)
        if self.host.outcome.halted:
            ctx.decide(("wrapped", self.host.outcome.decision))
            ctx.halt()


class TestNestedHosts:
    def test_phasehost_inside_instancemux(self):
        # The mux lets go of an instance once it halts; keep our own
        # reference to read what its inner protocol saw.
        hosted = _HostedInstance()
        protocols = [
            InstanceMux({0: _HostedInstance(), 2: hosted}, channel="nest"),
            InstanceMux({0: _HostedInstance(), 2: _HostedInstance()}, channel="nest"),
        ]
        run = run_protocols(protocols, seed=3)
        # The inner protocol saw its own shifted round 0, inside the mux.
        for node, mux in enumerate(protocols):
            for k, outcome in mux.outcomes.items():
                assert outcome.decision == ("wrapped", ("late", node))
        assert hosted.inner.seen == [0]
        assert run.states[0].halted

    def test_instancemux_inside_phasehost(self):
        """A mux embedded as a phase at offset 0."""

        class Outer(Protocol):
            def __init__(self):
                self.mux = InstanceMux({0: _Echo()}, channel="deep")
                self.host = None

            def setup(self, ctx):
                self.host = PhaseHost(self.mux, offset=0)

            def on_round(self, ctx, inbox):
                self.host.step(ctx, inbox)
                if self.host.outcome.halted:
                    ctx.decide(self.mux.outcomes[0].decision)
                    ctx.halt()

        protocols = [Outer(), Outer()]
        run = run_protocols(protocols, seed=2)
        assert run.states[1].decision == (1, [("echo", "hello")])

    def test_akd_instances_get_one_lens_over_the_node_context(self, monkeypatch):
        # Key distribution drives its mux directly: an OM instance's
        # context wraps the node's own context, with no phase lens between.
        seen = []
        setup = OralAgreementProtocol.setup

        def recording_setup(protocol, ctx):
            seen.append(ctx)
            setup(protocol, ctx)

        monkeypatch.setattr(OralAgreementProtocol, "setup", recording_setup)
        run_agreement_key_distribution(4, 1, seed=1)
        assert len(seen) == 16
        assert {type(ctx) for ctx in seen} == {multiplex._MuxInstanceContext}
        assert {type(ctx._ctx) for ctx in seen} == {NodeContext}


class TestAggregation:
    def test_collect_instances_matches_formula(self):
        n, t = 7, 2
        protocols = [
            InstanceMux(
                {
                    k: OralAgreementProtocol(
                        n, t, value="v" if k == node else None,
                        default=None, sender=k,
                    )
                    for k in range(n)
                },
                channel="om",
            )
            for node in range(n)
        ]
        run = run_protocols(protocols, seed=11)
        aggregates = collect_instances(run)
        assert sorted(aggregates) == list(range(n))
        for k, agg in aggregates.items():
            assert agg.messages == om_envelopes(n, t)
            assert agg.rounds == t + 1
            non_senders = {node for node in range(n) if node != k}
            assert set(agg.decisions) == set(range(n))
            assert {repr(agg.decisions[p]) for p in non_senders} == {"'v'"}
        assert (
            sum(a.messages for a in aggregates.values())
            == run.metrics.messages_total
        )


class _Quick(Protocol):
    """Decides and halts in its round 0."""

    def on_round(self, ctx, inbox):
        ctx.decide("quick")
        ctx.halt()


class _Watcher(Protocol):
    """Runs rounds 0-3, noting in each whether ``ref`` still resolves."""

    def __init__(self, ref):
        self.ref = ref
        self.alive = []

    def on_round(self, ctx, inbox):
        self.alive.append(self.ref() is not None)
        if ctx.round == 3:
            ctx.decide("watched")
            ctx.halt()


def _akd_kernel():
    """Lossy AKD at n=7, t=1: honest instances halt at tick 2, while node
    6 is dark for ticks 1-4 and its mux resumes every instance at tick 5."""
    protocols = [AgreementKeyDistributionProtocol(7, 1) for _ in range(7)]
    protocols = make_adversary("6=crash@1-5", t=1).protocols_for(protocols)
    return EventKernel(protocols, seed="akd-release", delivery=make_delivery("loss:0.2:2"))


def _akd_slots(kernel):
    """node -> its mux's slots (node 6's AKD protocol sits in a crash wrapper)."""
    return {
        node: getattr(protocol, "inner", protocol)._mux._slots
        for node, protocol in enumerate(kernel.protocols)
    }


class TestHaltedInstanceRelease:
    """A halted instance keeps only its outcome: the mux lets go of its
    protocol (and stream) at once, not when the whole run ends."""

    def test_a_halted_protocol_dies_while_its_mux_steps_others(self):
        # Only the muxes hold the quick protocols; each watcher, stepped
        # after its node's quick instance, sees it already gone.
        quick = [_Quick() for _ in range(3)]
        watchers = [_Watcher(weakref.ref(protocol)) for protocol in quick]
        protocols = [
            InstanceMux({0: quick.pop(0), 1: watcher}, channel="release")
            for watcher in watchers
        ]
        run = run_protocols(protocols, seed=4)
        assert all(watcher.alive == [False] * 4 for watcher in watchers)
        for mux in protocols:
            assert mux.outcomes[0].decision == "quick"
            assert mux.outcomes[1].decision == "watched"
            assert all(slot.protocol is None and slot.rng is None for slot in mux._slots.values())
        assert all(state.halted for state in run.states)

    def test_what_a_halted_instance_keeps_is_slotted(self):
        # One outcome per (node, instance) lives for the whole run.
        assert not hasattr(multiplex.InstanceOutcome(instance=3), "__dict__")
        assert not hasattr(PhaseOutcome(), "__dict__")

    def test_a_lossy_akd_checkpoint_after_halts_resumes(self):
        straight = _akd_kernel().run()
        runner = _akd_kernel()
        assert runner.run(until_tick=3) is None
        slots = _akd_slots(runner)
        assert all(
            slot.protocol is None and slot.outcome.decided
            for node in range(6)
            for slot in slots[node].values()
        )
        assert all(slot.protocol is not None for slot in slots[6].values())
        snapshot = pickle.loads(pickle.dumps(capture_kernel(runner)))
        restored = restore_kernel(snapshot)
        resumed = restored.run()
        assert observables(resumed) == observables(straight)
        assert all(
            slot.protocol is None
            for node_slots in _akd_slots(restored).values()
            for slot in node_slots.values()
        )
