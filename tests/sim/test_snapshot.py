"""Kernel checkpoint/resume: resume-equals-straight-run, bit for bit.

The contract under test (:mod:`repro.sim.snapshot`): a run checkpointed
at a tick boundary and resumed — in this process or another — produces
*exactly* the straight run's observables: counts, decisions, drop and
delivery totals, trace timestamps.  The property is exercised across
all four delivery families (sync / bounded / loss / partition), random
Byzantine and adaptive adversaries, and plane muxes beside the
per-envelope reference mux, plus the warm-started fork path (`retune` of tunable parameters).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.agreement import make_oral_agreement_protocols
from repro.agreement.eigtree import _SharedLevel
from repro.agreement.oral import OralAgreementProtocol
from repro.auth import trusted_dealer_setup
from repro.auth.agreement_based import akd_noise_pool
from repro.crypto import simulated
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.faults import RandomNoiseProtocol
from repro.fd.timeout import TimeoutFDProtocol
from repro.harness import (
    run_fd_scenario,
    sweep,
    sweep_prefix_shared,
)
from repro.harness.workloads import get_workload
from repro.sim import (
    SNAPSHOT_VERSION,
    EventKernel,
    InstanceMux,
    KernelSnapshot,
    Protocol,
    capture_kernel,
    clear_checkpoint_policy,
    instance_rng,
    make_delivery,
    observed_state,
    restore_kernel,
    retune_protocols,
    set_checkpoint_policy,
)

from .test_batch import ENGINES, observables, om_mux_protocols


def outcome_observables(outcome):
    """Every observable of a ScenarioOutcome, as one comparable value."""
    run = outcome.run
    metrics = run.metrics
    return {
        "rounds": run.rounds_executed,
        "rounds_used": metrics.rounds_used,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "per_round": dict(metrics.messages_per_round),
        "drops": metrics.drops_total,
        "deliveries": metrics.deliveries_total,
        "decisions": {node: repr(v) for node, v in run.decisions().items()},
        "discoverers": run.discoverers(),
        "halted": [s.halted for s in run.states],
        "correct": sorted(outcome.correct),
        "committed": outcome.committed,
        "fd_ok": None if outcome.fd is None else outcome.fd.ok,
    }


# One scenario per delivery family, plus adversary variety: the
# resume-equals-straight property must hold for every calendar shape
# (lock-step, jittered, lossy, partitioned) and every corruption mode.
SCENARIOS = [
    pytest.param(
        dict(protocol="timeout", delivery=None, adversary="14=silent"),
        5,
        id="sync-silent",
    ),
    pytest.param(
        dict(protocol="timeout", delivery="bounded:3", adversary="13=silent;14=silent"),
        6,
        id="bounded-silent",
    ),
    pytest.param(
        dict(protocol="timeout", delivery="loss:0.2:3", adversary="14=silent;15=silent"),
        7,
        id="loss-silent",
    ),
    pytest.param(
        dict(
            protocol="timeout",
            delivery="bounded:3",
            adversary="13=tamper@0.4;14=drop@0.3",
        ),
        5,
        id="bounded-random-byzantine",
    ),
    pytest.param(
        dict(protocol="timeout", delivery="partition:0-7|8-15@6"),
        4,
        id="partition-drop-straddling-heal",
    ),
    pytest.param(
        dict(protocol="timeout", delivery="partition:0-7|8-15@6/defer"),
        4,
        id="partition-defer",
    ),
    pytest.param(
        dict(
            protocol="adaptive",
            delivery="bounded:4",
            adversary="adaptive:gag-sender",
        ),
        6,
        id="adaptive-adversary",
    ),
    pytest.param(
        dict(
            protocol="adaptive",
            delivery="loss:0.15:2",
            adversary="adaptive:silence-muffled",
        ),
        5,
        id="adaptive-silence-muffled",
    ),
]


class TestResumeEqualsStraightRun:
    @pytest.mark.parametrize("scenario, tick", SCENARIOS)
    def test_resume_matches(self, scenario, tick):
        base = dict(n=16, t=2, seed=11, **scenario)
        straight = run_fd_scenario(16, 2, "v", **{k: v for k, v in base.items() if k not in ("n", "t")})
        snap = run_fd_scenario(
            16, 2, "v",
            **{k: v for k, v in base.items() if k not in ("n", "t")},
            checkpoint_at=tick,
        )
        assert isinstance(snap, KernelSnapshot)
        assert snap.tick == tick
        resumed = run_fd_scenario(
            16, 2, "v",
            **{k: v for k, v in base.items() if k not in ("n", "t")},
            resume_from=snap,
        )
        assert outcome_observables(resumed) == outcome_observables(straight)

    @pytest.mark.parametrize("scenario, tick", SCENARIOS)
    def test_resume_matches_after_pickle_round_trip(self, scenario, tick):
        """The process-pool form resumes identically — including the
        simulated scheme's trust base, which must travel with the pickled
        secrets rather than stay process-local."""
        base = dict(seed=11, **scenario)
        straight = run_fd_scenario(16, 2, "v", **base)
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=tick)
        raw = pickle.dumps(snap)
        # Clearing the registry makes this process as cold as a fresh
        # worker: without re-registration on unpickle, every signature
        # verification would flip to reject and the run would diverge.
        saved_registry = dict(simulated._SECRET_REGISTRY)
        simulated._SECRET_REGISTRY.clear()
        try:
            resumed = run_fd_scenario(
                16, 2, "v", **base, resume_from=pickle.loads(raw)
            )
        finally:
            simulated._SECRET_REGISTRY.update(saved_registry)
        assert outcome_observables(resumed) == outcome_observables(straight)

    def test_one_snapshot_forks_independent_runs(self):
        base = dict(protocol="timeout", delivery="loss:0.2:3", adversary="15=silent", seed=3)
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=5)
        first = run_fd_scenario(16, 2, "v", **base, resume_from=snap)
        second = run_fd_scenario(16, 2, "v", **base, resume_from=snap)
        assert outcome_observables(first) == outcome_observables(second)

    def test_checkpoint_past_run_end_is_an_error(self):
        with pytest.raises(ConfigurationError, match="before the checkpoint tick"):
            run_fd_scenario(
                8, 1, "v", protocol="chain", checkpoint_at=500
            )

    def test_resume_rejects_mismatched_scenario(self):
        base = dict(protocol="timeout", delivery="bounded:3", seed=4)
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=4)
        with pytest.raises(ConfigurationError, match="resume mismatch"):
            run_fd_scenario(16, 2, "v", protocol="timeout", delivery="bounded:3", seed=99, resume_from=snap)
        with pytest.raises(ConfigurationError, match="resume mismatch"):
            run_fd_scenario(12, 2, "v", **base, resume_from=snap)

    def test_checkpoint_and_resume_are_mutually_exclusive(self):
        base = dict(protocol="timeout", delivery="bounded:3", seed=4)
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=4)
        with pytest.raises(ConfigurationError, match="checkpoint_at"):
            run_fd_scenario(16, 2, "v", **base, checkpoint_at=4, resume_from=snap)


class TestEngineCoverage:
    """Snapshot/resume of plane muxes and of the per-envelope reference."""

    @pytest.mark.parametrize("mux", ENGINES, ids=lambda mux: mux.__name__)
    def test_mux_run_resumes_bit_for_bit(self, mux):
        def build():
            return EventKernel(
                om_mux_protocols(5, 1, mux),
                seed="snap-mux",
                delivery=make_delivery("loss:0.2:2"),
            )

        straight = build().run()
        runner = build()
        assert runner.run(until_tick=2) is None
        snap = capture_kernel(runner)
        resumed = restore_kernel(snap).run()
        assert observables(resumed) == observables(straight)

    @pytest.mark.parametrize("tick", [2, 3])
    def test_shared_eig_levels_stay_shared_across_a_snapshot(self, tick):
        """Synchronous OM(2) mux: from tick 3 on every receiver of an
        instance holds one level-2 column by reference.  Pickle keeps the
        aliasing (the snapshot does not grow n-fold) and the resumed run
        — adopting from the in-flight records at tick 2, carrying adopted
        levels at tick 3 — equals the straight one."""
        n = 7

        def build():
            return EventKernel(om_mux_protocols(n, 2), seed="snap-eig")

        def level_two(kernel, instance):
            return [
                mux._protocols[instance]._store.uniform[2] for mux in kernel.protocols
            ]

        straight = build().run()
        runner = build()
        assert runner.run(until_tick=tick) is None
        restored = restore_kernel(capture_kernel(runner))
        assert restored.run(until_tick=3) is None
        for instance in range(n):
            column, *others = level_two(restored, instance)
            assert type(column) is _SharedLevel and len(column) == n - 1
            assert all(other is column for other in others)
        assert observables(restored.run()) == observables(straight)


class _LateNoise(RandomNoiseProtocol):
    """Noise whose first draw is in round 2."""

    def on_round(self, ctx, inbox):
        if ctx.round >= 2:
            super().on_round(ctx, inbox)


def noise_mux_kernel(n=7, t=2, noisy=(2, 5)):
    """OM(2) muxes on a lossy calendar; at the ``noisy`` nodes a mux of
    noise instances instead — even ids draw from round 0, odd ones from
    round 2 — beside the honest muxes, whose slots never draw.  The noisy
    nodes' own instances have a noise sender, so honest stores there may
    hold no root yet at a checkpoint."""
    pool = akd_noise_pool(n)
    protocols = om_mux_protocols(n, t)
    for node in noisy:
        protocols[node] = InstanceMux(
            {
                k: (_LateNoise if k % 2 else RandomNoiseProtocol)(pool, halt_after=t + 2)
                for k in range(n)
            },
            channel="om",
        )
    return EventKernel(protocols, seed="snap-noise", delivery=make_delivery("loss:0.2:2"))


def slot_streams(kernel):
    """How many mux slots of the run hold a built stream, and how many do not."""
    built = [slot.rng is not None for mux in kernel.protocols for slot in mux._slots.values()]
    return built.count(True), built.count(False)


class TestStreamsBuiltOnFirstRead:
    """Instance streams are built on first read: a checkpoint carries
    built streams with their positions and unbuilt ones as identities."""

    @pytest.mark.parametrize("tick", [1, 3])
    def test_noise_mux_resumes_bit_for_bit(self, tick):
        straight = noise_mux_kernel().run()
        runner = noise_mux_kernel()
        assert runner.run(until_tick=tick) is None
        # Noise slots that drew, and honest (plus, at tick 1, late) slots
        # that never did, are both in the checkpoint.
        built, unbuilt = slot_streams(runner)
        assert built == 2 * (4 if tick == 1 else 7)
        assert unbuilt == 7 * 7 - built
        resumed = restore_kernel(capture_kernel(runner))
        assert slot_streams(resumed) == (built, unbuilt)
        assert observables(resumed.run()) == observables(straight)
        assert straight.metrics.messages_per_sender[5] > 0

    @pytest.mark.parametrize("tick", [1, 3])
    def test_checkpoint_in_the_eager_shapes_resumes(self, tick):
        """A checkpoint written when every slot built its stream at setup
        and every store its level dicts at construction — slots without an
        identity, empty level dicts — resumes into the straight run (why
        building streams on first read needed no ``SNAPSHOT_VERSION``
        bump)."""
        straight = noise_mux_kernel().run()
        runner = noise_mux_kernel()
        assert runner.run(until_tick=tick) is None
        for mux in runner.protocols:
            for instance, slot in mux._slots.items():
                if slot.rng is None:
                    seed, node, channel = slot.identity
                    slot.rng = instance_rng(seed, node, instance, purpose=channel)
                del slot.identity
                protocol = slot.protocol
                if isinstance(protocol, OralAgreementProtocol):
                    store = protocol._store
                    for table in (store.uniform, store.columns, store.overrides):
                        for level in range(2, store.t + 2):
                            table.setdefault(level, {})
        resumed = restore_kernel(capture_kernel(runner))
        assert observables(resumed.run()) == observables(straight)


class TestResumeAtEveryTick:
    """Every tick boundary of one lossy, jittered E13 point is a
    checkpoint that crosses a pickle round trip and resumes into the
    straight run.  The point is long enough for every live link to refill its
    draw-ahead outcomes twice, so checkpoints fall before, between and
    after refills."""

    POINT = dict(
        n=7, t=2, delivery="loss:0.2:2", protocol="timeout", faulty=1, seed=5,
        timeout=68,
    )

    def test_every_tick_resumes_into_the_straight_run(self):
        point = get_workload("e13-timeout-fd")
        straight = point(**self.POINT)
        prefix = point(**self.POINT, checkpoint_at=0)
        runner = restore_kernel(prefix)
        for tick in range(straight["rounds"]):
            assert runner.run(until_tick=tick) is None
            snap = pickle.loads(
                pickle.dumps(capture_kernel(runner, extras=prefix.extras))
            )
            resumed = point(**self.POINT, resume_from=snap)
            assert resumed == straight, f"resume at tick {tick} diverged"
        # 16 -> 64 -> 256 outcomes drawn: two refills on every live link.
        assert min(runner._delivery._drawn.values()) == 256


class TestTraceContinuity:
    """Satellite: the spliced checkpoint+resume log equals the straight
    run's log, drop events and delivery timestamps included."""

    CASES = [
        pytest.param(dict(delivery="loss:0.25:3", adversary="15=silent"), 5, id="loss"),
        # Partition (drop mode) healing at tick 6, snapshot at 4: the
        # cross-partition DROPPED events straddle the snapshot tick.
        pytest.param(dict(delivery="partition:0-7|8-15@6"), 4, id="partition-drop"),
        pytest.param(dict(delivery="partition:0-7|8-15@6/defer"), 4, id="partition-defer"),
    ]

    @pytest.mark.parametrize("scenario, tick", CASES)
    def test_spliced_log_equals_straight_log(self, scenario, tick):
        base = dict(protocol="timeout", seed=17, record_trace=True, **scenario)
        straight = run_fd_scenario(16, 2, "v", **base)
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=tick)
        resumed = run_fd_scenario(16, 2, "v", **base, resume_from=snap)

        straight_events = straight.run.trace.events
        resumed_events = resumed.run.trace.events
        assert resumed_events == straight_events
        assert resumed.run.trace.format() == straight.run.trace.format()

        # The snapshot carries exactly the prefix of the log...
        prefix = restore_kernel(snap)._trace.events
        assert prefix == straight_events[: len(prefix)]
        assert all(e.round < tick for e in prefix)
        # ...and the straight log has suffix events, so the splice is real.
        assert any(e.round >= tick for e in straight_events)

    @pytest.mark.parametrize("scenario, tick", CASES)
    def test_timestamps_monotonic_across_resume(self, scenario, tick):
        base = dict(protocol="timeout", seed=17, record_trace=True, **scenario)
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=tick)
        resumed = run_fd_scenario(16, 2, "v", **base, resume_from=snap)
        events = resumed.run.trace.events
        rounds = [e.round for e in events]
        assert rounds == sorted(rounds)
        for event in events:
            if event.kind == "send" and event.tick is not None:
                assert event.tick > event.round

    def test_partition_drop_events_straddle_snapshot(self):
        base = dict(
            protocol="timeout",
            delivery="partition:0-7|8-15@6",
            seed=17,
            record_trace=True,
        )
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=4)
        resumed = run_fd_scenario(16, 2, "v", **base, resume_from=snap)
        drop_rounds = {
            e.round for e in resumed.run.trace.events if e.kind == "drop"
        }
        assert any(r < 4 for r in drop_rounds), "drops before the snapshot"
        assert any(r >= 4 for r in drop_rounds), "drops after the resume"


class TestWarmStartedSweeps:
    """sweep_prefix_shared: fork results equal the straight sweep's."""

    E13_BASE = dict(
        n=16, t=2, protocol="timeout", delivery="loss:0.2:3", faulty=2, seed=5
    )

    def test_e13_timeout_axis(self):
        points = [dict(self.E13_BASE, timeout=v) for v in (12, 16, 20)]
        warm = sweep_prefix_shared(
            points,
            "e13-timeout-fd",
            prefix=dict(self.E13_BASE, timeout=64),
            prefix_ticks=8,
        )
        straight = sweep(points, "e13-timeout-fd")
        assert [p.params for p in warm] == [p.params for p in straight]
        assert [p.result for p in warm] == [p.result for p in straight]

    def test_e14_max_timeout_axis(self):
        base = dict(
            n=12, t=2, protocol="adaptive", delivery="bounded:4",
            attack="adaptive:gag-sender", seed=7,
        )
        points = [dict(base, max_timeout=v) for v in (10, 14)]
        warm = sweep_prefix_shared(
            points, "e14-adaptive", prefix=dict(base, max_timeout=80), prefix_ticks=6
        )
        straight = sweep(points, "e14-adaptive")
        assert [p.result for p in warm] == [p.result for p in straight]

    def test_e13_partition_timeout_axis(self):
        base = dict(n=16, t=2, heal=6, defer=False, protocol="timeout", seed=2)
        points = [dict(base, timeout=v) for v in (10, 14)]
        warm = sweep_prefix_shared(
            points, "e13-partition", prefix=dict(base, timeout=64), prefix_ticks=4
        )
        straight = sweep(points, "e13-partition")
        assert [p.result for p in warm] == [p.result for p in straight]

    def test_stripped_resume_param(self):
        points = [dict(self.E13_BASE, timeout=12)]
        warm = sweep_prefix_shared(
            points,
            "e13-timeout-fd",
            prefix=dict(self.E13_BASE, timeout=64),
            prefix_ticks=8,
        )
        assert "resume_from" not in warm[0].params

    def test_rejects_non_positive_prefix_ticks(self):
        with pytest.raises(ConfigurationError, match="positive tick count"):
            sweep_prefix_shared(
                [], "e13-timeout-fd", prefix=dict(self.E13_BASE), prefix_ticks=0
            )

    def test_rejects_workload_without_resume_support(self):
        with pytest.raises(ConfigurationError, match="checkpoint_at"):
            sweep_prefix_shared(
                [], "e12-fd", prefix=dict(n=8, t=1), prefix_ticks=4
            )


def _timeout_protocols(n=4, t=1, timeout=8):
    keypairs, directories = trusted_dealer_setup(n, seed="retune", scheme="simulated-hmac")
    return [
        TimeoutFDProtocol(n, t, keypairs[i], directories[i], timeout=timeout)
        for i in range(n)
    ]


class TestRetune:
    def test_base_protocol_rejects_retune(self):
        assert Protocol.tunable == frozenset()
        with pytest.raises(ProtocolViolationError):
            Protocol().retune(timeout=4)

    def test_unmatched_param_is_an_error(self):
        with pytest.raises(ConfigurationError, match="no protocol"):
            retune_protocols(_timeout_protocols(), warp=3)

    def test_retune_counts_matches(self):
        protocols = _timeout_protocols()
        assert retune_protocols(protocols, timeout=12) == {"timeout": 4}
        assert all(p._timeout == 12 for p in protocols)

    def test_retune_validates_values(self):
        protocol = _timeout_protocols(n=4)[0]
        with pytest.raises(ConfigurationError, match="positive"):
            protocol.retune(timeout=0)


class _HookedCounter(Protocol):
    """Protocol with an unpicklable attr, captured via the pickle pair."""

    def __init__(self) -> None:
        self.count = 0
        self.unpicklable = lambda: None

    def on_round(self, ctx, inbox) -> None:
        self.count += 1
        if self.count >= 3:
            ctx.halt()

    def __getstate__(self):
        return self.count

    def __setstate__(self, state) -> None:
        self.count = state
        self.unpicklable = lambda: None


class _StuckProtocol(Protocol):
    """Unpicklable protocol without hooks: capture must fail fast."""

    def __init__(self) -> None:
        self.unpicklable = lambda: None

    def on_round(self, ctx, inbox) -> None:
        ctx.halt()


class TestSnapshotMachinery:
    def test_until_tick_stops_before_processing(self):
        runner = EventKernel([_HookedCounter() for _ in range(3)], seed=0)
        assert runner.run(until_tick=2) is None
        assert runner.tick == 2
        assert all(p.count == 2 for p in runner._protocols)

    def test_until_tick_already_reached_returns_immediately(self):
        runner = EventKernel([_HookedCounter() for _ in range(3)], seed=0)
        runner.run(until_tick=2)
        assert runner.run(until_tick=1) is None
        assert runner.tick == 2

    def test_hooked_protocols_round_trip(self):
        runner = EventKernel([_HookedCounter() for _ in range(3)], seed=0)
        runner.run(until_tick=2)
        snap = capture_kernel(runner)
        # The live kernel keeps its real protocols after capture.
        assert all(isinstance(p, _HookedCounter) for p in runner.protocols)
        resumed = restore_kernel(snap)
        assert all(isinstance(p, _HookedCounter) for p in resumed.protocols)
        assert all(p.count == 2 for p in resumed.protocols)
        result = resumed.run()
        assert result.rounds_executed == runner.run().rounds_executed

    def test_unpicklable_protocol_fails_fast(self):
        runner = EventKernel([_StuckProtocol() for _ in range(2)], seed=0)
        with pytest.raises(ConfigurationError, match="__getstate__"):
            runner.run(until_tick=0)
            capture_kernel(runner)

    def test_version_mismatch_refused(self):
        runner = EventKernel([_HookedCounter() for _ in range(2)], seed=0)
        runner.run(until_tick=1)
        snap = dataclasses.replace(capture_kernel(runner), version=999)
        with pytest.raises(ConfigurationError, match="version"):
            restore_kernel(snap)

    def test_version_1_snapshot_refused_by_name(self):
        """Version 1 predates the succinct EIG store's run columns,
        version 2 holds live ``random.Random`` link streams where links
        now hold draw-ahead outcomes, and a version-3 recording run holds
        no batch plane: such a snapshot must be refused up front with the
        named version error, not resumed into an ``AttributeError``."""
        assert SNAPSHOT_VERSION == 4
        runner = EventKernel(make_oral_agreement_protocols(7, 2, "v"), seed=0)
        runner.run(until_tick=2)
        for version in (1, 2, 3):
            stale = dataclasses.replace(capture_kernel(runner), version=version)
            with pytest.raises(ConfigurationError, match=f"snapshot version {version} does not"):
                restore_kernel(stale)

    def test_restore_rejects_non_snapshot(self):
        with pytest.raises(ConfigurationError, match="KernelSnapshot"):
            restore_kernel({"tick": 3})

    def test_size_bytes(self):
        runner = EventKernel([_HookedCounter() for _ in range(2)], seed=0)
        runner.run(until_tick=1)
        snap = capture_kernel(runner)
        assert snap.size_bytes == len(snap.payload) > 0


class TestCheckpointPolicy:
    def test_action_sees_every_boundary(self):
        """The action gets each kernel under its own label at every
        multiple of ``every``, with the kernel at that boundary: a
        snapshot taken there resumes into the straight run."""
        base = dict(protocol="timeout", delivery="bounded:3", adversary="15=silent", seed=9)
        straight = run_fd_scenario(16, 2, "v", **base)
        seen = []
        set_checkpoint_policy(
            3, lambda label, kernel: seen.append((label, kernel.tick, capture_kernel(kernel)))
        )
        try:
            run_fd_scenario(16, 2, "v", **base)
        finally:
            clear_checkpoint_policy()
        assert [tick for _, tick, _ in seen] == list(range(3, 3 * len(seen) + 1, 3))
        assert {label for label, _, _ in seen} == {0}
        for _, _, snap in seen:
            resumed = restore_kernel(snap).run()
            assert resumed.metrics.messages_total == straight.run.metrics.messages_total
            assert resumed.metrics.drops_total == straight.run.metrics.drops_total

    def test_labels_follow_first_boundary(self):
        """Key distribution reaches a boundary first (label 0), the
        protocol under test second (label 1)."""
        labels = []
        set_checkpoint_policy(1, lambda label, kernel: labels.append(label))
        try:
            run_fd_scenario(8, 2, "v", auth="local", seed=1)
        finally:
            clear_checkpoint_policy()
        assert labels == sorted(labels) and set(labels) == {0, 1}

    def test_observed_state_is_json(self):
        """The recipe's state: plain JSON values that survive a round trip."""
        import json

        runner = EventKernel(make_oral_agreement_protocols(7, 2, "v"), seed=0)
        runner.run(until_tick=2)
        state = observed_state(runner)
        assert json.loads(json.dumps(state)) == state
        assert state["messages"] == sum(sent for sent, _ in state["activity"])
        assert len(state["activity"]) == 7

    def test_non_positive_interval_refused(self):
        with pytest.raises(ConfigurationError, match="positive"):
            set_checkpoint_policy(0, lambda label, kernel: None)

    def test_clear_stops_calling(self):
        calls = []
        set_checkpoint_policy(2, lambda label, kernel: calls.append(label))
        clear_checkpoint_policy()
        run_fd_scenario(8, 1, "v", protocol="timeout", seed=1)
        assert calls == []
