"""Kernel checkpoint/resume: resume-equals-straight-run, bit for bit.

The contract under test (:mod:`repro.sim.snapshot`): a run checkpointed
at a tick boundary and resumed — in this process or another — produces
*exactly* the straight run's observables: counts, decisions, drop and
delivery totals, trace timestamps.  The property is exercised across
all four delivery families (sync / bounded / loss / partition), random
Byzantine and adaptive adversaries, and both mux execution engines,
plus the warm-started fork path (`retune` of tunable parameters).
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
from repro.harness.workloads import resolve_workload
from repro.sim import (
    COLUMNAR_ENGINE,
    OBJECT_ENGINE,
    SNAPSHOT_VERSION,
    EventKernel,
    InstanceMux,
    KernelSnapshot,
    Protocol,
    capture_kernel,
    clear_checkpoint_policy,
    instance_rng,
    load_snapshot,
    make_delivery,
    restore_kernel,
    retune_protocols,
    save_snapshot,
    set_checkpoint_policy,
)

from .test_batch import observables, om_mux_protocols


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
    def test_resume_matches_after_pickle_round_trip(self, scenario, tick, tmp_path):
        """The on-disk form (and the process-pool form) resumes identically
        — including the simulated scheme's trust base, which must travel
        with the pickled secrets rather than stay process-local."""
        base = dict(seed=11, **scenario)
        straight = run_fd_scenario(16, 2, "v", **base)
        snap = run_fd_scenario(16, 2, "v", **base, checkpoint_at=tick)
        path = save_snapshot(snap, tmp_path / "point.ckpt")
        # Clearing the registry makes this process as cold as a fresh
        # worker: without re-registration on unpickle, every signature
        # verification would flip to reject and the run would diverge.
        saved_registry = dict(simulated._SECRET_REGISTRY)
        simulated._SECRET_REGISTRY.clear()
        try:
            resumed = run_fd_scenario(
                16, 2, "v", **base, resume_from=load_snapshot(path)
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
    """Snapshot/resume under both mux execution engines."""

    @pytest.mark.parametrize("engine", [COLUMNAR_ENGINE, OBJECT_ENGINE])
    def test_mux_run_resumes_bit_for_bit(self, engine):
        def build():
            return EventKernel(
                om_mux_protocols(5, 1, engine),
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
            return EventKernel(om_mux_protocols(n, 2, COLUMNAR_ENGINE), seed="snap-eig")

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
    protocols = om_mux_protocols(n, t, COLUMNAR_ENGINE)
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
    checkpoint that crosses the file format and resumes into the straight
    run.  The point is long enough for every live link to refill its
    draw-ahead outcomes twice, so checkpoints fall before, between and
    after refills."""

    POINT = dict(
        n=7, t=2, delivery="loss:0.2:2", protocol="timeout", faulty=1, seed=5,
        timeout=68,
    )

    def test_every_tick_resumes_into_the_straight_run(self, tmp_path):
        point = resolve_workload("e13-timeout-fd")
        straight = point(**self.POINT)
        prefix = point(**self.POINT, checkpoint_at=0)
        runner = restore_kernel(prefix)
        for tick in range(straight["rounds"]):
            assert runner.run(until_tick=tick) is None
            path = save_snapshot(
                capture_kernel(runner, extras=prefix.extras), tmp_path / "at.ckpt"
            )
            resumed = point(**self.POINT, resume_from=load_snapshot(path))
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
        snap = runner.snapshot()
        # The live kernel keeps its real protocols after capture.
        assert all(isinstance(p, _HookedCounter) for p in runner.protocols)
        resumed = EventKernel.resume(snap)
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
        snap = dataclasses.replace(runner.snapshot(), version=999)
        with pytest.raises(ConfigurationError, match="version"):
            restore_kernel(snap)

    def test_restore_rejects_non_snapshot(self):
        with pytest.raises(ConfigurationError, match="KernelSnapshot"):
            restore_kernel({"tick": 3})

    def test_size_bytes(self):
        runner = EventKernel([_HookedCounter() for _ in range(2)], seed=0)
        runner.run(until_tick=1)
        snap = runner.snapshot()
        assert snap.size_bytes == len(snap.payload) > 0


class TestSnapshotFiles:
    def test_round_trip(self, tmp_path):
        runner = EventKernel([_HookedCounter() for _ in range(2)], seed=0)
        runner.run(until_tick=1)
        path = save_snapshot(runner.snapshot(), tmp_path / "deep" / "a.ckpt")
        loaded = load_snapshot(path)
        assert loaded.tick == 1
        assert EventKernel.resume(loaded).run().rounds_executed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read checkpoint"):
            load_snapshot(tmp_path / "nope.ckpt")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(ConfigurationError, match="corrupt"):
            load_snapshot(path)

    def test_wrong_payload_type(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_bytes(pickle.dumps({"hello": 1}))
        with pytest.raises(ConfigurationError, match="does not contain"):
            load_snapshot(path)

    def test_version_mismatch(self, tmp_path):
        runner = EventKernel([_HookedCounter() for _ in range(2)], seed=0)
        runner.run(until_tick=1)
        stale = dataclasses.replace(runner.snapshot(), version=0)
        path = tmp_path / "stale.ckpt"
        path.write_bytes(pickle.dumps(stale))
        with pytest.raises(ConfigurationError, match="version"):
            load_snapshot(path)

    def test_version_1_snapshot_refused_by_name(self, tmp_path):
        """Version 1 predates the succinct EIG store's run columns, and
        version 2 holds live ``random.Random`` link streams where links
        now hold draw-ahead outcomes: such a snapshot must be refused up
        front with the named version error — in memory and from disk —
        not resumed into an ``AttributeError``."""
        assert SNAPSHOT_VERSION == 3
        runner = EventKernel(make_oral_agreement_protocols(7, 2, "v"), seed=0)
        runner.run(until_tick=2)
        for version in (1, 2):
            stale = dataclasses.replace(runner.snapshot(), version=version)
            with pytest.raises(ConfigurationError, match=f"snapshot version {version} does not"):
                restore_kernel(stale)
            with pytest.raises(ConfigurationError, match=f"snapshot version {version} does not"):
                EventKernel.resume(stale)
            path = tmp_path / f"v{version}.ckpt"
            path.write_bytes(pickle.dumps(stale))
            with pytest.raises(ConfigurationError, match=f"has snapshot version {version},"):
                load_snapshot(path)


class TestCheckpointPolicy:
    def test_periodic_files_resume(self, tmp_path):
        base = dict(protocol="timeout", delivery="bounded:3", adversary="15=silent", seed=9)
        straight = run_fd_scenario(16, 2, "v", **base)
        policy = set_checkpoint_policy(3, tmp_path)
        try:
            run_fd_scenario(16, 2, "v", **base)
        finally:
            clear_checkpoint_policy()
        assert policy.written, "no checkpoints written"
        for path in policy.written:
            snap = load_snapshot(path)
            assert snap.tick % 3 == 0
            resumed = restore_kernel(snap).run()
            assert resumed.metrics.messages_total == straight.run.metrics.messages_total
            assert resumed.metrics.drops_total == straight.run.metrics.drops_total

    def test_non_positive_interval_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="positive"):
            set_checkpoint_policy(0, tmp_path)

    def test_clear_stops_writing(self, tmp_path):
        policy = set_checkpoint_policy(2, tmp_path)
        clear_checkpoint_policy()
        run_fd_scenario(8, 1, "v", protocol="timeout", seed=1)
        assert policy.written == []
