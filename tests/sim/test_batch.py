"""Columnar batch execution vs the per-envelope object oracle.

The mux's ``engine`` knob is an execution strategy, not a semantics
change: every observable — decisions, per-instance outcomes, message /
byte / drop counters, round counts — must be bit-for-bit identical
between ``engine="columnar"`` (the batch plane of
:mod:`repro.sim.batch`) and ``engine="object"`` (the reference
per-envelope path).  The property tests here pin that equivalence under
random Byzantine behaviour, lossy delivery, adaptive (``adaptive:NAME``)
adversaries, mixed-engine populations and the recording fallback, plus
the wire-extension round-trip the demux rests on.
"""

from __future__ import annotations

import random

import pytest

from repro.agreement.oral import OralAgreementProtocol
from repro.auth.agreement_based import run_agreement_key_distribution
from repro.errors import ConfigurationError
from repro.faults import AdversarySpec
from repro.sim import (
    COLUMNAR_ENGINE,
    MUX_ENGINE_ENV,
    OBJECT_ENGINE,
    Envelope,
    InstanceMux,
    Protocol,
    collect_instances,
    default_mux_engine,
    make_delivery,
    mux_unwrap,
    mux_wrap,
    run_protocols,
)

ENGINES = (OBJECT_ENGINE, COLUMNAR_ENGINE)


def om_mux_protocols(n, t, engine):
    """One n-instance OM(t) mux per node — the AKD traffic shape."""
    return [
        InstanceMux(
            {
                k: OralAgreementProtocol(
                    n,
                    t,
                    value=f"v{k}" if k == node else None,
                    default=None,
                    sender=k,
                )
                for k in range(n)
            },
            channel="om",
            engine=engine,
        )
        for node in range(n)
    ]


def observables(run):
    """Every engine-invariant observable of a run, as one value."""
    metrics = run.metrics
    return {
        "rounds": run.rounds_executed,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "per_kind": dict(metrics.messages_per_kind),
        "per_sender": dict(metrics.messages_per_sender),
        "per_round": dict(metrics.messages_per_round),
        "drops": metrics.drops_total,
        "deliveries": metrics.deliveries_total,
        "decisions": {s.node: repr(s.decision) for s in run.states},
        "halted": [s.halted for s in run.states],
        "instances": collect_instances(run),
    }


class TestEngineKnob:
    def test_unknown_engine_refused(self):
        with pytest.raises(ConfigurationError, match="unknown mux engine"):
            InstanceMux({0: Protocol()}, engine="vectorised")

    def test_engine_property(self):
        assert InstanceMux({0: Protocol()}).engine == COLUMNAR_ENGINE
        assert (
            InstanceMux({0: Protocol()}, engine=OBJECT_ENGINE).engine
            == OBJECT_ENGINE
        )


class TestWireRoundTripProperty:
    def test_wrap_unwrap_round_trip(self):
        """Random (channel, instance, payload) triples survive the wire
        extension unchanged, and never parse on another channel."""
        rng = random.Random(0xC0FFEE)
        channels = ("akd", "om", "x-y", "c0")
        for _ in range(300):
            channel = rng.choice(channels)
            instance = rng.randrange(1 << 16)
            payload = rng.choice(
                (
                    ("om-value", rng.randrange(99)),
                    ("om-report", (rng.randrange(9), rng.randrange(9))),
                    rng.randrange(1 << 30),
                    "s" * rng.randrange(4),
                    None,
                    (("nested", rng.randrange(7)), "tail"),
                )
            )
            wrapped = mux_wrap(channel, instance, payload)
            assert mux_unwrap(wrapped, channel) == (instance, payload)
            assert mux_unwrap(wrapped, channel + "!") is None

    @pytest.mark.parametrize(
        "forged",
        [
            ("mux", "om", 7),                 # wrong arity
            ("mux", "om", "7", "payload"),    # non-int instance
            ("mux", "om", 7, "pay", "load"),  # over-long
        ],
    )
    def test_malformed_wrappers_fall_to_plain_path(self, forged):
        """A columnar mux treats unparseable wrappers exactly like the
        object engine: plain traffic belonging to no instance."""

        class Forger(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.broadcast(forged)
                ctx.halt()

        class Recorder(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round >= 2:
                    ctx.decide(tuple(env.payload for env in inbox))
                    ctx.halt()

        runs = {}
        for engine in ENGINES:
            protocols = [Forger()] + [
                InstanceMux({7: Recorder()}, channel="om", engine=engine)
                for _ in range(2)
            ]
            run = run_protocols(protocols, seed=3)
            # The forged wrapper reached no instance on either engine.
            assert protocols[1].outcomes[7].decision == ()
            runs[engine] = observables(run)
        assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE]


class TestColumnarObjectEquivalence:
    def test_honest_om_grid(self):
        """n=7, t=2 reaches the RLE report levels (rounds >= 2) that the
        batched succinct ingest specialises."""
        runs = {
            engine: observables(
                run_protocols(om_mux_protocols(7, 2, engine), seed=11)
            )
            for engine in ENGINES
        }
        assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE]
        decided = runs[COLUMNAR_ENGINE]["instances"]
        assert sorted(decided) == list(range(7))

    def test_random_byzantine_behaviours(self):
        """Seed-indexed random corrupt sets drawn from the full
        declarative vocabulary, including the wrapping kinds (crash /
        drop / tamper) whose lenses must intercept batch sends."""
        kinds = ("silent", "noise", "rush", "crash@1", "drop@0.5", "tamper@0.5")
        n, t = 7, 2
        for seed in range(5):
            rng = random.Random(seed)
            corrupt = tuple(
                (node, rng.choice(kinds))
                for node in sorted(rng.sample(range(n), rng.randint(1, t)))
            )
            spec = AdversarySpec(corrupt=corrupt, t=t)
            runs = {}
            for engine in ENGINES:
                protocols = spec.protocols_for(om_mux_protocols(n, t, engine))
                runs[engine] = observables(run_protocols(protocols, seed=seed))
            assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE], (
                f"seed={seed} corrupt={corrupt}"
            )

    def test_akd_random_byzantine(self):
        """The full key-distribution facade, engine-parametrised."""
        for seed, adversary in [(0, "3=noise"), (1, "2=silent;5=noise"), (2, None)]:
            results = {
                engine: run_agreement_key_distribution(
                    7, 2, seed=seed, adversary=adversary, engine=engine
                )
                for engine in ENGINES
            }
            col, obj = results[COLUMNAR_ENGINE], results[OBJECT_ENGINE]
            assert col.per_instance == obj.per_instance, f"seed={seed}"
            assert observables(col.run) == observables(obj.run), f"seed={seed}"
            assert sorted(col.directories) == sorted(obj.directories)

    def test_lossy_delivery(self):
        """``loss:p`` at the jitter-free bound is batch-capable: the
        columnar drop schedule must replay the object path's per-link
        draws bit-for-bit (drop totals included)."""
        for seed, p, adversary in [(1, 0.25, None), (2, 0.5, "3=noise"), (3, 0.1, "1=silent")]:
            results = {
                engine: run_agreement_key_distribution(
                    7,
                    2,
                    seed=seed,
                    adversary=adversary,
                    delivery=f"loss:{p}",
                    engine=engine,
                )
                for engine in ENGINES
            }
            col, obj = results[COLUMNAR_ENGINE], results[OBJECT_ENGINE]
            assert col.per_instance == obj.per_instance, f"seed={seed} p={p}"
            assert observables(col.run) == observables(obj.run), (
                f"seed={seed} p={p}"
            )
            assert col.run.metrics.drops_total > 0

    @pytest.mark.parametrize("strategy", ["silence-muffled", "gag-sender"])
    def test_adaptive_adversary(self, strategy):
        """``adaptive:STRATEGY`` corruption commits online off metrics
        snapshots — identical commitments and observables either way."""
        committed = {}
        runs = {}
        for engine in ENGINES:
            spec = AdversarySpec(corrupt=(), t=2, strategy=strategy)
            protocols, coordinator = spec.adaptive_protocols_for(
                om_mux_protocols(7, 2, engine)
            )
            runs[engine] = observables(run_protocols(protocols, seed=13))
            committed[engine] = {
                node: behavior.kind
                for node, behavior in coordinator.committed.items()
            }
        assert committed[COLUMNAR_ENGINE] == committed[OBJECT_ENGINE]
        assert committed[COLUMNAR_ENGINE]  # the strategy did strike
        assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE]

    def test_mixed_engine_population(self):
        """Engines interoperate per node: object muxes are plane
        outsiders fed materialised envelopes, and any mixture matches
        the all-object run."""
        n, t = 7, 2
        baseline = observables(
            run_protocols(om_mux_protocols(n, t, OBJECT_ENGINE), seed=21)
        )
        for seed in range(3):
            rng = random.Random(seed)
            protocols = [
                InstanceMux(
                    {
                        k: OralAgreementProtocol(
                            n,
                            t,
                            value=f"v{k}" if k == node else None,
                            default=None,
                            sender=k,
                        )
                        for k in range(n)
                    },
                    channel="om",
                    engine=rng.choice(ENGINES),
                )
                for node in range(n)
            ]
            assert observables(run_protocols(protocols, seed=21)) == baseline

    def test_recording_forces_identical_fallback(self):
        """With a trace or views on there is no batch plane; a columnar
        mux silently runs the object path with unchanged observables."""
        plain = {
            engine: observables(
                run_protocols(om_mux_protocols(5, 1, engine), seed=9)
            )
            for engine in ENGINES
        }
        recorded = observables(
            run_protocols(
                om_mux_protocols(5, 1, COLUMNAR_ENGINE),
                seed=9,
                record_trace=True,
            )
        )
        assert plain[COLUMNAR_ENGINE] == plain[OBJECT_ENGINE] == recorded

    def test_zero_recipient_send_moves_no_counter(self):
        """A send standing for zero envelopes is no send on either
        engine: it claims no round and plants no zero-count key, at run
        level or in the instance mirror."""

        class EmptyBroadcaster(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.broadcast(("probe", ctx.node))
                if ctx.round == 3:
                    ctx.broadcast(("probe", "nobody"), to=[])
                    ctx.halt()

        runs = {}
        for engine in ENGINES:
            protocols = [
                InstanceMux({0: EmptyBroadcaster()}, channel="om", engine=engine)
                for _ in range(3)
            ]
            run = run_protocols(protocols, seed=5)
            mirrors = [mux.outcomes[0].metrics for mux in protocols]
            runs[engine] = (
                observables(run),
                [
                    (m.rounds_used, dict(m.messages_per_round), dict(m.messages_per_kind))
                    for m in [run.metrics, *mirrors]
                ],
            )
        assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE]
        assert runs[COLUMNAR_ENGINE][1][0][:2] == (1, {0: 6})


class TestDegradedCalendarEquivalence:
    """Arrival-columned plane: the columnar engine must replay the object
    path bit-for-bit under jittered, lossy and partitioned calendars —
    counts, decisions, drop totals and per-instance outcomes alike —
    while actually running columnar (no silent fallback)."""

    def _equal_runs(self, n, t, seed, delivery, spec=None):
        runs = {}
        honest_mux = {}
        for engine in ENGINES:
            protocols = om_mux_protocols(n, t, engine)
            honest_mux[engine] = protocols[0]
            if spec is not None:
                protocols = spec.protocols_for(protocols)
            run = run_protocols(
                protocols, seed=seed, delivery=make_delivery(delivery)
            )
            runs[engine] = observables(run)
        assert honest_mux[COLUMNAR_ENGINE].engine_used == COLUMNAR_ENGINE
        assert honest_mux[COLUMNAR_ENGINE].fallback_reason is None
        assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE], (
            f"seed={seed} delivery={delivery}"
        )
        return runs[COLUMNAR_ENGINE]

    @pytest.mark.parametrize("delivery", ["bounded:2", "bounded:4"])
    def test_bounded_jitter(self, delivery):
        """``bounded:d`` with d > 1: one logical batch send splits into
        per-arrival calendar buckets whose schedule must be bit-identical
        to the object path's per-envelope latency draws."""
        for seed in (1, 5):
            self._equal_runs(7, 2, seed, delivery)

    def test_lossy_with_jitter(self):
        """``loss:p`` with delay > 1 draws latency *and* drop decisions
        per recipient from the object path's per-link streams."""
        for seed, delivery in [(1, "loss:0.2:2"), (2, "loss:0.3:3")]:
            result = self._equal_runs(7, 2, seed, delivery)
            assert result["drops"] > 0

    def test_partition_heal_defer(self):
        """Defer-until-heal as an arrival rewrite: cross-block batch
        traffic parks until the heal tick and arrives there."""
        self._equal_runs(7, 2, 3, "partition:0-3|4-6@2/defer")

    def test_partition_defer_past_run_end(self):
        """A heal the run never reaches: parked batch records must be
        swept into the drop accounting at end of run exactly like the
        object path's parked envelopes."""
        result = self._equal_runs(7, 2, 4, "partition:0-3|4-6@30/defer")
        assert result["drops"] > 0

    def test_random_byzantine_under_degraded_delivery(self):
        """Random corrupt sets on top of jittered/lossy calendars: the
        behaviour lenses and the arrival columns compose."""
        kinds = ("silent", "noise", "crash@1", "drop@0.5", "tamper@0.5")
        cases = [(0, "bounded:2"), (1, "loss:0.2:2"), (2, "bounded:3")]
        for seed, delivery in cases:
            rng = random.Random(seed)
            corrupt = tuple(
                (node, rng.choice(kinds))
                # node 0 stays honest: its mux is the engine-used probe.
                for node in sorted(rng.sample(range(1, 7), rng.randint(1, 2)))
            )
            self._equal_runs(
                7, 2, seed, delivery, spec=AdversarySpec(corrupt=corrupt, t=2)
            )

    @pytest.mark.parametrize("strategy", ["silence-muffled", "gag-sender"])
    def test_adaptive_adversary_under_lossy_jitter(self, strategy):
        """Adaptive corruption reads live metrics; those snapshots (and
        hence the commitments) must not depend on the engine even when
        the calendar is lossy and jittered."""
        committed = {}
        runs = {}
        for engine in ENGINES:
            spec = AdversarySpec(corrupt=(), t=2, strategy=strategy)
            protocols, coordinator = spec.adaptive_protocols_for(
                om_mux_protocols(7, 2, engine)
            )
            runs[engine] = observables(
                run_protocols(
                    protocols, seed=13, delivery=make_delivery("loss:0.2:2")
                )
            )
            committed[engine] = {
                node: behavior.kind
                for node, behavior in coordinator.committed.items()
            }
        assert committed[COLUMNAR_ENGINE] == committed[OBJECT_ENGINE]
        assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE]


class TestEngineSurfacing:
    """Silent fallback is no longer silent: the mux records why it left
    the columnar path, warns once per reason, and exposes the engine
    actually used."""

    def test_columnar_run_reports_engine_used(self):
        protocols = om_mux_protocols(5, 1, COLUMNAR_ENGINE)
        run_protocols(protocols, seed=2)
        assert all(m.engine_used == COLUMNAR_ENGINE for m in protocols)
        assert all(m.fallback_reason is None for m in protocols)

    def test_recording_fallback_reason_and_warning(self, monkeypatch):
        from repro.sim import multiplex as mux_mod

        monkeypatch.setattr(mux_mod, "_FALLBACK_WARNED", set())
        protocols = om_mux_protocols(5, 1, COLUMNAR_ENGINE)
        with pytest.warns(RuntimeWarning, match="recording"):
            run_protocols(protocols, seed=2, record_trace=True)
        assert protocols[0].engine_used == OBJECT_ENGINE
        assert "recording" in protocols[0].fallback_reason
        # One-time per reason: an identical second run stays quiet.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_protocols(
                om_mux_protocols(5, 1, COLUMNAR_ENGINE), seed=2, record_trace=True
            )

    def test_delivery_fallback_reason(self, monkeypatch):
        from repro.sim import multiplex as mux_mod

        monkeypatch.setattr(mux_mod, "_FALLBACK_WARNED", set())
        protocols = om_mux_protocols(5, 1, COLUMNAR_ENGINE)
        with pytest.warns(RuntimeWarning, match="batch-capable"):
            run_protocols(protocols, seed=2, delivery=make_delivery("rush:4"))
        assert protocols[0].engine_used == OBJECT_ENGINE
        assert "batch-capable" in protocols[0].fallback_reason

    def test_object_engine_never_reports_fallback(self):
        protocols = om_mux_protocols(5, 1, OBJECT_ENGINE)
        run_protocols(protocols, seed=2, record_trace=True)
        assert protocols[0].engine_used == OBJECT_ENGINE
        assert protocols[0].fallback_reason is None

    def test_env_knob_selects_default_engine(self, monkeypatch):
        monkeypatch.setenv(MUX_ENGINE_ENV, OBJECT_ENGINE)
        assert default_mux_engine() == OBJECT_ENGINE
        assert InstanceMux({0: Protocol()}).engine == OBJECT_ENGINE
        monkeypatch.setenv(MUX_ENGINE_ENV, "vectorised")
        with pytest.raises(ConfigurationError, match="unknown mux engine"):
            default_mux_engine()
        monkeypatch.delenv(MUX_ENGINE_ENV)
        assert default_mux_engine() == COLUMNAR_ENGINE
        # An explicit engine always beats the environment.
        monkeypatch.setenv(MUX_ENGINE_ENV, OBJECT_ENGINE)
        assert (
            InstanceMux({0: Protocol()}, engine=COLUMNAR_ENGINE).engine
            == COLUMNAR_ENGINE
        )


class TestTamperLensInterceptsBatchSends:
    def test_filtered_mux_cannot_leak_through_send_batch(self):
        """Regression: a drop lens around a *columnar* mux must suppress
        the same messages it suppresses around an object mux — batch
        sends re-materialise through the per-message filter instead of
        slipping past it via attribute delegation."""
        from repro.faults.behaviors import TamperingProtocol

        n, t = 5, 1
        runs = {}
        for engine in ENGINES:
            protocols = om_mux_protocols(n, t, engine)
            protocols[2] = TamperingProtocol(
                protocols[2], should_send=lambda round_, to, payload: to != 4
            )
            runs[engine] = observables(run_protocols(protocols, seed=17))
        assert runs[COLUMNAR_ENGINE] == runs[OBJECT_ENGINE]
        # The lens bit on both engines: node 2 sent fewer envelopes than
        # an unfiltered node of the same run.
        per_sender = runs[COLUMNAR_ENGINE]["per_sender"]
        assert per_sender[2] < per_sender[1]


class _EnvelopeShapeProbe(Protocol):
    """Asserts materialised batch envelopes match object-path envelopes
    field-for-field (sender, recipient, round_sent, inner payload)."""

    def __init__(self):
        self.seen = []

    def on_round(self, ctx, inbox):
        for env in inbox:
            assert isinstance(env, Envelope)
            assert env.recipient == ctx.node
            assert env.round_sent == ctx.round - 1
            self.seen.append((env.sender, env.payload, env.round_sent))
        if ctx.round == 0 and ctx.node == 0:
            ctx.broadcast(("probe", ctx.node))
        if ctx.round >= 2:
            ctx.decide(tuple(self.seen))
            ctx.halt()


class TestMaterializedEnvelopes:
    def test_batch_materialisation_matches_object_envelopes(self):
        """An instance protocol without ``supports_batch_inbox`` reads
        batch traffic as envelopes indistinguishable from the object
        path's."""
        decisions = {}
        for engine in ENGINES:
            protocols = [
                InstanceMux({0: _EnvelopeShapeProbe()}, channel="om", engine=engine)
                for _ in range(3)
            ]
            run_protocols(protocols, seed=5)
            decisions[engine] = [
                mux.outcomes[0].decision for mux in protocols
            ]
        assert decisions[COLUMNAR_ENGINE] == decisions[OBJECT_ENGINE]
        assert decisions[COLUMNAR_ENGINE][1] == ((0, ("probe", 0), 0),)

    def test_plain_traffic_is_spliced_into_the_materialised_inbox(self):
        """Mixed population, envelope-reading instances: a columnar node
        hears columnar peers through its batch group and object peers
        through plain envelopes, and reads one sender-sorted inbox —
        the all-object run's."""

        class InboxOrderProbe(Protocol):
            def __init__(self):
                self.seen = []

            def on_round(self, ctx, inbox):
                self.seen.extend(
                    (env.sender, env.payload, env.round_sent) for env in inbox
                )
                if ctx.round < 2:
                    ctx.broadcast(("probe", ctx.node, ctx.round))
                else:
                    ctx.decide(tuple(self.seen))
                    ctx.halt()

        decisions = []
        for engines in (
            (OBJECT_ENGINE,) * 5,
            (COLUMNAR_ENGINE, OBJECT_ENGINE, COLUMNAR_ENGINE, OBJECT_ENGINE, COLUMNAR_ENGINE),
            (OBJECT_ENGINE, COLUMNAR_ENGINE, COLUMNAR_ENGINE, OBJECT_ENGINE, OBJECT_ENGINE),
        ):
            protocols = [
                InstanceMux({0: InboxOrderProbe()}, channel="om", engine=engine)
                for engine in engines
            ]
            run_protocols(protocols, seed=5)
            decisions.append([mux.outcomes[0].decision for mux in protocols])
        assert decisions[0] == decisions[1] == decisions[2]
        assert [sender for sender, _, _ in decisions[0][0][:4]] == [1, 2, 3, 4]
