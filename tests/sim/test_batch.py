"""The batch plane vs the per-envelope reference mux.

:class:`~repro.sim.InstanceMux` runs every mux on the kernel's batch
plane (:mod:`repro.sim.batch`); ``_reference_mux.ReferenceMux`` wraps
and sends one plain envelope per copy.  Every observable — decisions,
per-instance outcomes, message / byte / drop counters, round counts,
trace events and recorded views — must be bit-for-bit identical between
the two.  The property tests here pin that equivalence under random
Byzantine behaviour, every delivery family (rushing included), adaptive
(``adaptive:NAME``) adversaries, mixed populations and recording, plus
the wire-extension round-trip the demux rests on.
"""

from __future__ import annotations

import random

import pytest

from repro.agreement.oral import OralAgreementProtocol
from repro.auth import agreement_based
from repro.auth.agreement_based import akd_noise_pool, run_agreement_key_distribution
from repro.faults import AdversarySpec, RandomNoiseProtocol
from repro.faults.adversary import committed_corruptions
from repro.sim import kernel
from repro.sim import (
    BatchPlane,
    BatchRecord,
    Envelope,
    InstanceMux,
    Protocol,
    collect_instances,
    make_delivery,
    mux_unwrap,
    mux_wrap,
    run_protocols,
)

from ._reference_mux import ReferenceMux

#: The two muxes every equivalence test runs: the oracle, then the plane.
ENGINES = (ReferenceMux, InstanceMux)


def om_instances(n, t, node):
    """Node ``node``'s n OM(t) instances, instance k sent by node k."""
    return {
        k: OralAgreementProtocol(
            n, t, value=f"v{k}" if k == node else None, default=None, sender=k
        )
        for k in range(n)
    }


def om_mux_protocols(n, t, mux=InstanceMux):
    """One n-instance OM(t) mux per node — the AKD traffic shape."""
    return [mux(om_instances(n, t, node), channel="om") for node in range(n)]


def observables(run):
    """Every mux-invariant observable of a run, as one value."""
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


def akd_both_ways(monkeypatch, **params):
    """One AKD facade run per mux: the reference substituted for the
    facade's ``InstanceMux`` (honest nodes and noise adversaries alike),
    then the facade as shipped."""
    results = []
    for mux in ENGINES:
        with monkeypatch.context() as patch:
            patch.setattr(agreement_based, "InstanceMux", mux)
            results.append(run_agreement_key_distribution(7, 2, **params))
    return results


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
        """The plane treats unparseable wrappers exactly like the
        reference mux: plain traffic belonging to no instance."""

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
        for mux in ENGINES:
            protocols = [Forger()] + [
                mux({7: Recorder()}, channel="om") for _ in range(2)
            ]
            run = run_protocols(protocols, seed=3)
            # The forged wrapper reached no instance on either mux.
            assert protocols[1].outcomes[7].decision == ()
            runs[mux] = observables(run)
        assert runs[InstanceMux] == runs[ReferenceMux]


class TestColumnarObjectEquivalence:
    def test_honest_om_grid(self):
        """n=7, t=2 reaches the RLE report levels (rounds >= 2) that the
        batched succinct ingest specialises."""
        runs = {
            mux: observables(run_protocols(om_mux_protocols(7, 2, mux), seed=11))
            for mux in ENGINES
        }
        assert runs[InstanceMux] == runs[ReferenceMux]
        decided = runs[InstanceMux]["instances"]
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
            for mux in ENGINES:
                protocols = spec.protocols_for(om_mux_protocols(n, t, mux))
                runs[mux] = observables(run_protocols(protocols, seed=seed))
            assert runs[InstanceMux] == runs[ReferenceMux], (
                f"seed={seed} corrupt={corrupt}"
            )

    def test_akd_random_byzantine(self, monkeypatch):
        """The full key-distribution facade, reference mux substituted."""
        for seed, adversary in [(0, "3=noise"), (1, "2=silent;5=noise"), (2, None)]:
            ref, plane = akd_both_ways(monkeypatch, seed=seed, adversary=adversary)
            assert plane.per_instance == ref.per_instance, f"seed={seed}"
            assert observables(plane.run) == observables(ref.run), f"seed={seed}"
            assert sorted(plane.directories) == sorted(ref.directories)

    def test_lossy_delivery(self, monkeypatch):
        """``loss:p`` at the jitter-free bound: the plane's drop schedule
        must replay the per-envelope per-link draws bit-for-bit (drop
        totals included)."""
        for seed, p, adversary in [(1, 0.25, None), (2, 0.5, "3=noise"), (3, 0.1, "1=silent")]:
            ref, plane = akd_both_ways(
                monkeypatch, seed=seed, adversary=adversary, delivery=f"loss:{p}"
            )
            assert plane.per_instance == ref.per_instance, f"seed={seed} p={p}"
            assert observables(plane.run) == observables(ref.run), f"seed={seed} p={p}"
            assert plane.run.metrics.drops_total > 0

    @pytest.mark.parametrize("strategy", ["silence-muffled", "gag-sender"])
    def test_adaptive_adversary(self, strategy):
        """``adaptive:STRATEGY`` corruption commits online off metrics
        snapshots — identical commitments and observables either way."""
        committed = {}
        runs = {}
        for mux in ENGINES:
            spec = AdversarySpec(corrupt=(), t=2, strategy=strategy)
            protocols = spec.protocols_for(om_mux_protocols(7, 2, mux))
            runs[mux] = observables(run_protocols(protocols, seed=13))
            committed[mux] = {
                node: behavior.kind
                for node, behavior in committed_corruptions(protocols).items()
            }
        assert committed[InstanceMux] == committed[ReferenceMux]
        assert committed[InstanceMux]  # the strategy did strike
        assert runs[InstanceMux] == runs[ReferenceMux]

    def test_mixed_engine_population(self):
        """Plane and reference muxes interoperate per node: reference
        muxes are plane outsiders fed materialised envelopes, and any
        mixture matches the all-reference run."""
        n, t = 7, 2
        baseline = observables(run_protocols(om_mux_protocols(n, t, ReferenceMux), seed=21))
        for seed in range(3):
            rng = random.Random(seed)
            protocols = [
                rng.choice(ENGINES)(
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
                )
                for node in range(n)
            ]
            assert observables(run_protocols(protocols, seed=21)) == baseline

    def test_zero_recipient_send_moves_no_counter(self):
        """A send standing for zero envelopes is no send on either mux:
        it claims no round and plants no zero-count key at run level, and
        moves neither the instance's rounds nor its messages."""

        class EmptyBroadcaster(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.broadcast(("probe", ctx.node))
                if ctx.round == 3:
                    ctx.broadcast(("probe", "nobody"), to=[])
                    ctx.halt()

        runs = {}
        for mux in ENGINES:
            protocols = [mux({0: EmptyBroadcaster()}, channel="om") for _ in range(3)]
            run = run_protocols(protocols, seed=5)
            metrics = run.metrics
            runs[mux] = (
                observables(run),
                (
                    metrics.rounds_used,
                    dict(metrics.messages_per_round),
                    dict(metrics.messages_per_kind),
                ),
                [(m.outcomes[0].rounds, m.outcomes[0].messages) for m in protocols],
            )
        assert runs[InstanceMux] == runs[ReferenceMux]
        assert runs[InstanceMux][1][:2] == (1, {0: 6})
        assert runs[InstanceMux][2] == [(1, 2)] * 3


class TestDegradedCalendarEquivalence:
    """Arrival-columned plane: it must replay the reference mux
    bit-for-bit under jittered, lossy and partitioned calendars — counts,
    decisions, drop totals and per-instance outcomes alike."""

    def _equal_runs(self, n, t, seed, delivery, spec=None):
        runs = {}
        for mux in ENGINES:
            protocols = om_mux_protocols(n, t, mux)
            if spec is not None:
                protocols = spec.protocols_for(protocols)
            run = run_protocols(protocols, seed=seed, delivery=make_delivery(delivery))
            runs[mux] = observables(run)
        assert runs[InstanceMux] == runs[ReferenceMux], f"seed={seed} delivery={delivery}"
        return runs[InstanceMux]

    @pytest.mark.parametrize("delivery", ["bounded:2", "bounded:4"])
    def test_bounded_jitter(self, delivery):
        """``bounded:d`` with d > 1: one logical batch send splits into
        per-arrival calendar buckets whose schedule must be bit-identical
        to the per-envelope latency draws."""
        for seed in (1, 5):
            self._equal_runs(7, 2, seed, delivery)

    def test_lossy_with_jitter(self):
        """``loss:p`` with delay > 1 draws latency *and* drop decisions
        per recipient from the per-envelope per-link streams."""
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
        reference's parked envelopes."""
        result = self._equal_runs(7, 2, 4, "partition:0-3|4-6@30/defer")
        assert result["drops"] > 0

    @pytest.mark.parametrize("delivery", ["rush:6", "rush:2,5,6"])
    def test_rushing_delivery(self, delivery):
        """Rushing muxes: honest copies to them arrive in the sending
        tick, plain, beside the group of earlier rounds."""
        result = self._equal_runs(7, 2, 8, delivery)
        assert result["deliveries"] > 0

    def test_random_byzantine_under_degraded_delivery(self):
        """Random corrupt sets on top of jittered/lossy calendars: the
        behaviour lenses and the arrival columns compose."""
        kinds = ("silent", "noise", "crash@1", "drop@0.5", "tamper@0.5")
        cases = [(0, "bounded:2"), (1, "loss:0.2:2"), (2, "bounded:3")]
        for seed, delivery in cases:
            rng = random.Random(seed)
            corrupt = tuple(
                (node, rng.choice(kinds))
                for node in sorted(rng.sample(range(1, 7), rng.randint(1, 2)))
            )
            self._equal_runs(7, 2, seed, delivery, spec=AdversarySpec(corrupt=corrupt, t=2))

    @pytest.mark.parametrize("strategy", ["silence-muffled", "gag-sender"])
    def test_adaptive_adversary_under_lossy_jitter(self, strategy):
        """Adaptive corruption reads live metrics; those snapshots (and
        hence the commitments) must not depend on the mux even when the
        calendar is lossy and jittered."""
        committed = {}
        runs = {}
        for mux in ENGINES:
            spec = AdversarySpec(corrupt=(), t=2, strategy=strategy)
            protocols = spec.protocols_for(om_mux_protocols(7, 2, mux))
            runs[mux] = observables(
                run_protocols(protocols, seed=13, delivery=make_delivery("loss:0.2:2"))
            )
            committed[mux] = {
                node: behavior.kind
                for node, behavior in committed_corruptions(protocols).items()
            }
        assert committed[InstanceMux] == committed[ReferenceMux]
        assert runs[InstanceMux] == runs[ReferenceMux]


def noisy_om_run(mux, delivery, **recording):
    """n = 7 OM(2) muxes, node 3 a mux of noise instances instead."""
    n, t = 7, 2
    protocols = om_mux_protocols(n, t, mux)
    pool = akd_noise_pool(n)
    protocols[3] = mux(
        {k: RandomNoiseProtocol(pool, halt_after=t + 1) for k in range(n)}, channel="om"
    )
    return run_protocols(protocols, seed=6, delivery=make_delivery(delivery), **recording)


class TestRecordingOnThePlane:
    """Observing a run never changes its path: with a trace and views
    recorded, the plane still carries every mux, and what it records
    equals what the per-envelope reference records."""

    DELIVERIES = ["sync", "bounded:3", "loss:0.2:2", "rush:6", "partition:0-2|3-6@30/defer"]

    @pytest.mark.parametrize("delivery", DELIVERIES)
    def test_trace_views_and_observables_match_the_reference(self, delivery):
        runs = {
            mux: noisy_om_run(mux, delivery, record_trace=True, record_views=True)
            for mux in ENGINES
        }
        ref, plane = runs[ReferenceMux], runs[InstanceMux]
        assert not plane.trace.truncated
        assert plane.trace.events == ref.trace.events
        assert plane.views == ref.views
        assert observables(plane) == observables(ref)
        assert any(view.rounds for view in plane.views)

    def test_rushing_case_files_same_tick_copies(self):
        """The rush case is not vacuous: honest copies to node 6 arrive
        in the tick they were sent (a send event whose arrival tick is
        its round)."""
        trace = noisy_om_run(InstanceMux, "rush:6", record_trace=True).trace
        same_tick = [e for e in trace.of_kind("send") if e.tick == e.round]
        assert len(same_tick) == 68
        assert {e.detail[0] for e in same_tick} == {6}

    @pytest.mark.parametrize("delivery", DELIVERIES)
    def test_recording_keeps_every_batch_delivery(self, monkeypatch, delivery):
        """A recorded run makes as many ``BatchPlane.deliver`` calls as
        an unrecorded one: recording adds no per-envelope path."""
        calls = []
        deliver = BatchPlane.deliver

        def counting(self, *args):
            calls.append(None)
            return deliver(self, *args)

        monkeypatch.setattr(BatchPlane, "deliver", counting)
        noisy_om_run(InstanceMux, delivery)
        unrecorded = len(calls)
        calls.clear()
        noisy_om_run(InstanceMux, delivery, record_trace=True, record_views=True)
        assert len(calls) == unrecorded > 0


class TestTamperLensInterceptsBatchSends:
    def test_filtered_mux_cannot_leak_through_send_batch(self):
        """Regression: a drop lens around a plane mux must suppress the
        same messages it suppresses around a reference mux — batch sends
        re-materialise through the per-message filter instead of slipping
        past it via attribute delegation."""
        from repro.faults.behaviors import TamperingProtocol

        n, t = 5, 1
        runs = {}
        for mux in ENGINES:
            protocols = om_mux_protocols(n, t, mux)
            protocols[2] = TamperingProtocol(
                protocols[2], should_send=lambda round_, to, payload: to != 4
            )
            runs[mux] = observables(run_protocols(protocols, seed=17))
        assert runs[InstanceMux] == runs[ReferenceMux]
        # The lens bit on both muxes: node 2 sent fewer envelopes than an
        # unfiltered node of the same run.
        per_sender = runs[InstanceMux]["per_sender"]
        assert per_sender[2] < per_sender[1]


class _EnvelopeShapeProbe(Protocol):
    """Asserts materialised batch envelopes match plain envelopes
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


class _InboxOrderProbe(Protocol):
    """Records every envelope it reads, in order; broadcasts twice."""

    def __init__(self):
        self.seen = []

    def on_round(self, ctx, inbox):
        self.seen.extend((env.sender, env.payload, env.round_sent) for env in inbox)
        if ctx.round < 2:
            ctx.broadcast(("probe", ctx.node, ctx.round))
        else:
            ctx.decide(tuple(self.seen))
            ctx.halt()


class TestMaterializedEnvelopes:
    def test_batch_materialisation_matches_object_envelopes(self):
        """An instance protocol without ``supports_batch_inbox`` reads
        batch traffic as envelopes indistinguishable from the
        reference's."""
        decisions = {}
        for mux in ENGINES:
            protocols = [mux({0: _EnvelopeShapeProbe()}, channel="om") for _ in range(3)]
            run_protocols(protocols, seed=5)
            decisions[mux] = [m.outcomes[0].decision for m in protocols]
        assert decisions[InstanceMux] == decisions[ReferenceMux]
        assert decisions[InstanceMux][1] == ((0, ("probe", 0), 0),)

    def test_plain_traffic_is_spliced_into_the_materialised_inbox(self):
        """Mixed population, envelope-reading instances: a plane node
        hears plane peers through its batch group and reference peers
        through plain envelopes, and reads one sender-sorted inbox —
        the all-reference run's."""
        decisions = []
        for muxes in (
            (ReferenceMux,) * 5,
            (InstanceMux, ReferenceMux, InstanceMux, ReferenceMux, InstanceMux),
            (ReferenceMux, InstanceMux, InstanceMux, ReferenceMux, ReferenceMux),
        ):
            protocols = [mux({0: _InboxOrderProbe()}, channel="om") for mux in muxes]
            run_protocols(protocols, seed=5)
            decisions.append([m.outcomes[0].decision for m in protocols])
        assert decisions[0] == decisions[1] == decisions[2]
        assert [sender for sender, _, _ in decisions[0][0][:4]] == [1, 2, 3, 4]

    def test_same_tick_copies_follow_the_group_in_arrival_order(self):
        """Two rushing plane muxes read, per tick, the other rusher's
        previous-tick copy first and the honest same-tick copies after
        it — the reference's per-inbox arrival order, not sender order."""
        decisions = {}
        for mux in ENGINES:
            protocols = [mux({0: _InboxOrderProbe()}, channel="om") for _ in range(5)]
            run_protocols(protocols, seed=5, delivery=make_delivery("rush:1,4"))
            decisions[mux] = [m.outcomes[0].decision for m in protocols]
        assert decisions[InstanceMux] == decisions[ReferenceMux]
        # Node 4's second tick: rusher 1's tick-0 copy, then honest 0, 2, 3.
        assert [sender for sender, _, _ in decisions[InstanceMux][4][3:7]] == [1, 0, 2, 3]


class _FilingProbe(Protocol):
    """Runs a mux and logs, per tick before stepping it, the wrapped
    copies in its inbox and the group entries addressed to it, each as
    ``(sender, round_sent)``."""

    def __init__(self, mux):
        self.mux = mux
        self.inbox = {}
        self.groups = {}

    def setup(self, ctx):
        self.mux.setup(ctx)

    def on_round(self, ctx, inbox):
        tick, me = ctx.round, ctx.node
        self.inbox[tick] = [
            (env.sender, env.round_sent)
            for env in inbox
            if mux_unwrap(env.payload, "om") is not None
        ]
        self.groups[tick] = [
            (env.sender, env.round_sent)
            for group in ctx.batch_groups("om").values()
            for env in group.envelopes_for(me)
        ]
        self.mux.on_round(ctx, inbox)


class TestOneFilingRule:
    """A wrapped copy addressed to a consumer lands in its group on
    every path, never in its inbox."""

    def test_plain_wrapped_copy_is_grouped_under_sync(self):
        """Lock-step: the reference mux at node 0 sends plain wrapped
        envelopes; the plane mux at node 1 reads them in its group, in
        sender order with the plane peer's record."""
        probe = _FilingProbe(InstanceMux({0: _InboxOrderProbe()}, channel="om"))
        protocols = [
            ReferenceMux({0: _InboxOrderProbe()}, channel="om"),
            probe,
            InstanceMux({0: _InboxOrderProbe()}, channel="om"),
        ]
        run_protocols(protocols, seed=5)
        assert probe.inbox[1] == []
        assert probe.groups[1] == [(0, 0), (2, 0)]

    def test_rushed_copy_is_grouped(self):
        """``rush:2``: in tick 0 the honest same-tick copies to the
        rushing plane mux land in its group, not in its inbox."""
        probe = _FilingProbe(InstanceMux({0: _InboxOrderProbe()}, channel="om"))
        protocols = [InstanceMux({0: _InboxOrderProbe()}, channel="om") for _ in range(2)]
        run_protocols([*protocols, probe], seed=5, delivery=make_delivery("rush:2"))
        assert probe.inbox[0] == []
        assert probe.groups[0] == [(0, 0), (1, 0)]


#: Deliveries whose calendar is lock-step in effect: each must replay
#: ``sync`` exactly, though the kernel runs them on its calendar path.
LOCKSTEP_EQUIVALENTS = ("bounded:1", "loss:0.0", "loss:0.0:1", "partition:0-6@1")


def without_deliveries(run):
    """A run's observables but ``deliveries``, which lock-step leaves at 0."""
    seen = observables(run)
    del seen["deliveries"]
    return seen


class TestCrossPathIdentity:
    """The lock-step drain and the calendar drain file mux traffic by
    one rule, so a mux run equals its ``sync`` run on every calendar
    that is lock-step in effect."""

    @pytest.mark.parametrize(
        "adversary",
        [None, "6=noise", "6=tamper@0.5", "6=equivocate", "6=silent", "5=crash@1", "6=drop@0.5"],
    )
    def test_akd(self, adversary):
        def akd(delivery):
            run = run_agreement_key_distribution(
                7, 2, seed=3, adversary=adversary, delivery=delivery
            ).run
            return without_deliveries(run)

        sync = akd(None)
        for delivery in LOCKSTEP_EQUIVALENTS:
            assert akd(delivery) == sync, f"delivery={delivery}"

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_mux_population(self, seed):
        def mixed(delivery):
            rng = random.Random(seed)
            protocols = [
                rng.choice(ENGINES)(om_instances(7, 2, node), channel="om")
                for node in range(7)
            ]
            return without_deliveries(
                run_protocols(protocols, seed=seed, delivery=make_delivery(delivery))
            )

        sync = mixed("sync")
        for delivery in LOCKSTEP_EQUIVALENTS:
            assert mixed(delivery) == sync, f"delivery={delivery}"


def filed_records(monkeypatch):
    """Every :class:`BatchRecord` the kernel files from now on, in order."""
    filed = []

    def record(*args):
        filed.append(BatchRecord(*args))
        return filed[-1]

    monkeypatch.setattr(kernel, "BatchRecord", record)
    return filed


class _DuplicateRecipients(Protocol):
    """Node 1 sends one probe to ``[2, 2, 0]`` in round 0; everyone
    decides the senders it heard in round 1 and halts."""

    def on_round(self, ctx, inbox):
        if ctx.round == 0 and ctx.node == 1:
            ctx.broadcast(("probe", 1), to=[2, 2, 0])
        if ctx.round == 1:
            ctx.decide(tuple(env.sender for env in inbox))
            ctx.halt()


class TestRecipientMasks:
    """A record's recipient set is ``None`` (all but the sender) or one
    int bitmask with bit ``r`` set per recipient ``r``."""

    def test_lossy_records_hold_masks_of_the_surviving_copies(self, monkeypatch):
        """Under ``loss:0.05:2`` every filed record's target is ``None``
        or an int, and its recipients are exactly the copies the trace
        logs as sent (not dropped): per copy, and in total."""
        n = 16
        filed = filed_records(monkeypatch)
        run = run_protocols(
            om_mux_protocols(n, 1),
            seed=3,
            delivery=make_delivery("loss:0.05:2"),
            record_trace=True,
        )
        assert filed and all(r.target is None or type(r.target) is int for r in filed)
        assert any(r.target is not None and r.target.bit_count() > 1 for r in filed)
        for r in filed:
            assert r.recipient_count(n) == len(r.envelopes(n))
            assert r.target is None or not r.target >> r.sender & 1
        metrics = run.metrics
        assert metrics.drops_total > 0
        assert sum(r.recipient_count(n) for r in filed) == (
            metrics.messages_total - metrics.drops_total
        )
        copies = sorted(
            (env.sender, env.round_sent, env.recipient) for r in filed for env in r.envelopes(n)
        )
        sent = sorted(
            (event.node, event.round, event.detail[0]) for event in run.trace.of_kind("send")
        )
        assert copies == sent

    @pytest.mark.parametrize("delivery", [None, "loss:0"])
    def test_duplicate_explicit_recipients_get_one_single_bit_record_each(
        self, monkeypatch, delivery
    ):
        """``to=[2, 2, 0]`` files three single-bit records in list order
        (lock-step and calendar paths alike), and node 2 hears twice."""
        filed = filed_records(monkeypatch)
        protocols = [InstanceMux({0: _DuplicateRecipients()}, channel="om") for _ in range(3)]
        run_protocols(
            protocols, seed=5, delivery=None if delivery is None else make_delivery(delivery)
        )
        assert [r.target for r in filed] == [1 << 2, 1 << 2, 1 << 0]
        assert [r.recipient_count(3) for r in filed] == [1, 1, 1]
        assert [m.outcomes[0].decision for m in protocols] == [(1,), (), (1, 1)]

    def test_envelopes_list_recipients_in_ascending_order(self):
        """``envelopes(n)`` walks the mask's bits upward (the order the
        per-envelope path files copies in); ``None`` skips the sender."""
        wrapped = mux_wrap("om", 0, "x")
        subset = BatchRecord("om", 0, 4, "x", 1 << 6 | 1 << 1 | 1 << 3, 0)
        everyone = BatchRecord("om", 0, 4, "x", None, 0)
        assert [env.recipient for env in subset.envelopes(8)] == [1, 3, 6]
        assert [env.recipient for env in everyone.envelopes(8)] == [0, 1, 2, 3, 5, 6, 7]
        assert subset.envelopes(8)[0] == Envelope(4, 1, wrapped, 0)
        assert (subset.recipient_count(8), everyone.recipient_count(8)) == (3, 7)
