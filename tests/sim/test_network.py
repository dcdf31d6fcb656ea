"""Delivery models: spec parsing, jitter determinism, rushing semantics,
draw-ahead link streams against the live-stream oracle."""

from __future__ import annotations

import pickle
import pickletools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim import (
    AdversarialOrder,
    BoundedDelay,
    Envelope,
    LossyDelivery,
    PartitionedDelivery,
    Protocol,
    SynchronousRounds,
    available_deliveries,
    make_delivery,
    run_protocols,
)

from ._reference_links import reference_for


class TestMakeDelivery:
    def test_none_and_sync_are_lockstep(self):
        assert make_delivery(None).lockstep
        assert isinstance(make_delivery("sync"), SynchronousRounds)

    def test_bounded_default_and_explicit(self):
        assert make_delivery("bounded").delay == 2
        assert make_delivery("bounded:5").delay == 5

    def test_rush_from_spec_and_fallback_set(self):
        assert make_delivery("rush:3,5").rushing == frozenset({3, 5})
        assert make_delivery("rush", rushing=[1, 2]).rushing == frozenset({1, 2})
        # An explicit spec list wins over the fallback.
        assert make_delivery("rush:4", rushing=[1]).rushing == frozenset({4})

    @pytest.mark.parametrize("spec", ["rush:", "rush:,", "rush:,,"])
    def test_rush_with_an_empty_node_list_is_rejected(self, spec):
        """A colon promises a node list: an empty one neither falls back
        to the faulty set nor builds an empty rushing set."""
        with pytest.raises(ConfigurationError) as excinfo:
            make_delivery(spec, rushing=[1, 2])
        assert repr(spec) in str(excinfo.value)

    def test_instance_passes_through(self):
        model = BoundedDelay(3)
        assert make_delivery(model) is model

    @pytest.mark.parametrize(
        "spec", ["warp", "bounded:x", "rush:a", "sync:1", "bounded:"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            make_delivery(spec)

    @pytest.mark.parametrize(
        "spec, match",
        [
            # A colon promises an argument: an empty one is no default.
            ("bounded:", "integer"),
            ("loss:", "must look like"),
            ("partition:6-0@1", "block '6-0' names no node"),
            ("partition:0-3|4-6@0", "heal tick must be >= 1.*got 0"),
        ],
    )
    def test_a_spec_naming_nothing_is_rejected(self, spec, match):
        with pytest.raises(ConfigurationError, match=match) as excinfo:
            make_delivery(spec)
        assert repr(spec) in str(excinfo.value)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("rush:99", "[99]"),
            ("rush:-1", "[-1]"),
            ("partition:0-99@1", "7, 8, 9, ..."),
            ("partition:0-2|3-6,9@3/defer", "9"),
        ],
    )
    def test_a_node_outside_the_run_fails_at_bind(self, spec, named):
        """Node ranges are checked once the run's size is known: the
        error names the spec, the nodes outside it and n."""
        model = make_delivery(spec)
        with pytest.raises(ConfigurationError) as excinfo:
            _chatter_run(7, model)
        message = str(excinfo.value)
        assert f"names node(s) {named} outside 0..6 (n=7)" in message
        assert "permutation" not in message
        assert repr(spec.replace("3-6,9", "3,4,5,6,9")) in message

    def test_available_deliveries_lists_all(self):
        assert available_deliveries() == [
            "bounded", "loss", "partition", "rush", "sync"
        ]

    def test_loss_specs(self):
        model = make_delivery("loss:0.25")
        assert model.p == 0.25 and model.delay == 1
        jittered = make_delivery("loss:0.1:3")
        assert jittered.p == 0.1 and jittered.delay == 3
        with pytest.raises(ConfigurationError):
            make_delivery("loss:1.5")
        with pytest.raises(ConfigurationError):
            make_delivery("loss:x")

    def test_partition_specs(self):
        model = make_delivery("partition:0-2|3-5@6")
        assert model.schedule == (
            (0, (frozenset({0, 1, 2}), frozenset({3, 4, 5}))),
            (6, None),
        )
        assert not model.defer
        deferred = make_delivery("partition:0-1|2-3@4/defer")
        assert deferred.defer
        with pytest.raises(ConfigurationError):
            make_delivery("partition:0-2|3-5")  # no heal tick
        with pytest.raises(ConfigurationError):
            make_delivery("partition:0-2|2-5@6")  # overlapping blocks

    @pytest.mark.parametrize(
        "spec",
        ["loss:0.2:2:9", "loss:0.2:2:", "bounded:2:9", "rush:1:2", "partition:0-1|2-3@4:9"],
    )
    def test_fields_beyond_the_grammar_rejected(self, spec):
        """Specs fail closed: a trailing field is an error quoting the
        spec, never silently dropped."""
        with pytest.raises(ConfigurationError) as excinfo:
            make_delivery(spec)
        assert repr(spec) in str(excinfo.value)

    def test_bad_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedDelay(0)


class _Bind:
    """Minimal kernel stand-in for exercising arrival_tick directly."""

    def __init__(self, seed, n):
        self.seed = seed
        self.n = n


class TestBoundedDelayJitter:
    @given(seed=st.integers(0, 2**16), delay=st.integers(1, 5),
           tick=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_arrival_within_bound(self, seed, delay, tick):
        model = BoundedDelay(delay)
        model.bind(_Bind(seed, 2))
        env = Envelope(0, 1, "x", tick)
        arrival = model.arrival_tick(env, tick)
        assert tick + 1 <= arrival <= tick + delay

    def test_per_link_streams_are_deterministic(self):
        def schedule(seed):
            model = BoundedDelay(4)
            model.bind(_Bind(seed, 3))
            return [
                model.arrival_tick(Envelope(s, r, "x", t), t)
                for t in range(5)
                for s in range(3)
                for r in range(3)
                if s != r
            ]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_rebind_resets_link_streams(self):
        model = BoundedDelay(4)
        model.bind(_Bind(3, 2))
        first = [
            model.arrival_tick(Envelope(0, 1, "x", t), t) for t in range(8)
        ]
        model.bind(_Bind(3, 2))
        assert first == [
            model.arrival_tick(Envelope(0, 1, "x", t), t) for t in range(8)
        ]


_N = 5
_OTHERS = {s: tuple(r for r in range(_N) if r != s) for s in range(_N)}
#: Sends from node 0 to every other node per hot burst: three bursts
#: take each ``0 -> r`` link past 256 outcomes, i.e. through three refills.
_BURST = 90

_link_models = st.one_of(
    st.integers(2, 5).map(lambda delay: f"bounded:{delay}"),
    st.floats(0.05, 0.6).map(lambda p: f"loss:{p}"),
    st.tuples(st.floats(0.05, 0.6), st.integers(2, 3)).map(
        lambda pd: f"loss:{pd[0]}:{pd[1]}"
    ),
)


@st.composite
def _link_programs(draw):
    """A seed, a fan-out pool (every broadcast plus a few ordered
    subsets) and a random interleaving of per-envelope sends, repeated
    fan-outs and pickle round-trips, with three hot bursts from node 0."""
    pool = [(s, _OTHERS[s]) for s in range(_N)]
    for sender in draw(st.lists(st.integers(0, _N - 1), max_size=3)):
        recipients = draw(st.permutations(_OTHERS[sender]))
        pool.append((sender, tuple(recipients[: draw(st.integers(1, _N - 1))])))
    ticks = st.integers(0, 30)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("send"), st.integers(0, _N - 1), st.integers(1, _N - 1), ticks),
                st.tuples(st.just("batch"), st.integers(0, len(pool) - 1), ticks),
                st.just(("pickle",)),
            ),
            max_size=40,
        )
    )
    for _ in range(3):
        ops.insert(draw(st.integers(0, len(ops))), ("burst",))
    return draw(st.integers(0, 2**16)), pool, ops


def _divergences(model, seed, pool, ops):
    """Run ``ops`` on ``model`` and on its live-stream twin.

    Returns every ``(step, got, expected)`` where an arrival or drop
    differs, and the model as it ends (pickle round-trips replace it).
    """
    oracle = reference_for(model)
    model.bind(_Bind(seed, _N))
    oracle.bind(_Bind(seed, _N))
    diverged = []

    def both(step, method, *args):
        got = getattr(model, method)(*args)
        expected = getattr(oracle, method)(*args)
        if got != expected:
            diverged.append((step, got, expected))

    for step, op in enumerate(ops):
        if op[0] == "send":
            _, sender, offset, tick = op
            recipient = (sender + offset) % _N
            both(step, "arrival_tick", Envelope(sender, recipient, "x", tick), tick)
        elif op[0] == "batch":
            sender, recipients = pool[op[1]]
            both(step, "batch_arrivals", sender, recipients, op[2])
        elif op[0] == "burst":
            for tick in range(_BURST):
                if tick % 3:
                    both(step, "batch_arrivals", 0, _OTHERS[0], tick)
                    continue
                for recipient in _OTHERS[0]:
                    both(step, "arrival_tick", Envelope(0, recipient, "x", tick), tick)
        else:
            model = pickle.loads(pickle.dumps(model))
    return diverged, model


class _ShortReplay:
    """Mutation: every refill replays one outcome too few."""

    def _fill(self, sender, recipient):
        link = sender * self._n + recipient
        if self._drawn[link]:
            self._drawn[link] -= 1
        return super()._fill(sender, recipient)


class _ShortReplayLossy(_ShortReplay, LossyDelivery):
    pass


class _ShortReplayBounded(_ShortReplay, BoundedDelay):
    pass


def _pickled_globals(data: bytes) -> set[str]:
    """``"module name"`` of every global a pickle references."""
    found, strings = set(), []
    for opcode, arg, _ in pickletools.genops(data):
        if opcode.name == "GLOBAL":
            found.add(arg)
        elif opcode.name == "STACK_GLOBAL":
            found.add(" ".join(strings[-2:]))
        if isinstance(arg, str):
            strings.append(arg)
    return found


class TestDrawAheadLinks:
    """A link's pre-drawn outcomes equal the live per-link stream's draws,
    whatever the call path, chunking or pickle point."""

    @given(spec=_link_models, program=_link_programs())
    @settings(max_examples=40, deadline=None)
    def test_every_outcome_equals_the_live_stream_oracle(self, spec, program):
        diverged, model = _divergences(make_delivery(spec), *program)
        assert diverged == []
        # The bursts took every hot link through three refills
        # (16 -> 64 -> 256 -> 1024 outcomes drawn).
        assert min(model._drawn[0 * _N + r] for r in _OTHERS[0]) == 1024

    @pytest.mark.parametrize(
        "model", [_ShortReplayLossy(0.3, delay=2), _ShortReplayBounded(4)],
        ids=["loss", "bounded"],
    )
    def test_a_replay_one_outcome_short_is_caught(self, model):
        diverged, _ = _divergences(model, 7, [], [("burst",)])
        assert diverged

    def test_a_delay_past_one_byte_widens_the_outcome_arrays(self):
        """``bounded:300`` stores latencies as ``H``: every outcome, 256
        and above included, still equals the live stream's."""
        pool = [(s, _OTHERS[s]) for s in range(_N)]
        ops = [("burst",), ("batch", 0, 3), ("pickle",), ("send", 1, 2, 4), ("burst",)]
        diverged, model = _divergences(make_delivery("bounded:300"), 11, pool, ops)
        assert diverged == []
        hot = model._links[0 * _N + 1]
        assert hot.typecode == "H" and max(hot) > 255

    @pytest.mark.parametrize("spec", ["bounded:{}", "loss:0.1:{}"])
    def test_a_delay_past_the_widest_array_fails_closed(self, spec):
        cap = 2**64 - 1
        assert make_delivery(spec.format(cap))._typecode == "Q"
        with pytest.raises(ConfigurationError, match=f"delay must be <= {cap}"):
            make_delivery(spec.format(cap + 1))

    def test_links_hold_outcomes_not_streams(self):
        """Ten draws on each of n = 64's 4,032 links stay within 160 B a
        link (a live ``random.Random`` alone is ~2.5 KiB), and the
        pickled model carries no stream."""
        model = LossyDelivery(0.2)
        model.bind(_Bind(0, 64))
        envelopes = [Envelope(s, r, "x", 0) for s in range(64) for r in range(64) if s != r]
        tracemalloc.start()
        try:
            for tick in range(10):
                for envelope in envelopes:
                    model.arrival_tick(envelope, tick)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= len(envelopes) * 160
        assert "random Random" in _pickled_globals(pickle.dumps(random.Random(0)))
        assert "random Random" not in _pickled_globals(pickle.dumps(model))


class TestAdversarialOrder:
    def test_rushing_nodes_activate_last(self):
        model = AdversarialOrder(rushing=[1, 3])
        assert list(model.activation_order(5)) == [0, 2, 4, 1, 3]

    def test_only_honest_to_rushing_is_same_tick(self):
        model = AdversarialOrder(rushing=[2])
        assert model.arrival_tick(Envelope(0, 2, "x", 4), 4) == 4
        assert model.arrival_tick(Envelope(0, 1, "x", 4), 4) == 5
        assert model.arrival_tick(Envelope(2, 0, "x", 4), 4) == 5

    def test_rushing_node_observes_same_round_traffic_end_to_end(self):
        observed = []

        class Talker(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round < 2:
                    ctx.broadcast(("say", ctx.node, ctx.round))
                else:
                    ctx.halt()

        class Spy(Protocol):
            def on_round(self, ctx, inbox):
                observed.extend(
                    (ctx.round, env.payload[2]) for env in inbox
                )
                if ctx.round >= 2:
                    ctx.halt()

        run_protocols(
            [Talker(), Talker(), Spy()],
            delivery=AdversarialOrder(rushing=[2]),
        )
        assert observed
        # Every observation happens in the very round it was emitted.
        assert all(tick == emitted for tick, emitted in observed)

    def test_honest_nodes_keep_lockstep_timing(self):
        arrivals = []

        class Talker(Protocol):
            def on_round(self, ctx, inbox):
                arrivals.extend(
                    (ctx.round, env.round_sent) for env in inbox
                )
                if ctx.round < 2:
                    ctx.broadcast(("say", ctx.node, ctx.round))
                else:
                    ctx.halt()

        run_protocols(
            [Talker(), Talker(), Talker()],
            delivery=AdversarialOrder(rushing=[]),
        )
        assert arrivals and all(t == sent + 1 for t, sent in arrivals)


class _Chatter(Protocol):
    """Broadcasts a tagged payload every round for ``rounds`` rounds and
    records what it receives — the probe protocol for the unreliable
    models."""

    def __init__(self, rounds=4, log=None):
        self._rounds = rounds
        self.log = log if log is not None else []

    def on_round(self, ctx, inbox):
        self.log.extend(
            (ctx.round, ctx.node, env.sender, env.payload) for env in inbox
        )
        if ctx.round < self._rounds:
            ctx.broadcast(("say", ctx.node, ctx.round))
        else:
            ctx.halt()


def _chatter_run(n, delivery, seed=0, rounds=4):
    log = []
    result = run_protocols(
        [_Chatter(rounds, log) for _ in range(n)], seed=seed, delivery=delivery
    )
    return result, sorted(log)


class TestLossyDelivery:
    def test_rejects_bad_probability(self):
        for p in (-0.1, 1.0, 2.0):
            with pytest.raises(ConfigurationError):
                LossyDelivery(p)

    def test_zero_loss_delivers_everything(self):
        result, log = _chatter_run(3, LossyDelivery(0.0), seed=3)
        assert result.metrics.drops_total == 0
        assert result.metrics.loss_rate == 0.0
        # All pre-final-tick broadcasts arrive (final-tick sends are
        # never delivered — the run ends when all nodes halt).
        assert len(log) > 0

    def test_drops_are_counted_and_missing_from_inboxes(self):
        result, log = _chatter_run(4, LossyDelivery(0.4), seed=7)
        metrics = result.metrics
        assert metrics.drops_total > 0
        assert 0.0 < metrics.loss_rate < 1.0
        assert metrics.deliveries_total + metrics.drops_total <= metrics.messages_total
        assert sum(metrics.dropped_per_round.values()) == metrics.drops_total

    @given(seed=st.integers(0, 2**16), p=st.floats(0.05, 0.6))
    @settings(max_examples=30, deadline=None)
    def test_reruns_reproduce_every_arrival_and_drop(self, seed, p):
        """The determinism contract under loss: same seed -> the same
        drops, the same arrivals, bit-for-bit."""
        first_result, first_log = _chatter_run(4, LossyDelivery(p), seed=seed)
        second_result, second_log = _chatter_run(4, LossyDelivery(p), seed=seed)
        assert first_log == second_log
        assert first_result.metrics.drops_total == second_result.metrics.drops_total
        assert (
            first_result.metrics.dropped_per_round
            == second_result.metrics.dropped_per_round
        )
        assert (
            first_result.metrics.delivered_per_tick
            == second_result.metrics.delivered_per_tick
        )

    def test_seed_changes_the_drop_schedule(self):
        schedules = [
            _chatter_run(4, LossyDelivery(0.4), seed=seed)[0].metrics.dropped_per_round
            for seed in (1, 2)
        ]
        assert schedules[0] != schedules[1]


class TestPartitionedDelivery:
    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionedDelivery(())
        with pytest.raises(ConfigurationError):
            PartitionedDelivery(((0, ({0, 1}, {1, 2})),))  # overlap
        with pytest.raises(ConfigurationError):
            PartitionedDelivery(((2, None),))  # first epoch must start at 0
        with pytest.raises(ConfigurationError):
            PartitionedDelivery(((0, None), (0, ({0},))))  # duplicate start

    def test_cross_block_traffic_is_dropped_until_heal(self):
        heal = 3
        model = PartitionedDelivery(((0, ({0, 1}, {2, 3})), (heal, None)))
        result, log = _chatter_run(4, model, seed=1, rounds=5)
        # Pre-heal cross-block messages were dropped and counted ...
        assert result.metrics.drops_total > 0
        same_block = {(0, 1), (1, 0), (2, 3), (3, 2)}
        for tick, receiver, sender, payload in log:
            if payload[2] < heal:
                # ... so anything delivered from the partitioned epochs
                # stayed within a block.
                assert (sender, receiver) in same_block, (sender, receiver)
        # After the heal, cross-block traffic flows again.
        assert any(
            (sender, receiver) not in same_block
            for _, receiver, sender, payload in log
            if payload[2] >= heal
        )

    def test_defer_parks_messages_until_heal(self):
        heal = 3
        model = PartitionedDelivery(
            ((0, ({0, 1}, {2, 3})), (heal, None)), defer=True
        )
        result, log = _chatter_run(4, model, seed=1, rounds=5)
        # Nothing is lost: deferred, not dropped.
        assert result.metrics.drops_total == 0
        same_block = {(0, 1), (1, 0), (2, 3), (3, 2)}
        deferred = [
            (tick, receiver, sender, payload)
            for tick, receiver, sender, payload in log
            if payload[2] < heal and (sender, receiver) not in same_block
        ]
        # Every pre-heal cross-block emission arrives exactly when the
        # partition heals (one hop after the first connected tick).
        assert deferred
        assert all(tick == heal + 1 for tick, _, _, _ in deferred)
        # In-block traffic was never delayed.
        assert all(
            tick == payload[2] + 1
            for tick, receiver, sender, payload in log
            if (sender, receiver) in same_block
        )

    def test_deferred_messages_past_run_end_are_swept_as_drops(self):
        """The defer-until-heal edge case: a heal landing at or after
        the run's end leaves deferred envelopes parked in the calendar.
        They must leave an audit trail — counted in ``drops_total`` and
        visible as ``drop`` trace events — not vanish silently."""
        heal = 100  # far beyond the chatter run's natural end
        model = PartitionedDelivery(
            ((0, ({0, 1}, {2, 3})), (heal, None)), defer=True
        )
        log = []
        result = run_protocols(
            [_Chatter(4, log) for _ in range(4)],
            seed=1,
            delivery=model,
            record_trace=True,
        )
        same_block = {(0, 1), (1, 0), (2, 3), (3, 2)}
        # Nothing cross-block was ever delivered ...
        assert all((s, r) in same_block for _, r, s, _ in log)
        # ... and every parked envelope was swept into the drop ledger.
        assert result.metrics.drops_total > 0
        drop_events = result.trace.of_kind("drop")
        assert len(drop_events) == result.metrics.drops_total
        assert all(
            (event.node, event.detail[0]) not in same_block
            for event in drop_events
        )

    def test_heal_within_the_run_still_sweeps_nothing(self):
        heal = 3
        model = PartitionedDelivery(
            ((0, ({0, 1}, {2, 3})), (heal, None)), defer=True
        )
        result, _ = _chatter_run(4, model, seed=1, rounds=5)
        assert result.metrics.drops_total == 0

    @given(seed=st.integers(0, 2**10))
    @settings(max_examples=20, deadline=None)
    def test_partition_runs_are_deterministic(self, seed):
        model = lambda: PartitionedDelivery(  # noqa: E731 - fresh each run
            ((0, ({0, 1}, {2, 3})), (4, None)), defer=True
        )
        assert _chatter_run(4, model(), seed=seed) == _chatter_run(
            4, model(), seed=seed
        )


class TestCrashRecovery:
    def test_recovered_node_resumes_with_inbox_intact(self):
        from repro.faults import CrashProtocol

        seen = []

        class Receiver(Protocol):
            def on_round(self, ctx, inbox):
                seen.extend((ctx.round, env.sender, env.payload) for env in inbox)
                if ctx.round >= 4:
                    ctx.halt()

        crashed = CrashProtocol(Receiver(), crash_round=1, recover_round=3)
        run_protocols([_Chatter(4), _Chatter(4), crashed], seed=2)
        # Broadcasts emitted in rounds 0..2 arrive at ticks 1..3; the
        # node is down for ticks 1 and 2, so the inner protocol sees
        # those arrivals only at the recovery tick — but it *does* see
        # them: the inbox survives the outage intact.
        outage_payloads = {p for t, _, p in seen if t == 3}
        assert {("say", 0, 0), ("say", 0, 1), ("say", 0, 2)} <= outage_payloads
        # And nothing was handed over while the node was down.
        assert all(t == 0 or t >= 3 for t, _, _ in seen)

    def test_recovery_must_follow_crash(self):
        from repro.faults import CrashProtocol

        with pytest.raises(ValueError):
            CrashProtocol(_Chatter(), crash_round=3, recover_round=3)

    @given(seed=st.integers(0, 2**10), crash=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_crash_recovery_is_deterministic(self, seed, crash):
        from repro.faults import CrashProtocol

        def run_once():
            log = []
            inner = _Chatter(5, log)
            protocols = [
                _Chatter(5),
                _Chatter(5),
                CrashProtocol(inner, crash_round=crash, recover_round=crash + 2),
            ]
            result = run_protocols(protocols, seed=seed, delivery=BoundedDelay(2))
            return sorted(log), result.metrics.messages_total

        assert run_once() == run_once()
