"""Event kernel: sync equivalence, event-level determinism, causality.

The acceptance property of the kernel refactor, in the mould of the
dense-vs-succinct engine equivalence tests: running any protocol set
under :class:`~repro.sim.network.SynchronousRounds` on the event kernel
is *bit-for-bit identical* to the pre-kernel lock-step loop — decisions,
rounds, per-round/per-sender/per-kind message counters, byte counters,
trace events and recorded views — including under random Byzantine
behaviour.  ``tests/sim/_reference_runner.py`` keeps the old loop
verbatim as the oracle.  A second pass runs the same property through
``BoundedDelay(1)`` — semantically lock-step but on the kernel's general
calendar path — proving the event machinery itself preserves the
synchronous semantics, not just the fast path.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.agreement import make_oral_agreement_protocols
from repro.auth import trusted_dealer_setup
from repro.errors import ConfigurationError, ProtocolViolationError, SimulationError
from repro.faults import (
    CrashProtocol,
    RandomNoiseProtocol,
    RushMirrorProtocol,
    SilentProtocol,
)
from repro.fd.timeout import make_timeout_fd_protocols
from repro.sim import (
    BoundedDelay,
    DeliveryModel,
    EventKernel,
    Metrics,
    Protocol,
    SynchronousRounds,
    collect_instances,
    make_delivery,
    run_protocols,
)

from ._reference_runner import ReferenceRunner
from .test_batch import om_mux_protocols

N, T = 7, 2

BYZANTINE_KINDS = ("silent", "noise", "crash", "mirror")


def build_protocols(spec, value="v"):
    """Oral-agreement protocols with the spec's Byzantine replacements.

    Protocols are stateful, so every engine run builds a fresh set.
    """
    protocols = make_oral_agreement_protocols(N, T, value)
    for node, kind in spec:
        if kind == "silent":
            protocols[node] = SilentProtocol()
        elif kind == "noise":
            protocols[node] = RandomNoiseProtocol(
                pool=(("om-value", 0, "x"), "junk", 17), halt_after=T + 1
            )
        elif kind == "crash":
            protocols[node] = CrashProtocol(protocols[node], crash_round=1)
        elif kind == "mirror":
            protocols[node] = RushMirrorProtocol(halt_after=T + 1)
    return protocols


def observables(result, include_trace=True):
    """Everything the equivalence contract promises, as one comparable."""
    data = {
        "rounds_executed": result.rounds_executed,
        "decisions": {k: repr(v) for k, v in result.decisions().items()},
        "states": [
            (s.node, s.decided, repr(s.decision), s.discovered, s.halted)
            for s in result.states
        ],
        "messages": result.metrics.messages_total,
        "rounds": result.metrics.rounds_used,
        "per_round": dict(result.metrics.messages_per_round),
        "per_sender": dict(result.metrics.messages_per_sender),
        "per_kind": dict(result.metrics.messages_per_kind),
        "bytes": result.metrics.bytes_total,
        "bytes_per_round": dict(result.metrics.bytes_per_round),
        "views": [view.rounds for view in result.views],
    }
    if include_trace and result.trace is not None:
        # Compare the semantic event stream; the delivery-tick annotation
        # is new kernel information and excluded deliberately.
        data["trace"] = [
            (e.round, e.kind, e.node, e.detail) for e in result.trace.events
        ]
        data["trace_truncated"] = result.trace.truncated
    return data


@st.composite
def byzantine_specs(draw):
    """Up to T faulty nodes, each with a random generic behaviour."""
    faulty = draw(st.sets(st.integers(min_value=0, max_value=N - 1), max_size=T))
    return tuple(
        (node, draw(st.sampled_from(BYZANTINE_KINDS))) for node in sorted(faulty)
    )


class TestSyncKernelEqualsReferenceRunner:
    @given(spec=byzantine_specs(), seed=st.integers(0, 2**16),
           recording=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit_under_random_byzantine_behaviour(
        self, spec, seed, recording
    ):
        """The headline property: kernel + SynchronousRounds == the old loop."""
        reference = ReferenceRunner(
            build_protocols(spec), seed=seed,
            record_views=recording, record_trace=recording,
        ).run()
        kernel = EventKernel(
            build_protocols(spec), seed=seed,
            record_views=recording, record_trace=recording,
        ).run()
        assert observables(kernel) == observables(reference), (
            f"sync kernel diverged from reference; spec={spec}"
        )

    @given(spec=byzantine_specs(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_general_event_path_preserves_lockstep_semantics(self, spec, seed):
        """BoundedDelay(1) — lock-step timing on the calendar path — must
        reproduce the reference bit-for-bit too: the determinism contract
        re-proved at the event level, not just on the fast path."""
        reference = ReferenceRunner(build_protocols(spec), seed=seed).run()
        general = run_protocols(
            build_protocols(spec), seed=seed, delivery=BoundedDelay(1)
        )
        assert observables(general) == observables(reference)
        # The general path *does* do per-delivery accounting; lag is zero.
        # (Deliveries can trail sends: envelopes emitted in the final
        # tick are never delivered — the run ends when all nodes halt,
        # exactly as in the reference loop.)
        assert general.metrics.mean_delivery_lag == 0.0
        assert 0 < general.metrics.deliveries_total <= general.metrics.messages_total

    def test_recorded_views_match_reference(self):
        spec = ((2, "silent"), (5, "mirror"))
        reference = ReferenceRunner(
            build_protocols(spec), seed=9, record_views=True
        ).run()
        kernel = run_protocols(build_protocols(spec), seed=9, record_views=True)
        assert [v.rounds for v in kernel.views] == [
            v.rounds for v in reference.views
        ]


class TestEventLevelDeterminism:
    @given(seed=st.integers(0, 2**16), delay=st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_bounded_delay_reruns_identically(self, seed, delay):
        first = run_protocols(
            build_protocols(()), seed=seed, delivery=BoundedDelay(delay)
        )
        second = run_protocols(
            build_protocols(()), seed=seed, delivery=BoundedDelay(delay)
        )
        assert observables(first) == observables(second)
        assert first.metrics.delivered_per_tick == second.metrics.delivered_per_tick

    def test_seed_changes_bounded_delay_schedule(self):
        runs = [
            run_protocols(
                build_protocols(()), seed=seed, delivery=BoundedDelay(3)
            ).metrics.delivered_per_tick
            for seed in (1, 2)
        ]
        assert runs[0] != runs[1]


class TestHorizonDiagnostics:
    def test_overrun_names_stuck_nodes_and_protocols(self):
        class Forever(Protocol):
            def on_round(self, ctx, inbox):
                pass

        class Quitter(Protocol):
            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(SimulationError) as err:
            run_protocols([Forever(), Quitter(), Forever()], max_rounds=5)
        message = str(err.value)
        assert "max_rounds=5" in message
        assert "2 of 3 nodes" in message
        assert "0:Forever" in message and "2:Forever" in message
        assert "Quitter" not in message

    def test_long_stuck_list_is_truncated(self):
        class Forever(Protocol):
            def on_round(self, ctx, inbox):
                pass

        with pytest.raises(SimulationError) as err:
            run_protocols([Forever() for _ in range(20)], max_rounds=2)
        assert "+4 more" in str(err.value)


#: Every way a node hands copies to the kernel: one plain envelope, a
#: plain broadcast, and the batch plane to all others or to an explicit
#: recipient list.  Node 0 sends; with n = 4 node 1 is always reached.
SENDS = {
    "plain": lambda ctx: ctx.broadcast("x"),
    "batch": lambda ctx: ctx.send_batch("tm", 0, "x"),
    "send": lambda ctx: ctx.send(1, "x"),
    "batch-to": lambda ctx: ctx.send_batch("tm", 0, "x", to=[1, 2, 3]),
}

every_send = pytest.mark.parametrize("send", list(SENDS.values()), ids=list(SENDS))


def scheduled(schedule):
    """A delivery model pricing each copy by ``schedule(recipient, tick)``
    on both the per-envelope and the batch path."""

    class Scheduled(DeliveryModel):
        name = "scheduled"

        def arrival_tick(self, envelope, tick):
            return schedule(envelope.recipient, tick)

        def batch_arrivals(self, sender, recipients, tick):
            return [schedule(recipient, tick) for recipient in recipients]

    return Scheduled()


class Receipts(Protocol):
    """Node 0 sends once at ``at``; every node logs (tick, sender) per
    envelope it receives and halts at ``until``."""

    def __init__(self, send, log, at=0, until=4):
        self._send = send
        self._log = log
        self._at = at
        self._until = until

    def on_round(self, ctx, inbox):
        self._log.extend((ctx.node, ctx.round, env.sender) for env in inbox)
        if ctx.round == self._at and ctx.node == 0:
            self._send(ctx)
        if ctx.round == self._until:
            ctx.halt()


class TestCausality:
    @every_send
    def test_delivery_into_the_past_is_rejected(self, send):
        class TimeMachine(DeliveryModel):
            name = "time-machine"

            def arrival_tick(self, envelope, tick):
                return tick - 1

            def batch_arrivals(self, sender, recipients, tick):
                return [tick - 1] * len(recipients)

        class Sender(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 2:
                    if ctx.node == 0:
                        send(ctx)
                    ctx.halt()

        with pytest.raises(
            SimulationError, match=r"from 0 to 1 into the past \(arrival 1, tick 2\)"
        ):
            run_protocols([Sender() for _ in range(4)], delivery=TimeMachine())

    def test_same_tick_delivery_to_already_acted_node_is_rejected(self):
        class Backwards(DeliveryModel):
            name = "backwards"

            def arrival_tick(self, envelope, tick):
                return tick  # same-tick towards a lower id: already acted

            def activation_order(self, n):
                return range(n)

        class SendDown(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.node == 1:
                    ctx.send(0, "x")
                ctx.halt()

        with pytest.raises(SimulationError, match="into the past"):
            run_protocols([SendDown(), SendDown()], delivery=Backwards())

    @every_send
    def test_one_past_copy_among_later_ones_is_rejected(self, send):
        """A lone early copy in an otherwise legal schedule still raises:
        the check covers every copy, not only uniform schedules."""
        model = scheduled(lambda r, tick: tick - 1 if r == 1 else tick + 1)
        with pytest.raises(
            SimulationError, match=r"from 0 to 1 into the past \(arrival 1, tick 2\)"
        ):
            run_protocols(
                [Receipts(send, [], at=2) for _ in range(4)], delivery=model
            )

    @pytest.mark.parametrize(
        "to", [None, [0], [2, 0]], ids=["batch", "batch-to", "batch-to-mixed"]
    )
    def test_same_tick_batch_copy_to_acted_node_is_rejected(self, to):
        class SendDown(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.node == 1:
                    ctx.send_batch("tm", 0, "x", to=to)
                ctx.halt()

        with pytest.raises(
            SimulationError, match=r"from 1 to 0 into the past \(arrival 0, tick 0\)"
        ):
            run_protocols(
                [SendDown() for _ in range(3)],
                delivery=scheduled(lambda r, tick: tick),
            )

    @every_send
    def test_rushed_copies_reach_later_nodes_this_tick(self, send):
        log = []
        run_protocols(
            [Receipts(send, log) for _ in range(4)],
            delivery=scheduled(lambda r, tick: tick),
        )
        reached = [1] if send is SENDS["send"] else [1, 2, 3]
        assert log == [(node, 0, 0) for node in reached]

    @every_send
    def test_every_copy_is_delivered_or_dropped(self, send):
        """A mixed legal schedule — rushed, dropped, later — conserves
        copies: none is stranded in a calendar bucket."""
        log = []
        model = scheduled(lambda r, tick: {1: tick, 2: None, 3: tick + 2}[r])
        result = run_protocols(
            [Receipts(send, log, at=1) for _ in range(4)], delivery=model
        )
        metrics = result.metrics
        assert metrics.deliveries_total + metrics.drops_total == metrics.messages_total
        reached = [(1, 1, 0)] if send is SENDS["send"] else [(1, 1, 0), (3, 3, 0)]
        assert log == reached
        assert metrics.drops_total == (0 if send is SENDS["send"] else 1)

    def test_bad_activation_order_is_rejected(self):
        class Twice(DeliveryModel):
            name = "twice"

            def arrival_tick(self, envelope, tick):
                return tick + 1

            def activation_order(self, n):
                return [0] * n

        class Halter(Protocol):
            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(ConfigurationError, match="not a permutation"):
            EventKernel([Halter(), Halter()], delivery=Twice()).run()


class TestActivationApi:
    def test_on_activate_default_adapts_to_on_round(self):
        calls = []

        class Rounder(Protocol):
            def on_round(self, ctx, inbox):
                calls.append(("round", ctx.round))
                ctx.halt()

        run_protocols([Rounder(), Rounder()])
        assert calls == [("round", 0), ("round", 0)]

    def test_on_activate_override_bypasses_on_round(self):
        class TickAware(Protocol):
            def on_activate(self, ctx, inbox):
                ctx.halt()

            def on_round(self, ctx, inbox):  # pragma: no cover
                raise AssertionError("adapter must not be used")

        result = run_protocols([TickAware(), TickAware()])
        assert result.rounds_executed == 1

    def test_context_exposes_single_time_source(self):
        rounds = []

        class Reader(Protocol):
            def on_round(self, ctx, inbox):
                rounds.append(ctx.round)
                if ctx.round >= 2:
                    ctx.halt()

        kernel = EventKernel([Reader(), Reader()])
        result = kernel.run()
        # The contexts' round is the kernel tick: every node reads the
        # same counter, and it ends where the kernel's tick does.
        assert rounds == [0, 0, 1, 1, 2, 2]
        assert kernel.tick == result.rounds_executed == max(rounds) + 1


class TestTraceTransitionsUnderSkew:
    def test_decide_discover_halt_traced_on_general_path(self):
        from repro.harness import run_fd_scenario

        outcome = run_fd_scenario(
            5, 1, "v", protocol="chain", delivery="bounded:2",
            record_trace=True, seed=1,
        )
        trace = outcome.run.trace
        halts = trace.of_kind("halt")
        assert {e.node for e in halts} == set(range(5))
        # Every traced transition matches the final node state.
        for state in outcome.run.states:
            decided = [e for e in trace.of_kind("decide") if e.node == state.node]
            assert bool(decided) == state.decided
            discovered = [
                e for e in trace.of_kind("discover") if e.node == state.node
            ]
            assert bool(discovered) == (state.discovered is not None)
        # Sends on the general path carry their delivery timestamps.
        sends = trace.of_kind("send")
        assert sends and all(e.tick is not None for e in sends)
        assert all(e.tick >= e.round + 1 for e in sends)

    def test_lockstep_trace_carries_no_timestamps(self):
        from repro.harness import run_fd_scenario

        outcome = run_fd_scenario(
            5, 1, "v", protocol="chain", record_trace=True, seed=1
        )
        assert all(
            e.tick is None for e in outcome.run.trace.of_kind("send")
        )


def _timeout_fd_one_silent():
    """A non-mux scenario: timeout FD on six nodes, the last one silent."""
    n, t = 6, 1
    keypairs, directories = trusted_dealer_setup(n, scheme="simulated-hmac", seed=3)
    return make_timeout_fd_protocols(
        n, t, "v", keypairs, directories, adversaries={n - 1: SilentProtocol()}
    )


def _om_mux():
    """A mux scenario: five nodes, one OM(1) instance per node."""
    return om_mux_protocols(5, 1)


class TestObservationDoesNotChangeTheRun:
    """Recording views and/or a trace changes what the kernel *keeps*,
    never what happens: the observed run's outcome and counters equal
    the unobserved run's under every delivery family (ROADMAP item 4's
    first gate, and what pins the kernel's one activation loop)."""

    @staticmethod
    def _run(scenario, delivery, **recording):
        protocols = scenario()
        n = len(protocols)
        if delivery == "half/defer":
            delivery = f"partition:0-{n // 2 - 1}|{n // 2}-{n - 1}@3/defer"
        run = run_protocols(
            protocols,
            seed=7,
            delivery=make_delivery(delivery, rushing=(n - 1,)),
            **recording,
        )
        metrics = run.metrics
        return {
            "states": [
                (s.decided, repr(s.decision), s.discovered, s.halted)
                for s in run.states
            ],
            "instances": collect_instances(run),
            "rounds_executed": run.rounds_executed,
            "messages": metrics.messages_total,
            "drops": metrics.drops_total,
            "deliveries": metrics.deliveries_total,
            "lag": metrics.delivery_lag_total,
            "per_kind": dict(metrics.messages_per_kind),
        }

    @pytest.mark.parametrize(
        "recording",
        [
            {"record_views": True},
            {"record_trace": True},
            {"record_views": True, "record_trace": True},
        ],
        ids=["views", "trace", "both"],
    )
    @pytest.mark.parametrize(
        "delivery", ["sync", "bounded:3", "rush", "loss:0.2", "half/defer"]
    )
    @pytest.mark.parametrize("scenario", [_timeout_fd_one_silent, _om_mux])
    def test_observed_run_equals_unobserved(self, scenario, delivery, recording):
        unobserved = self._run(scenario, delivery)
        assert unobserved["messages"] > 0
        assert self._run(scenario, delivery, **recording) == unobserved


class TestRunnerFacade:
    """What the retired ``Runner`` facade promised is the kernel's own
    default: synchronous rounds and a single clock."""

    def test_runner_is_an_event_kernel(self):
        class Halter(Protocol):
            def on_round(self, ctx, inbox):
                ctx.halt()

        kernel = EventKernel([Halter(), Halter()])
        assert isinstance(kernel._delivery, SynchronousRounds)
        result = kernel.run()
        # One source of truth: the kernel's tick and the result's
        # rounds_executed are the same counter.
        assert kernel.tick == result.rounds_executed == 1


# -- the logical send ---------------------------------------------------------

FAN_N, FAN_ROUNDS = 6, 4

#: One node's recipients in one round: ``None`` (everyone else), a list
#: (duplicates allowed — each gets its own copy; ``[]`` sends nothing) or
#: the same list handed over as a one-shot generator.
fan_outs = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(("list", "generator")),
        st.lists(st.integers(0, FAN_N - 1), max_size=FAN_N + 2),
    ),
)
fan_scripts = st.lists(
    st.lists(fan_outs, min_size=FAN_N, max_size=FAN_N),
    min_size=FAN_ROUNDS, max_size=FAN_ROUNDS,
)
EVERYONE_BROADCASTS = [[None] * FAN_N] * FAN_ROUNDS


class Fan(Protocol):
    """Sends one payload per round to the scripted recipients — as one
    ``ctx.broadcast`` or as the loop of ``ctx.send`` it replaces — and
    keeps every inbox it is handed."""

    def __init__(self, script, as_broadcast):
        self.script = script
        self.as_broadcast = as_broadcast
        self.inboxes = []

    def on_round(self, ctx, inbox):
        self.inboxes.append((ctx.round, [tuple(envelope) for envelope in inbox]))
        fan_out = self.script[ctx.round][ctx.node]
        payload = ("fan", ctx.round, ctx.node)
        to = fan_out
        if fan_out is not None:
            to = [node for node in fan_out[1] if node != ctx.node]
            if fan_out[0] == "generator" and self.as_broadcast:
                to = (node for node in to)
        if self.as_broadcast:
            ctx.broadcast(payload, to)
        else:
            for recipient in ctx.others() if to is None else to:
                ctx.send(recipient, payload)
        if ctx.round == FAN_ROUNDS - 1:
            ctx.halt()  # the last round's copies are never delivered


def run_fan(script, as_broadcast, delivery, seed, record_trace):
    protocols = [Fan(script, as_broadcast) for _ in range(FAN_N)]
    run = run_protocols(
        protocols, seed=seed, delivery=make_delivery(delivery),
        record_trace=record_trace,
    )
    return {
        "states": run.states,
        "rounds_executed": run.rounds_executed,
        "metrics": run.metrics.settle(),
        "inboxes": [protocol.inboxes for protocol in protocols],
        "trace": run.trace.events if record_trace else None,
    }


class TestBroadcastEqualsTheLoopOfSends:
    """One logical send is validated, charged and filed once; what a run
    can observe — states, every ``Metrics`` field, every inbox, the
    recorded trace — is what the per-recipient loop produced."""

    @pytest.mark.parametrize(
        "delivery",
        [
            "sync",
            "bounded:3",
            "loss:0.3:2",
            # Healed from tick 2: early cross-block copies arrive late, and
            # the final round's sends are swept undelivered at run end.
            "partition:0-2|3-5@2/defer",
            # Node 4 sits inside every default fan-out and gets honest
            # traffic in the tick it was sent.
            "rush:4",
        ],
    )
    @given(script=fan_scripts, seed=st.integers(0, 2**16), record_trace=st.booleans())
    @example(script=EVERYONE_BROADCASTS, seed=0, record_trace=True)
    @settings(max_examples=12, deadline=None)
    def test_same_run(self, delivery, script, seed, record_trace):
        broadcast = run_fan(script, True, delivery, seed, record_trace)
        assert broadcast == run_fan(script, False, delivery, seed, record_trace)
        if script == EVERYONE_BROADCASTS:
            # The all-broadcast run goes through what the case is there for.
            metrics = broadcast["metrics"]
            assert metrics.messages_total == FAN_ROUNDS * FAN_N * (FAN_N - 1)
            if delivery.startswith(("loss", "partition")):
                assert metrics.drops_total > 0
            if delivery.startswith("rush"):
                assert metrics.delivery_lag_total < 0
            if delivery.startswith(("bounded", "partition")):
                assert metrics.delivery_lag_total > 0

    def test_causality_error_mid_broadcast(self):
        class SameTick(DeliveryModel):
            name = "same-tick"

            def arrival_tick(self, envelope, tick):
                return tick

        class UpThenDown(Protocol):
            def __init__(self, as_broadcast):
                self.as_broadcast = as_broadcast
                self.inbox = None

            def on_round(self, ctx, inbox):
                self.inbox = list(inbox)
                if ctx.node == 1:
                    # Node 2 has yet to act this tick, node 0 already has.
                    if self.as_broadcast:
                        ctx.broadcast("x", [2, 0])
                    else:
                        ctx.send(2, "x")
                        ctx.send(0, "x")
                ctx.halt()

        messages = []
        for as_broadcast in (True, False):
            with pytest.raises(SimulationError, match="into the past") as err:
                run_protocols(
                    [UpThenDown(as_broadcast) for _ in range(3)], delivery=SameTick()
                )
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestSendsAreAllOrNothing:
    @pytest.mark.parametrize("delivery", ["sync", "bounded:2"])
    @pytest.mark.parametrize(
        "offence",
        [
            lambda ctx: ctx.broadcast("x", [1, 2, 0]),  # self, after two valid
            lambda ctx: ctx.broadcast("x", [1, 3]),  # out of range
            lambda ctx: ctx.broadcast("x", iter([1, -1])),
            lambda ctx: ctx.send(0, "x"),
            lambda ctx: ctx.send(3, "x"),
            lambda ctx: (ctx.halt(), ctx.broadcast("x")),  # halted sender
            lambda ctx: (ctx.halt(), ctx.send(1, "x")),
        ],
        ids=["self", "range", "iterator", "send-self", "send-range",
             "halted", "send-halted"],
    )
    def test_a_refused_send_moves_no_counter_and_files_nothing(
        self, offence, delivery
    ):
        heard = []

        class Offender(Protocol):
            def on_round(self, ctx, inbox):
                heard.extend(inbox)
                if ctx.round == 0 and ctx.node == 0:
                    with pytest.raises(ProtocolViolationError):
                        offence(ctx)
                if ctx.round == 2:
                    ctx.halt()

        run = run_protocols(
            [Offender() for _ in range(3)], delivery=make_delivery(delivery)
        )
        assert run.metrics == Metrics()
        assert heard == []

    @pytest.mark.parametrize("delivery", ["sync", "loss:0.2"])
    def test_an_empty_send_moves_no_counter(self, delivery):
        """The signed-agreement relay's ``to=recipients`` is empty once
        the chain's signers cover everyone else; that round must not
        count as used, nor plant zero-valued counter keys."""

        class Relay(Protocol):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    ctx.broadcast("v")
                elif ctx.round == 3:
                    ctx.broadcast("v", to=[])
                    ctx.halt()

        metrics = run_protocols(
            [Relay() for _ in range(3)], delivery=make_delivery(delivery)
        ).metrics
        assert metrics.rounds_used == 1
        assert list(metrics.messages_per_round) == [0]
        assert list(metrics.messages_per_kind) == ["str"]


class TestFinishedKernelIsFreedByReferenceCount:
    """``NodeContext._runner <-> EventKernel._contexts`` is the graph's
    one cycle; a completed run drops it, so a dead kernel's link streams
    do not wait for a full collection (warm sweeps fork six per point)."""

    @staticmethod
    def _kernel(**kwargs):
        return EventKernel(
            _timeout_fd_one_silent(), seed=5, delivery=make_delivery("loss:0.2"),
            **kwargs,
        )

    def test_completed_run_leaves_no_cycle(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            kernel = self._kernel()
            result = kernel.run()
            assert result.metrics.drops_total > 0
            alive = weakref.ref(kernel)
            del kernel, result
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_interrupted_runs_keep_working_contexts(self):
        straight = self._kernel().run()
        kernel = self._kernel()
        assert kernel.run(until_tick=2) is None
        resumed = kernel.run()
        assert resumed.metrics == straight.metrics
        assert resumed.states == straight.states

        contexts = []

        class Forever(Protocol):
            def on_round(self, ctx, inbox):
                contexts.append(ctx)
                ctx.broadcast("still here")

        with pytest.raises(SimulationError, match="max_rounds=2"):
            run_protocols([Forever(), Forever()], max_rounds=2)
        assert contexts[-1].round == 2 and contexts[-1].n == 2
