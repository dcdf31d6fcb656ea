"""The adversary plane: parsing, budget enforcement, plane-vs-manual
equivalence, picklability."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreement import make_oral_agreement_protocols
from repro.errors import ConfigurationError
from repro.faults import (
    AckLieProtocol,
    AdversarySpec,
    Behavior,
    CrashProtocol,
    EquivocatingProtocol,
    RandomNoiseProtocol,
    RushMirrorProtocol,
    SilentProtocol,
    behavior_grammar_help,
    make_adversary,
    parse_behavior,
)
from repro.faults.adversary import NOISE_POOL, DropSends, TamperPayloads
from repro.harness import run_fd_scenario
from repro.sim import Protocol, run_protocols

N, T = 7, 2


class TestParseBehavior:
    def test_parameterless_kinds(self):
        assert parse_behavior("silent") == Behavior("silent")
        assert parse_behavior("noise") == Behavior("noise")
        assert parse_behavior("rush") == Behavior("rush")

    def test_crash_with_and_without_recovery(self):
        assert parse_behavior("crash@2") == Behavior("crash", at=2)
        assert parse_behavior("crash@2-5") == Behavior("crash", at=2, recover=5)

    def test_probabilistic_kinds(self):
        assert parse_behavior("drop@0.3") == Behavior("drop", prob=0.3)
        assert parse_behavior("tamper@0.5") == Behavior("tamper", prob=0.5)

    @pytest.mark.parametrize(
        "spec",
        ["gremlin", "silent@3", "crash", "crash@x", "crash@5-2", "drop@2.0",
         "drop@x", "tamper@0"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_behavior(spec)

    def test_loss_exploiting_kinds(self):
        assert parse_behavior("ack-lie") == Behavior("ack-lie")
        assert parse_behavior("ack-lie@3") == Behavior("ack-lie", at=3)
        assert parse_behavior("equivocate@2") == Behavior("equivocate", at=2)

    def test_unknown_kind_error_lists_kinds(self):
        with pytest.raises(ConfigurationError, match="silent"):
            parse_behavior("gremlin")

    def test_unknown_kind_error_derives_from_the_parse_table(self):
        """The CLI's exit-2 message is this error verbatim, so the list
        must come from the grammar table — a behaviour added there is
        advertised everywhere without a second edit."""
        with pytest.raises(ConfigurationError, match="ack-lie"):
            parse_behavior("gremlin")
        assert "equivocate[@T]" in behavior_grammar_help()

    def test_round_trip_through_spec(self):
        for spec in ("silent", "crash@2", "crash@2-5", "drop@0.3", "rush",
                     "ack-lie@1", "equivocate"):
            assert parse_behavior(spec).spec() == spec


class TestBudgetEnforcement:
    def test_within_budget_constructs(self):
        spec = AdversarySpec(corrupt=((3, "silent"), (5, "rush")), t=2)
        assert spec.faulty == frozenset({3, 5})

    def test_over_budget_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="budget"):
            AdversarySpec(corrupt=((1, "silent"), (2, "silent"), (3, "silent")), t=2)

    def test_overrides_count_against_the_budget(self):
        with pytest.raises(ConfigurationError, match="budget"):
            AdversarySpec(
                corrupt=((1, "silent"),),
                overrides=((2, SilentProtocol()),),
                t=1,
            )

    def test_duplicate_nodes_refused(self):
        with pytest.raises(ConfigurationError, match="more than once"):
            AdversarySpec(corrupt=((1, "silent"), (1, "rush")), t=3)
        with pytest.raises(ConfigurationError, match="more than once"):
            AdversarySpec(
                corrupt=((1, "silent"),),
                overrides=((1, SilentProtocol()),),
                t=3,
            )

    def test_runner_enforces_budget_for_scenarios(self):
        with pytest.raises(ConfigurationError, match="budget"):
            run_fd_scenario(
                N, 1, "v", scheme="simulated-hmac",
                adversary="5=silent;6=silent",
            )


class TestMakeAdversary:
    def test_none_passes_through(self):
        assert make_adversary(None, t=2) is None

    def test_spec_instance_passes_through(self):
        spec = AdversarySpec(corrupt=((1, "silent"),), t=2)
        assert make_adversary(spec, t=5) is spec

    def test_string_grammar(self):
        spec = make_adversary("3=silent;5=crash@2-4;delivery=loss:0.2", t=2)
        assert spec.corrupt == (
            (3, Behavior("silent")),
            (5, Behavior("crash", at=2, recover=4)),
        )
        assert spec.delivery == "loss:0.2"

    def test_mapping_form(self):
        spec = make_adversary({6: "noise"}, t=2, delivery="bounded:3")
        assert spec.corrupt == ((6, Behavior("noise")),)
        assert spec.delivery == "bounded:3"

    @pytest.mark.parametrize("spec", ["5", "=silent", "5=", "x=silent"])
    def test_malformed_items_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            make_adversary(spec, t=2)

    def test_adaptive_item(self):
        spec = make_adversary("adaptive:silence-muffled", t=2)
        assert spec.strategy == "silence-muffled"
        assert spec.corrupt == ()

    def test_adaptive_item_composes_with_corruptions_and_delivery(self):
        spec = make_adversary(
            "6=silent;adaptive:gag-sender;delivery=loss:0.1", t=2
        )
        assert spec.strategy == "gag-sender"
        assert spec.faulty == frozenset({6})
        assert spec.delivery == "loss:0.1"

    def test_unknown_adaptive_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="available"):
            make_adversary("adaptive:gremlin", t=2)


class TestPicklability:
    def test_declarative_specs_pickle(self):
        spec = make_adversary("3=silent;5=drop@0.3;delivery=loss:0.2", t=2)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_coordinate_filters_pickle_and_are_pure(self):
        drop = DropSends(0.4, 3)
        clone = pickle.loads(pickle.dumps(drop))
        decisions = [(r, to, drop(r, to, None)) for r in range(5) for to in range(5)]
        assert decisions == [(r, to, clone(r, to, None)) for r in range(5) for to in range(5)]
        assert any(not kept for _, _, kept in decisions)
        assert any(kept for _, _, kept in decisions)

    def test_tamper_substitutes_recognisable_garbage(self):
        tamper = TamperPayloads(1.0, 2)
        assert tamper(3, 1, ("real", 1)) == ("tampered", 2, 3)


BEHAVIOR_POOL = (
    "silent", "crash@1", "crash@1-3", "noise", "rush", "ack-lie",
    "equivocate@1",
)


def manual_protocols(spec_pairs, value="v"):
    """The pre-plane way: hand-built wrapper replacements."""
    protocols = make_oral_agreement_protocols(N, T, value)
    for node, kind in spec_pairs:
        if kind == "silent":
            protocols[node] = SilentProtocol()
        elif kind == "crash@1":
            protocols[node] = CrashProtocol(protocols[node], crash_round=1)
        elif kind == "crash@1-3":
            protocols[node] = CrashProtocol(
                protocols[node], crash_round=1, recover_round=3
            )
        elif kind == "noise":
            protocols[node] = RandomNoiseProtocol(NOISE_POOL, halt_after=T + 2)
        elif kind == "rush":
            protocols[node] = RushMirrorProtocol(halt_after=T + 2)
        elif kind == "ack-lie":
            protocols[node] = AckLieProtocol(protocols[node])
        elif kind == "equivocate@1":
            protocols[node] = EquivocatingProtocol(protocols[node], from_tick=1)
    return protocols


def plane_protocols(spec_pairs, value="v"):
    """The adversary-plane way: one declarative spec."""
    spec = AdversarySpec(corrupt=spec_pairs, t=T)
    return spec.protocols_for(make_oral_agreement_protocols(N, T, value))


def observables(result):
    return {
        "rounds": result.rounds_executed,
        "decisions": {k: repr(v) for k, v in result.decisions().items()},
        "messages": result.metrics.messages_total,
        "per_round": dict(result.metrics.messages_per_round),
        "per_sender": dict(result.metrics.messages_per_sender),
        "per_kind": dict(result.metrics.messages_per_kind),
        "bytes": result.metrics.bytes_total,
    }


@st.composite
def adversary_specs(draw):
    faulty = draw(st.sets(st.integers(min_value=0, max_value=N - 1), max_size=T))
    return tuple(
        (node, draw(st.sampled_from(BEHAVIOR_POOL))) for node in sorted(faulty)
    )


class TestPlaneEqualsManualWrappers:
    """The re-layering acceptance property: a synchronous run whose
    corruption is named through the adversary plane is bit-for-bit the
    run with hand-built wrapper replacements — decisions, rounds, and
    per-kind message/byte counters."""

    @given(spec=adversary_specs(), seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_bit_for_bit_under_random_adversary_specs(self, spec, seed):
        manual = run_protocols(manual_protocols(spec), seed=seed)
        plane = run_protocols(plane_protocols(spec), seed=seed)
        assert observables(plane) == observables(manual), f"spec={spec}"

    def test_behavior_wrapping_preserves_inner_protocol(self):
        spec = AdversarySpec(corrupt=((2, "crash@1"),), t=T)
        protocols = spec.protocols_for(
            make_oral_agreement_protocols(N, T, "v")
        )
        assert isinstance(protocols[2], CrashProtocol)

    def test_corrupt_node_outside_network_rejected(self):
        spec = AdversarySpec(corrupt=((12, "silent"),), t=T)
        with pytest.raises(ConfigurationError, match="only"):
            spec.protocols_for(make_oral_agreement_protocols(N, T, "v"))


class TestCorruptNodeIds:
    """A corrupt node id names a node of the network: a negative id
    fails when the spec is built, an id >= n when it meets the network."""

    @pytest.mark.parametrize("node", [0, N - 1])
    def test_ids_in_range_accepted(self, node):
        spec = AdversarySpec(corrupt=((node, "silent"),), t=T)
        protocols = spec.protocols_for(make_oral_agreement_protocols(N, T, "v"))
        assert isinstance(protocols[node], SilentProtocol)

    def test_negative_id_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            AdversarySpec(corrupt=((-1, "silent"),), t=T)

    def test_negative_id_rejected_in_the_grammar(self):
        with pytest.raises(ConfigurationError):
            make_adversary("-1=silent", t=T)

    @pytest.mark.parametrize("node", [N, 100])
    def test_id_past_the_network_rejected(self, node):
        spec = AdversarySpec(corrupt=((node, "silent"),), t=T)
        with pytest.raises(ConfigurationError, match=f"only {N} nodes"):
            spec.protocols_for(make_oral_agreement_protocols(N, T, "v"))


class TestScriptedBehavior:
    def test_scripted_requires_script(self):
        with pytest.raises(ConfigurationError, match="script"):
            Behavior("scripted")

    def test_scripted_spec_replays_its_script(self):
        received = []

        class Sink(Protocol):
            def on_round(self, ctx, inbox):
                received.extend((env.sender, env.payload) for env in inbox)
                if ctx.round >= 2:
                    ctx.halt()

        spec = AdversarySpec(
            corrupt=(
                (1, Behavior("scripted", script=((0, 0, "boo"), (1, 0, "hiss")))),
            ),
            t=1,
        )
        run_protocols(spec.protocols_for([Sink(), Sink()]))
        assert received == [(1, "boo"), (1, "hiss")]
