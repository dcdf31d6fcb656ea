"""The semantic discovery oracle: soundness and completeness of the
operational checks, across protocols and attacks."""

from __future__ import annotations

import pytest

from repro.auth import trusted_dealer_setup
from repro.faults import SilentProtocol, garbling_chain_node, withholding_chain_node
from repro.fd import (
    certify_protocol,
    judge_run,
    make_chain_fd_protocols,
    make_echo_fd_protocols,
    reference_views,
)
from repro.sim import run_protocols

from .._attacks import DelayedRelayChainNode

N, T = 7, 2
KEYPAIRS, DIRECTORIES = trusted_dealer_setup(N, seed="oracle")


def chain_factory(adversaries=None):
    def factory():
        return make_chain_fd_protocols(
            N, T, "v", KEYPAIRS, DIRECTORIES, adversaries=adversaries or {}
        )

    return factory


def echo_factory(adversaries=None):
    def factory():
        return make_echo_fd_protocols(N, T, "v", adversaries=adversaries or {})

    return factory


class TestHonestRuns:
    def test_honest_chain_run_has_no_deviations(self):
        verdict = certify_protocol(
            chain_factory(), chain_factory(), set(range(N)), seed=1
        )
        assert verdict.semantic_discoverers == frozenset()
        assert verdict.operational_discoverers == frozenset()
        assert verdict.exact

    def test_honest_echo_run_has_no_deviations(self):
        verdict = certify_protocol(
            echo_factory(), echo_factory(), set(range(N)), seed=1
        )
        assert verdict.exact


ATTACKS = {
    "crash": lambda: {1: SilentProtocol()},
    "withhold": lambda: {
        1: withholding_chain_node(N, T, KEYPAIRS[1], DIRECTORIES[1], {2})
    },
    "garble": lambda: {1: garbling_chain_node(N, T, KEYPAIRS[1], DIRECTORIES[1])},
    "delay": lambda: {1: DelayedRelayChainNode(N, T, KEYPAIRS[1])},
}


class TestChainCertification:
    """The chain protocol's operational discovery *is* the semantic
    definition — sound and complete against every attack here."""

    @pytest.mark.parametrize("attack", sorted(ATTACKS), ids=str)
    def test_sound_and_complete(self, attack):
        adversaries = ATTACKS[attack]()
        correct = set(range(N)) - set(adversaries)
        verdict = certify_protocol(
            chain_factory(), chain_factory(adversaries), correct, seed=2
        )
        assert verdict.sound, (
            f"{attack}: false positive — operational "
            f"{set(verdict.operational_discoverers)} vs semantic "
            f"{set(verdict.semantic_discoverers)}"
        )
        assert verdict.complete, (
            f"{attack}: false negative — semantic deviation at "
            f"{verdict.first_deviation} undiscovered"
        )

    @pytest.mark.parametrize("attack", sorted(ATTACKS), ids=str)
    def test_deviation_rounds_reported(self, attack):
        adversaries = ATTACKS[attack]()
        correct = set(range(N)) - set(adversaries)
        verdict = certify_protocol(
            chain_factory(), chain_factory(adversaries), correct, seed=2
        )
        for node in verdict.semantic_discoverers:
            assert verdict.first_deviation[node] >= 1


class TestJudgeRunApi:
    def test_reference_and_actual_must_record_views(self):
        reference = reference_views(chain_factory(), seed=3)
        actual = run_protocols(
            list(chain_factory({1: SilentProtocol()})()),
            seed=3,
            record_views=True,
        )
        verdict = judge_run(reference, actual, set(range(N)) - {1})
        assert verdict.semantic_discoverers
        assert 2 in verdict.semantic_discoverers  # the starved successor

    def test_faulty_nodes_excluded_from_judgement(self):
        reference = reference_views(chain_factory(), seed=3)
        actual = run_protocols(
            list(chain_factory({1: SilentProtocol()})()),
            seed=3,
            record_views=True,
        )
        verdict = judge_run(reference, actual, {0})
        # Node 0 (the sender) sees nothing unusual in this attack.
        assert verdict.semantic_discoverers == frozenset()
