"""The chain FD protocol (paper Fig. 2): cost, conditions, adversaries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import fd_auth_messages, fd_auth_rounds
from repro.auth import trusted_dealer_setup
from repro.errors import ConfigurationError
from repro.faults import (
    CrashProtocol,
    EquivocatingSender,
    FabricatingChainNode,
    ScriptedProtocol,
    SilentProtocol,
    garbling_chain_node,
    withholding_chain_node,
)
from repro.fd import ChainFDProtocol, evaluate_fd, make_chain_fd_protocols
from repro.fd.authenticated import CHAIN_MSG, expected_signers_at
from repro.sim import run_protocols

from .._attacks import duplicating_chain_node


@pytest.fixture(scope="module")
def world():
    """Dealer keys for the largest network used in this module."""
    n = 10
    keypairs, directories = trusted_dealer_setup(n, seed="fd-auth")
    return n, keypairs, directories


def run_chain(world, t, value="v", adversaries=None, seed=0, faulty=None):
    n, keypairs, directories = world
    protocols = make_chain_fd_protocols(
        n, t, value, keypairs, directories, adversaries=adversaries or {}
    )
    result = run_protocols(protocols, seed=seed)
    correct = set(range(n)) - (faulty or set(adversaries or {}))
    return result, evaluate_fd(result, correct, 0, value)


class TestFailureFreeRuns:
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 5, 8])
    def test_exactly_n_minus_1_messages(self, world, t):
        """Section 5: 'This protocol works with the minimal number of
        messages of n−1.'"""
        n = world[0]
        result, evaluation = run_chain(world, t)
        assert result.metrics.messages_total == fd_auth_messages(n) == n - 1
        assert evaluation.ok and not evaluation.any_discovery

    @pytest.mark.parametrize("t", [0, 1, 2, 4])
    def test_rounds_are_t_plus_1(self, world, t):
        result, _ = run_chain(world, t)
        assert result.metrics.rounds_used == fd_auth_rounds(t) == t + 1

    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_everyone_decides_the_sender_value(self, world, t):
        n = world[0]
        result, _ = run_chain(world, t, value=("tuple", 42))
        assert result.decisions() == {i: ("tuple", 42) for i in range(n)}

    @given(value=st.one_of(st.integers(), st.text(max_size=16), st.binary(max_size=16)))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_value_range(self, world, value):
        """Fig. 2 is 'a simple failure discovery protocol for an arbitrary
        value range'."""
        _, evaluation = run_chain(world, 2, value=value)
        assert evaluation.ok

    def test_message_count_independent_of_t(self, world):
        counts = {
            t: run_chain(world, t)[0].metrics.messages_total for t in (0, 2, 5)
        }
        assert len(set(counts.values())) == 1


class TestConfiguration:
    def test_t_too_large_rejected(self, world):
        n, keypairs, directories = world
        with pytest.raises(ConfigurationError):
            make_chain_fd_protocols(n, n - 1, "v", keypairs, directories)

    def test_missing_keys_rejected(self, world):
        n, keypairs, directories = world
        incomplete = dict(keypairs)
        del incomplete[3]
        with pytest.raises(ConfigurationError):
            make_chain_fd_protocols(n, 2, "v", incomplete, directories)

    def test_expected_signers_helper(self):
        assert expected_signers_at(1) == (0,)
        assert expected_signers_at(3) == (2, 1, 0)


class TestByzantineChainNodes:
    """Each attack must leave F1-F3 intact — usually via discovery."""

    def test_crashed_chain_node_is_discovered(self, world):
        result, evaluation = run_chain(
            world, 2, adversaries={1: SilentProtocol()}
        )
        assert evaluation.ok and evaluation.any_discovery
        assert 2 in result.discoverers()  # the successor noticed the silence

    def test_late_crash_is_discovered(self, world):
        n, keypairs, directories = world
        inner = ChainFDProtocol(n, 2, keypairs[2], directories[2])
        result, evaluation = run_chain(
            world, 2, adversaries={2: CrashProtocol(inner, crash_round=2)}
        )
        assert evaluation.ok and evaluation.any_discovery

    def test_withholding_from_successor_is_discovered(self, world):
        result, evaluation = run_chain(
            world,
            2,
            adversaries={
                1: withholding_chain_node(
                    world[0], 2, world[1][1], world[2][1], withhold_from={2}
                )
            },
        )
        assert evaluation.ok and evaluation.any_discovery

    def test_selective_withholding_at_disseminator_is_discovered(self, world):
        """P_t sends to some receivers and not others: the starved ones
        must discover (this is the case the optimistic small-range variant
        gets wrong)."""
        n = world[0]
        result, evaluation = run_chain(
            world,
            2,
            adversaries={
                2: withholding_chain_node(
                    n, 2, world[1][2], world[2][2], withhold_from={5, 7}
                )
            },
        )
        assert evaluation.ok and evaluation.any_discovery
        assert {5, 7} <= set(result.discoverers())

    def test_garbled_signature_is_discovered(self, world):
        result, evaluation = run_chain(
            world,
            1,
            adversaries={1: garbling_chain_node(world[0], 1, world[1][1], world[2][1])},
        )
        assert evaluation.ok and evaluation.any_discovery
        reasons = [s.discovered for s in result.states if s.discovered]
        assert any("verification failed" in reason for reason in reasons)

    def test_fabricated_chain_is_discovered(self, world):
        result, evaluation = run_chain(
            world,
            2,
            adversaries={1: FabricatingChainNode(world[0], 2, world[1][1], "evil")},
        )
        assert evaluation.ok and evaluation.any_discovery
        # Nobody may have decided the fabricated value.
        assert "evil" not in result.decisions().values()

    def test_duplicated_messages_are_discovered(self, world):
        result, evaluation = run_chain(
            world,
            2,
            adversaries={1: duplicating_chain_node(world[0], 2, world[1][1], world[2][1])},
        )
        assert evaluation.ok and evaluation.any_discovery

    def test_out_of_pattern_message_is_discovered(self, world):
        """Any extra message lands outside every failure-free view."""
        n = world[0]
        adversaries = {
            9: ScriptedProtocol({0: [(4, ("noise", 1))]}, halt_after=3)
        }
        result, evaluation = run_chain(world, 2, adversaries=adversaries)
        assert evaluation.ok and evaluation.any_discovery
        assert 4 in result.discoverers()


class TestByzantineSender:
    def test_equivocating_sender_within_budget_is_discovered(self, world):
        """t=1: the sender sends a second, direct value to a receiver —
        that message is out of pattern and discovered."""
        n, keypairs, directories = world
        adversaries = {
            0: EquivocatingSender(keypairs[0], {1: "a", 5: "b"})
        }
        result, evaluation = run_chain(world, 1, adversaries=adversaries, seed=3)
        assert evaluation.ok
        assert 5 in result.discoverers()

    def test_silent_sender_is_discovered(self, world):
        result, evaluation = run_chain(world, 2, adversaries={0: SilentProtocol()})
        assert evaluation.ok and evaluation.any_discovery
        assert 1 in result.discoverers()

    def test_sender_equivocation_cannot_split_decisions_silently(self, world):
        """Within budget, no equivocation pattern yields two correct nodes
        deciding different values with no discovery (F2 through the chain
        commitment argument)."""
        n, keypairs, directories = world
        for targets in [{1: "a", 2: "b"}, {1: "a", 9: "b"}, {1: "x", 4: "y", 8: "z"}]:
            adversaries = {0: EquivocatingSender(keypairs[0], targets)}
            result, evaluation = run_chain(world, 2, adversaries=adversaries)
            assert evaluation.ok, evaluation.detail
