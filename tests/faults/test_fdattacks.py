"""FD-attack behaviours: each produces exactly its designed deviation."""

from __future__ import annotations

import pytest

from repro.auth import trusted_dealer_setup
from repro.faults import (
    DelayedRelayChainNode,
    EquivocatingSender,
    FabricatingChainNode,
    ImpersonatingChainNode,
    duplicating_chain_node,
)
from repro.fd import ChainFDProtocol, evaluate_fd, make_chain_fd_protocols
from repro.sim import run_protocols

N, T = 7, 2


@pytest.fixture(scope="module")
def world():
    return trusted_dealer_setup(N, seed="fdattacks")


def run_with(world, adversaries, seed=0, value="v"):
    keypairs, directories = world
    protocols = make_chain_fd_protocols(
        N, T, value, keypairs, directories, adversaries=adversaries
    )
    result = run_protocols(protocols, seed=seed, record_trace=True)
    correct = set(range(N)) - set(adversaries)
    return result, evaluate_fd(result, correct, 0, value)


class TestDelayedRelay:
    def test_late_chain_is_discovered(self, world):
        keypairs, _ = world
        result, evaluation = run_with(
            world, {1: DelayedRelayChainNode(N, T, keypairs[1])}
        )
        assert evaluation.ok and evaluation.any_discovery
        # The successor discovers at its deadline (missing message).
        assert 2 in result.discoverers()

    def test_longer_delay_also_discovered(self, world):
        keypairs, _ = world
        result, evaluation = run_with(
            world, {1: DelayedRelayChainNode(N, T, keypairs[1], delay=2)}
        )
        assert evaluation.ok and evaluation.any_discovery

    def test_the_late_message_is_itself_a_deviation(self, world):
        """Even a successor that tolerated the gap would see the late
        message as out-of-pattern: both checks catch this attack."""
        keypairs, _ = world
        result, _ = run_with(world, {1: DelayedRelayChainNode(N, T, keypairs[1])})
        reasons = [s.discovered for s in result.states if s.discovered]
        assert any("expected exactly one" in r or "unexpected" in r for r in reasons)


class TestImpersonatingChainNode:
    def test_honest_keys_with_wrong_link_name_discovered(self, world):
        """Signing correctly but *naming the wrong predecessor* violates
        the section-4 chain discipline and is discovered."""
        keypairs, _ = world
        result, evaluation = run_with(
            world,
            {1: ImpersonatingChainNode(N, T, keypairs[1], name_in_link=5)},
        )
        assert evaluation.ok and evaluation.any_discovery

    def test_foreign_key_discovered_under_consistent_directories(self, world):
        """With globally consistent directories, a chain node signing with
        another node's key fails the outer assignment immediately."""
        keypairs, _ = world
        result, evaluation = run_with(
            world, {1: ImpersonatingChainNode(N, T, keypairs[5])}
        )
        assert evaluation.ok and evaluation.any_discovery


class TestEquivocatingSender:
    def test_unlisted_recipients_discover_missing_message(self, world):
        keypairs, _ = world
        result, evaluation = run_with(
            world, {0: EquivocatingSender(keypairs[0], {})}
        )
        assert evaluation.ok
        assert 1 in result.discoverers()  # the chain never started

    def test_duplicate_leaves_to_one_node_discovered(self, world):
        keypairs, _ = world

        class DoubleSender(EquivocatingSender):
            def on_round(self, ctx, inbox):
                if ctx.round == 0:
                    from repro.crypto import sign_leaf
                    from repro.fd.authenticated import CHAIN_MSG

                    leaf = sign_leaf(self._keypair.secret, "v")
                    ctx.send(1, (CHAIN_MSG, leaf))
                    ctx.send(1, (CHAIN_MSG, leaf))
                ctx.halt()

        result, evaluation = run_with(world, {0: DoubleSender(keypairs[0], {})})
        assert evaluation.ok
        assert 1 in result.discoverers()


class TestFabricationVariants:
    def test_fabricated_value_never_accepted(self, world):
        keypairs, _ = world
        for seed in range(3):
            result, evaluation = run_with(
                world,
                {2: FabricatingChainNode(N, T, keypairs[2], ("evil", seed))},
                seed=seed,
            )
            assert evaluation.ok
            assert ("evil", seed) not in result.decisions().values()

    def test_duplicating_relay_discovered(self, world):
        keypairs, directories = world
        result, evaluation = run_with(
            world, {1: duplicating_chain_node(N, T, keypairs[1], directories[1])}
        )
        assert evaluation.ok and evaluation.any_discovery


#: Who each chain position sends to under Fig. 2: ``P_1`` hands the chain
#: to ``P_2``; ``P_T`` disseminates it to ``P_{T+1} .. P_{N-1}``.
ROUTE = {1: {2}, T: set(range(T + 1, N))}

#: Chain behaviours, built for the node they are placed at.
CHAIN_NODES = {
    "honest": lambda keypairs, directories, node: ChainFDProtocol(
        N, T, keypairs[node], directories[node]
    ),
    "fabricating": lambda keypairs, directories, node: FabricatingChainNode(
        N, T, keypairs[node], "forged"
    ),
    "impersonating": lambda keypairs, directories, node: ImpersonatingChainNode(
        N, T, keypairs[node]
    ),
    "delayed": lambda keypairs, directories, node: DelayedRelayChainNode(
        N, T, keypairs[node]
    ),
}


class TestChainRoute:
    @pytest.mark.parametrize("node", sorted(ROUTE))
    @pytest.mark.parametrize("kind", sorted(CHAIN_NODES))
    def test_chain_node_sends_along_the_fig2_route(self, world, kind, node):
        """Attackers deviate in what they send and when, never in where:
        every chain behaviour uses the honest route."""
        keypairs, directories = world
        placed = CHAIN_NODES[kind](keypairs, directories, node)
        result, _ = run_with(world, {node: placed})
        sent_to = {
            event.detail[0]
            for event in result.trace.of_kind("send")
            if event.node == node
        }
        assert sent_to == ROUTE[node]
