"""Small-value-range variants: savings, soundness, and the documented
negative result for optimistic silence-decoding."""

from __future__ import annotations

import pytest

from repro.analysis import smallrange_messages
from repro.auth import trusted_dealer_setup
from repro.errors import ConfigurationError
from repro.faults import SilentProtocol, withholding_chain_node
from repro.fd import evaluate_fd, make_small_range_protocols
from repro.fd.smallrange import OptimisticBinaryChainProtocol
from repro.faults.behaviors import TamperingProtocol
from repro.sim import run_protocols


@pytest.fixture(scope="module")
def world():
    n = 8
    keypairs, directories = trusted_dealer_setup(n, seed="smallrange")
    return n, keypairs, directories


def run_smallrange(world, t, value, optimistic=False, adversaries=None, seed=0):
    n, keypairs, directories = world
    protocols = make_small_range_protocols(
        n, t, value, keypairs, directories,
        adversaries=adversaries or {}, optimistic=optimistic,
    )
    result = run_protocols(protocols, seed=seed)
    correct = set(range(n)) - set(adversaries or {})
    return result, evaluate_fd(result, correct, 0, value)


class TestSilentZeroBroadcast:
    """The sound t=0 variant."""

    def test_value_one_costs_n_minus_1(self, world):
        n = world[0]
        result, evaluation = run_smallrange(world, 0, 1)
        assert result.metrics.messages_total == smallrange_messages(n, 1) == n - 1
        assert evaluation.ok
        assert set(result.decisions().values()) == {1}

    def test_value_zero_costs_nothing(self, world):
        """'Assigning values to missing messages': total silence decodes
        to 0 at zero message cost."""
        n = world[0]
        result, evaluation = run_smallrange(world, 0, 0)
        assert result.metrics.messages_total == smallrange_messages(n, 0) == 0
        assert evaluation.ok
        assert set(result.decisions().values()) == {0}

    def test_rejects_nonbinary_value(self, world):
        with pytest.raises(ConfigurationError):
            run_smallrange(world, 0, 7)

    def test_rejects_t_above_zero_without_opt_in(self, world):
        n, keypairs, directories = world
        with pytest.raises(ConfigurationError):
            make_small_range_protocols(n, 1, 1, keypairs, directories)

    def test_garbage_broadcast_is_discovered(self, world):
        n, keypairs, directories = world

        def garble(rnd, to, payload):
            from repro.crypto.signing import garble_signature

            if isinstance(payload, tuple) and len(payload) == 2:
                return (payload[0], garble_signature(payload[1]))
            return payload

        from repro.fd.smallrange import SilentZeroBroadcastProtocol

        sender = TamperingProtocol(
            SilentZeroBroadcastProtocol(n, keypairs[0], directories[0], value=1),
            transform=garble,
        )
        result, evaluation = run_smallrange(
            world, 0, 1, adversaries={0: sender}
        )
        assert evaluation.ok and evaluation.any_discovery


class TestOptimisticBinaryChain:
    """Failure-free behaviour of the general-t optimistic variant."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_value_one_costs_n_minus_1(self, world, t):
        n = world[0]
        result, evaluation = run_smallrange(world, t, 1, optimistic=True)
        assert result.metrics.messages_total == n - 1
        assert evaluation.ok
        assert set(result.decisions().values()) == {1}

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_value_zero_is_free(self, world, t):
        result, evaluation = run_smallrange(world, t, 0, optimistic=True)
        assert result.metrics.messages_total == 0
        assert evaluation.ok
        assert set(result.decisions().values()) == {0}

    def test_invalid_chain_still_discovered(self, world):
        """Silence decodes to 0, but *wrong* messages still discover."""
        n, keypairs, directories = world
        from repro.faults import FabricatingChainNode

        result, evaluation = run_smallrange(
            world, 2, 1, optimistic=True,
            adversaries={1: FabricatingChainNode(n, 2, keypairs[1], 1)},
        )
        assert evaluation.ok and evaluation.any_discovery


class TestOptimisticSoundnessBoundary:
    """The documented negative result: for t >= 1 a selectively
    withholding disseminator violates F2 with no discovery.  This test is
    the library's evidence for the reproduction note in
    ``repro.fd.smallrange``."""

    def test_selective_withholding_breaks_weak_agreement(self, world):
        n, keypairs, directories = world
        t = 2

        class WithholdingOptimistic(TamperingProtocol):
            pass

        disseminator = WithholdingOptimistic(
            OptimisticBinaryChainProtocol(n, t, keypairs[t], directories[t]),
            should_send=lambda rnd, to, payload: to not in {5, 6},
        )
        result, evaluation = run_smallrange(
            world, t, 1, optimistic=True, adversaries={t: disseminator}
        )
        # The starved receivers silently decide 0 while the chain prefix
        # decided 1 — and nobody discovered anything.
        assert not evaluation.weak_agreement
        assert not evaluation.any_discovery
        decisions = result.decisions()
        assert decisions[5] == 0 and decisions[1] == 1

    def test_same_attack_is_discovered_by_full_protocol(self, world):
        """Contrast: the paper's Fig. 2 protocol discovers this exact
        adversary, because silence is never failure-free there."""
        n, keypairs, directories = world
        t = 2
        from repro.fd import make_chain_fd_protocols

        adversaries = {
            t: withholding_chain_node(
                n, t, keypairs[t], directories[t], withhold_from={5, 6}
            )
        }
        protocols = make_chain_fd_protocols(
            n, t, 1, keypairs, directories, adversaries=adversaries
        )
        result = run_protocols(protocols, seed=1)
        evaluation = evaluate_fd(result, set(range(n)) - {t}, 0, 1)
        assert evaluation.ok and evaluation.any_discovery
