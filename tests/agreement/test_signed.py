"""SM(t): agreement/validity under the budget, cost, adversaries."""

from __future__ import annotations

import pytest

from repro.agreement import DEFAULT_VALUE, evaluate_ba, make_signed_agreement_protocols
from repro.agreement.signed import SM_MSG
from repro.analysis import sm_messages
from repro.auth import run_key_distribution, trusted_dealer_setup
from repro.crypto import extend_chain, sign_leaf
from repro.faults import (
    AdversaryCoordination,
    MixedPredicateAttack,
    ScriptedProtocol,
    SilentProtocol,
)
from repro.fd import evaluate_fd, make_chain_fd_protocols
from repro.sim import run_protocols


@pytest.fixture(scope="module")
def world():
    n = 7
    keypairs, directories = trusted_dealer_setup(n, seed="sm")
    return n, keypairs, directories


def run_sm(world, t, value="v", adversaries=None, seed=0):
    n, keypairs, directories = world
    protocols = make_signed_agreement_protocols(
        n, t, value, keypairs, directories, adversaries=adversaries or {}
    )
    result = run_protocols(protocols, seed=seed)
    correct = set(range(n)) - set(adversaries or {})
    return result, evaluate_ba(result, correct, 0, value)


class TestHonestRuns:
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_agreement_and_validity(self, world, t):
        result, evaluation = run_sm(world, t)
        assert evaluation.ok, evaluation.detail
        assert set(result.decisions().values()) == {"v"}

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_failure_free_message_count(self, world, t):
        """(n-1) + (n-1)(n-2): the Θ(n²) the extension avoids."""
        n = world[0]
        result, _ = run_sm(world, t)
        assert result.metrics.messages_total == sm_messages(n, t)

    def test_t_zero_is_one_broadcast(self, world):
        n = world[0]
        result, _ = run_sm(world, 0)
        assert result.metrics.messages_total == n - 1

    def test_rounds_are_t_plus_1(self, world):
        result, _ = run_sm(world, 2)
        assert result.metrics.rounds_used == 2  # round 0 send + round 1 relays

    def test_arbitrary_values(self, world):
        result, evaluation = run_sm(world, 2, value=("composite", b"\x00", 3))
        assert evaluation.ok


class TestByzantineSender:
    def _equivocate(self, world, t, seed=0, extra=None):
        n, keypairs, directories = world
        leaf_a = sign_leaf(keypairs[0].secret, "a")
        leaf_b = sign_leaf(keypairs[0].secret, "b")
        script = {
            0: [
                (peer, (SM_MSG, leaf_a if peer <= 3 else leaf_b))
                for peer in range(1, n)
            ]
        }
        adversaries = {0: ScriptedProtocol(script, halt_after=t + 2)}
        if extra:
            adversaries.update(extra)
        return run_sm(world, t, adversaries=adversaries, seed=seed)

    def test_equivocation_forces_common_default(self, world):
        result, evaluation = self._equivocate(world, t=2)
        assert evaluation.agreement and evaluation.termination
        assert set(result.decisions().values()) == {DEFAULT_VALUE}

    def test_equivocation_with_silent_accomplice(self, world):
        result, evaluation = self._equivocate(
            world, t=2, extra={6: SilentProtocol()}
        )
        assert evaluation.agreement

    def test_silent_sender_yields_default(self, world):
        result, evaluation = run_sm(world, 2, adversaries={0: SilentProtocol()})
        assert evaluation.agreement
        assert set(result.decisions().values()) == {DEFAULT_VALUE}


class TestChainDiscipline:
    def test_forged_chain_without_sender_leaf_ignored(self, world):
        """A relay chain whose innermost signer is not the sender carries
        no weight."""
        n, keypairs, directories = world
        forged = sign_leaf(keypairs[3].secret, "evil")
        forged = extend_chain(keypairs[4].secret, 3, forged)
        script = {1: [(peer, (SM_MSG, forged)) for peer in range(n) if peer != 4]}
        adversaries = {4: ScriptedProtocol(script, halt_after=4)}
        result, evaluation = run_sm(world, 2, adversaries=adversaries)
        assert evaluation.ok
        assert set(result.decisions().values()) == {"v"}

    def test_replayed_depth_mismatch_ignored(self, world):
        """A depth-1 leaf delivered in round 2 fails the depth==round rule."""
        n, keypairs, directories = world
        stray = sign_leaf(keypairs[0].secret, "late")
        script = {1: [(peer, (SM_MSG, stray)) for peer in range(1, n) if peer != 5]}
        adversaries = {5: ScriptedProtocol(script, halt_after=4)}
        result, evaluation = run_sm(world, 2, adversaries=adversaries)
        assert evaluation.ok
        assert set(result.decisions().values()) == {"v"}

    def test_relay_cap_bounds_messages(self, world):
        """Correct nodes relay at most two values even under a sender
        spraying many — message totals stay polynomial."""
        n, keypairs, directories = world
        leaves = [sign_leaf(keypairs[0].secret, f"v{i}") for i in range(5)]
        script = {
            0: [(peer, (SM_MSG, leaves[peer % 5])) for peer in range(1, n)]
        }
        adversaries = {0: ScriptedProtocol(script, halt_after=4)}
        result, evaluation = run_sm(world, 2, adversaries=adversaries)
        assert evaluation.agreement
        per_node_cap = 2 * (n - 2)
        for node in range(1, n):
            assert result.metrics.messages_per_sender[node] <= per_node_cap


class TestAuthenticationDegradation:
    """SM-style agreement under *attacked* local authentication silently
    splits; chain FD discovers.  The contrast the paper's future-work
    paragraph is about."""

    N, T = 7, 2

    def _attacked_keydist(self, seed=21):
        coordination = AdversaryCoordination()
        group_one = {1, 2, 3}  # these nodes receive predicate 'p' for node 0
        adversaries = {
            0: MixedPredicateAttack(coordination, group_one, "p", "q")
        }
        kd = run_key_distribution(self.N, adversaries=adversaries, seed=seed)
        return kd, coordination, group_one

    def test_sm_under_attacked_local_auth_splits_silently(self):
        """The faulty sender signs with key 'p': the group bound to 'p'
        decides the value, everyone else decides the default — agreement
        broken, nothing discovered."""
        kd, coordination, group_one = self._attacked_keydist()
        key_p = coordination.known_keypairs()["p"]
        leaf = sign_leaf(key_p.secret, "split")
        script = {0: [(p, (SM_MSG, leaf)) for p in range(1, self.N)]}
        adversaries = {0: ScriptedProtocol(script, halt_after=4)}
        protocols = make_signed_agreement_protocols(
            self.N, self.T, None, kd.keypairs, kd.directories, adversaries=adversaries
        )
        result = run_protocols(protocols, seed=1)
        evaluation = evaluate_ba(result, set(range(1, self.N)), 0, None)
        assert not evaluation.agreement          # the split happened
        decisions = result.decisions()
        assert decisions[1] == "split"           # the bound group
        assert decisions[4] == DEFAULT_VALUE     # the unbound group

    def test_chain_fd_discovers_the_same_corruption(self):
        """Same corrupted directories, same signing key, but the FD chain
        protocol turns the inconsistency into a discovery (Theorem 4) —
        the reason FD is the right problem for local authentication."""
        from repro.faults.fdattacks import EquivocatingSender

        kd, coordination, group_one = self._attacked_keydist()
        key_p = coordination.known_keypairs()["p"]
        adversaries = {
            0: EquivocatingSender(key_p, {1: "split"})
        }
        protocols = make_chain_fd_protocols(
            self.N, self.T, None, kd.keypairs, kd.directories, adversaries=adversaries
        )
        result = run_protocols(protocols, seed=1)
        evaluation = evaluate_fd(result, set(range(1, self.N)), 0, None)
        assert evaluation.ok
        assert evaluation.any_discovery
