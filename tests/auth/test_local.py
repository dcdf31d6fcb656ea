"""The key distribution protocol (paper Fig. 1): cost, outputs, robustness."""

from __future__ import annotations

import pytest

from repro.analysis import keydist_messages, keydist_rounds
from repro.auth import run_key_distribution
from repro.auth.local import CHALLENGE, KEY_DISTRIBUTION_ROUNDS, OUTPUT_ANOMALIES
from repro.errors import ConfigurationError
from repro.faults import ScriptedProtocol, SilentProtocol
from repro.sim import node_rng
from repro.crypto import DEFAULT_SCHEME, get_scheme

from .._attacks import ClaimForeignPredicateAttack


class TestHonestRuns:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_exact_message_count(self, n):
        """Paper 3.1: 'The message complexity of the protocol is 3·n·(n−1)'."""
        result = run_key_distribution(n, seed=n)
        assert result.messages == keydist_messages(n) == 3 * n * (n - 1)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_exact_round_count(self, n):
        """Paper 3.1: 'It takes 3 rounds of communication'."""
        result = run_key_distribution(n, seed=n)
        assert result.rounds == keydist_rounds() == KEY_DISTRIBUTION_ROUNDS

    def test_every_node_accepts_every_genuine_predicate(self):
        n = 6
        result = run_key_distribution(n, seed=1)
        genuine = result.genuine_predicates()
        for observer in range(n):
            directory = result.directories[observer]
            for subject in range(n):
                assert directory.predicates_for(subject) == (genuine[subject],)

    def test_directories_include_own_predicate(self):
        result = run_key_distribution(4, seed=2)
        for node in range(4):
            assert result.directories[node].predicates_for(node) == (
                result.keypairs[node].predicate,
            )

    def test_no_anomalies_in_honest_run(self):
        result = run_key_distribution(5, seed=3)
        for state in result.run.states:
            assert state.outputs[OUTPUT_ANOMALIES] == ()

    def test_deterministic_per_seed(self):
        a = run_key_distribution(4, seed="same")
        b = run_key_distribution(4, seed="same")
        assert a.genuine_predicates() == b.genuine_predicates()

    def test_distinct_keys_across_nodes(self):
        result = run_key_distribution(6, seed=4)
        predicates = list(result.genuine_predicates().values())
        assert len({p.fingerprint() for p in predicates}) == 6

    @pytest.mark.parametrize("scheme", ["rsa-512", "schnorr-512", "simulated-hmac"])
    def test_all_schemes_work(self, scheme):
        result = run_key_distribution(3, scheme=scheme, seed=5)
        assert result.messages == keydist_messages(3)
        assert len(result.directories) == 3

    def test_rejects_tiny_network(self):
        with pytest.raises(ConfigurationError):
            run_key_distribution(1)


class TestArbitraryFaultTolerance:
    """The paper's headline: local authentication works with an arbitrary
    number of arbitrarily faulty nodes.  Whatever the faulty nodes do,
    every pair of correct nodes authenticates each other."""

    def _correct_pairs_authentic(self, result, correct):
        genuine = {
            node: result.keypairs[node].predicate
            for node in correct
        }
        for observer in correct:
            directory = result.directories[observer]
            for subject in correct:
                assert genuine[subject] in directory.predicates_for(subject)

    def test_majority_faulty_silent(self):
        n = 7
        faulty = {2, 3, 4, 5, 6}
        adversaries = {node: SilentProtocol() for node in faulty}
        result = run_key_distribution(n, adversaries=adversaries, seed=6)
        self._correct_pairs_authentic(result, {0, 1})

    def test_faulty_flooding_garbage(self):
        n = 5
        garbage = {
            r: [(peer, ("junk", r, peer)) for peer in range(4)] for r in range(3)
        }
        adversaries = {4: ScriptedProtocol(garbage)}
        result = run_key_distribution(n, adversaries=adversaries, seed=7)
        self._correct_pairs_authentic(result, {0, 1, 2, 3})
        # And the garbage is visible as anomalies, not silently swallowed.
        assert any(
            result.run.states[node].outputs[OUTPUT_ANOMALIES]
            for node in range(4)
        )

    def test_faulty_sending_misnamed_challenges(self):
        """A challenge naming the wrong nodes must not be signed; correct
        nodes treat it as an anomaly and lose nothing."""
        n = 4
        bad_challenge = (CHALLENGE, 2, 1, 12345)   # claims challenger 2, sent by 3
        adversaries = {
            3: ScriptedProtocol({1: [(1, bad_challenge)]}, halt_after=3)
        }
        result = run_key_distribution(n, adversaries=adversaries, seed=8)
        self._correct_pairs_authentic(result, {0, 1, 2})
        anomalies = result.run.states[1].outputs[OUTPUT_ANOMALIES]
        assert any("misnamed" in a for a in anomalies)


class TestForeignClaimDefence:
    """Theorem 2 (G1): no faulty node can claim a correct node's key."""

    def _victim_predicate(self, n, seed, victim=0):
        # The honest protocol generates its key as the first rng use; the
        # attacker 'observed' it (public information after any prior run).
        scheme = get_scheme(DEFAULT_SCHEME)
        return scheme.generate_keypair(node_rng(seed, victim)).predicate

    @pytest.mark.parametrize("garbage", [False, True])
    def test_claim_is_never_accepted(self, garbage):
        n, seed = 5, "foreign"
        predicate = self._victim_predicate(n, seed)
        adversaries = {
            3: ClaimForeignPredicateAttack(predicate, garbage_responses=garbage)
        }
        result = run_key_distribution(n, adversaries=adversaries, seed=seed)
        # The attacker's claim is rejected by every correct node...
        for observer in (0, 1, 2, 4):
            assert result.directories[observer].predicates_for(3) == ()
        # ...while the genuine owner keeps its binding.
        for observer in (0, 1, 2, 4):
            assert result.directories[observer].predicates_for(0) == (predicate,)

    def test_signed_message_assigned_only_to_owner(self):
        from repro.crypto import sign_value

        n, seed = 5, "foreign2"
        predicate = self._victim_predicate(n, seed)
        adversaries = {3: ClaimForeignPredicateAttack(predicate)}
        result = run_key_distribution(n, adversaries=adversaries, seed=seed)
        signed = sign_value(result.keypairs[0].secret, "message")
        for observer in (1, 2, 4):
            assert result.directories[observer].assign(signed) == [0]
