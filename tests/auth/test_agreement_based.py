"""Agreement-based key distribution: the paper's rejected alternative."""

from __future__ import annotations

import pytest

from repro.analysis import keydist_messages
from repro.analysis.complexity import akd_instance_envelopes
from repro.auth import (
    agreement_keydist_envelopes,
    check_g1,
    check_g2,
    check_g3,
    run_agreement_key_distribution,
)
from repro.errors import ConfigurationError
from repro.faults import AdversarySpec, SilentProtocol


class TestHonestRuns:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
    def test_all_directories_genuine_and_identical(self, n, t):
        result = run_agreement_key_distribution(n, t, seed=n)
        for observer in range(n):
            for subject in range(n):
                assert result.directories[observer].predicates_for(subject) == (
                    result.keypairs[subject].predicate,
                )

    def test_g1_g2_g3_all_hold(self):
        """Unlike local authentication, this method gives full G3 — at a
        price."""
        n, t = 7, 2
        result = run_agreement_key_distribution(n, t, seed=1)
        correct = set(range(n))
        genuine = {node: result.keypairs[node].predicate for node in correct}
        assert check_g1(result.directories, genuine, correct) == []
        assert check_g2(result.directories, genuine, correct) == []
        report = check_g3(result.directories, correct)
        assert report.holds and not report.partial

    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
    def test_envelope_count_matches_formula(self, n, t):
        result = run_agreement_key_distribution(n, t, seed=n)
        assert result.messages == agreement_keydist_envelopes(n, t)

    @pytest.mark.parametrize("n,t", [(7, 2), (10, 3)])
    def test_more_expensive_than_local_authentication(self, n, t):
        """The paper's cost argument, as an inequality."""
        assert agreement_keydist_envelopes(n, t) > keydist_messages(n)

    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
    def test_per_instance_attribution_matches_closed_form(self, n, t):
        """Every one of the n multiplexed OM(t) instances costs exactly
        (n-1) + t(n-1)^2 envelopes, and the per-instance meters sum to
        the run total (no traffic escapes attribution)."""
        result = run_agreement_key_distribution(n, t, seed=n)
        assert sorted(result.per_instance) == list(range(n))
        for instance, agg in result.per_instance.items():
            assert agg.messages == akd_instance_envelopes(n, t)
            assert agg.rounds == t + 1
            assert set(agg.decisions) == set(range(n))
        assert (
            sum(a.messages for a in result.per_instance.values())
            == result.messages
        )
        assert (
            sum(a.bytes for a in result.per_instance.values())
            < result.run.metrics.bytes_total
        )  # run level additionally charges the mux wrappers


class TestFeasibilityBoundary:
    """'may not work because of too many faulty nodes' — measured."""

    @pytest.mark.parametrize("n,t", [(3, 1), (6, 2), (9, 3)])
    def test_n_at_most_3t_rejected(self, n, t):
        with pytest.raises(ConfigurationError):
            run_agreement_key_distribution(n, t)

    def test_local_authentication_has_no_such_boundary(self):
        """Contrast: the paper's protocol runs fine at the same (n, t) —
        indeed with a faulty *majority*."""
        from repro.auth import run_key_distribution

        n = 6  # would need t <= 1 for the oral bound; local auth doesn't care
        adversaries = {node: SilentProtocol() for node in (2, 3, 4, 5)}
        result = run_key_distribution(n, adversaries=adversaries, seed=1)
        assert result.directories[0].predicates_for(1) == (
            result.keypairs[1].predicate,
        )


class TestByzantineSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown behaviour"):
            run_agreement_key_distribution(7, 2, adversary="6=gremlin")

    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
    def test_noise_traffic_is_attributed_to_every_instance(self, n, t):
        """The noise node runs one mux instance per key, so its lies are
        charged per instance and still sum to the run total."""
        honest = run_agreement_key_distribution(n, t, seed=3)
        noisy = run_agreement_key_distribution(
            n, t, seed=3, adversary={n - 1: "noise"}
        )
        assert sorted(noisy.per_instance) == list(range(n))
        assert (
            sum(a.messages for a in noisy.per_instance.values())
            == noisy.messages
        )
        assert noisy.per_instance != honest.per_instance

    def test_noise_run_is_a_function_of_the_seed(self):
        def run(seed):
            return run_agreement_key_distribution(
                7, 2, seed=seed, adversary="6=noise"
            ).per_instance

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_noise_spec_within_budget_preserves_agreement(self):
        n, t = 7, 2
        result = run_agreement_key_distribution(
            n, t, seed=3, adversary={6: "noise"}
        )
        correct = set(range(n)) - {6}
        for observer in correct:
            for subject in correct:
                assert result.directories[observer].predicates_for(subject) == (
                    result.keypairs[subject].predicate,
                )

    def test_node_named_twice_rejected(self):
        """One vocabulary, one rule: the plane's duplicate-node error —
        there is no second knob for a precedence rule to arbitrate."""
        with pytest.raises(ConfigurationError, match="corrupted more than once"):
            run_agreement_key_distribution(7, 2, adversary="5=noise;5=silent")

    def test_spec_delivery_power_applies_when_delivery_unset(self):
        lossy = run_agreement_key_distribution(
            7, 2, seed=3, adversary="6=silent;delivery=loss:0.3"
        )
        assert lossy.run.metrics.drops_total > 0

    def test_adaptive_strategy_is_installed(self):
        """``adaptive:silence-muffled`` silences node 1 at tick 2, so the
        run matches the static ``1=crash@2`` one, not the failure-free
        one."""
        def per_instance(adversary):
            return run_agreement_key_distribution(
                7, 2, scheme="simulated-hmac", adversary=adversary
            ).per_instance

        adaptive = per_instance("adaptive:silence-muffled")
        assert adaptive == per_instance("1=crash@2")
        assert adaptive != per_instance(None)


class TestFaultTolerance:
    def test_silent_node_within_budget(self):
        n, t = 7, 2
        result = run_agreement_key_distribution(
            n, t, adversary=AdversarySpec(overrides={5: SilentProtocol()}, t=t), seed=2
        )
        correct = set(range(n)) - {5}
        # Correct nodes still agree on each other's genuine predicates.
        for observer in correct:
            for subject in correct:
                assert result.directories[observer].predicates_for(subject) == (
                    result.keypairs[subject].predicate,
                )
        # And they agree on what (if anything) node 5 distributed.
        bindings = {
            tuple(
                p.fingerprint()
                for p in result.directories[observer].predicates_for(5)
            )
            for observer in correct
        }
        assert len(bindings) == 1
