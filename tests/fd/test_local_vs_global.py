"""The paper's central theorems, as integration tests.

Lemma 3: a protocol fulfilling F1 under global authentication fulfils it
under local authentication.  Theorems 2+4: G1/G2 carry over, and G3
violations are discovered.  Net effect (the paper's headline): the chain
FD protocol behaves identically under a trusted dealer and under the key
distribution protocol — including against the full attack catalogue.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    GLOBAL,
    LOCAL,
    attack_catalogue,
    run_fd_scenario,
)

N, T = 8, 2


class TestEquivalenceOnHonestRuns:
    @pytest.mark.parametrize("auth", [GLOBAL, LOCAL])
    def test_failure_free_runs_identical_cost(self, auth):
        outcome = run_fd_scenario(N, T, "v", auth=auth, seed=1)
        assert outcome.fd.ok and not outcome.fd.any_discovery
        assert outcome.run.metrics.messages_total == N - 1
        assert outcome.run.metrics.rounds_used == T + 1

    def test_local_auth_adds_only_the_one_time_keydist(self):
        outcome = run_fd_scenario(N, T, "v", auth=LOCAL, seed=1)
        assert outcome.kd.messages == 3 * N * (N - 1)
        assert outcome.total_messages == 3 * N * (N - 1) + (N - 1)

    @pytest.mark.parametrize("auth", [GLOBAL, LOCAL])
    def test_decisions_match_across_modes(self, auth):
        outcome = run_fd_scenario(N, T, ("v", 9), auth=auth, seed=2)
        assert set(outcome.run.decisions().values()) == {("v", 9)}


class TestLemma3AndTheorem4:
    """Every attack scenario: F1-F3 hold under LOCAL authentication, and
    discovery happens whenever the scenario's theorem-backed expectation
    says it must."""

    @pytest.mark.parametrize(
        "scenario", attack_catalogue(N, T), ids=lambda s: s.name
    )
    def test_conditions_hold_under_local_auth(self, scenario):
        outcome = run_fd_scenario(
            N,
            T,
            "v",
            auth=LOCAL,
            seed=42,
            kd_adversaries=scenario.kd_adversaries(),
            adversary=scenario.adversary,
            faulty=scenario.faulty,
        )
        assert outcome.fd.ok, f"{scenario.name}: {outcome.fd.detail}"
        assert outcome.fd.any_discovery == scenario.expects_discovery, scenario.name

    @pytest.mark.parametrize(
        "scenario",
        [s for s in attack_catalogue(N, T) if not s.kd_adversaries()],
        ids=lambda s: s.name,
    )
    def test_fd_only_attacks_match_global_auth_behaviour(self, scenario):
        """Attacks that do not touch key distribution must produce the
        same verdict under both authentication modes."""
        verdicts = {}
        for auth in (GLOBAL, LOCAL):
            outcome = run_fd_scenario(
                N,
                T,
                "v",
                auth=auth,
                seed=7,
                adversary=scenario.adversary,
                faulty=scenario.faulty,
            )
            verdicts[auth] = (outcome.fd.ok, outcome.fd.any_discovery)
        assert verdicts[GLOBAL] == verdicts[LOCAL]

    @pytest.mark.parametrize("seed", range(5))
    def test_theorem4_across_seeds(self, seed):
        """The cross-claim scenario (the canonical G3 violation) is
        discovered at every seed — Theorem 4 is not probabilistic."""
        scenario = next(
            s for s in attack_catalogue(N, T) if s.name == "cross-claim-chain"
        )
        outcome = run_fd_scenario(
            N,
            T,
            "v",
            auth=LOCAL,
            seed=seed,
            kd_adversaries=scenario.kd_adversaries(),
            adversary=scenario.adversary,
            faulty=scenario.faulty,
        )
        assert outcome.fd.ok
        assert outcome.fd.any_discovery
