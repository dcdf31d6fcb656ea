"""Harness: scenario runner wiring, auth modes, error handling."""

from __future__ import annotations

import pytest

from repro.agreement import (
    make_extended_protocols,
    make_oral_agreement_protocols,
    make_signed_agreement_protocols,
)
from repro.analysis.experiments import e6_attacks
from repro.errors import ConfigurationError
from repro.fd import (
    make_adaptive_fd_protocols,
    make_chain_fd_protocols,
    make_echo_fd_protocols,
    make_small_range_protocols,
    make_timeout_fd_protocols,
)
from repro.faults import AdversarySpec, SilentProtocol
from repro.harness import (
    GLOBAL,
    LOCAL,
    AmortizedSession,
    AttackScenario,
    run_ba_scenario,
    run_fd_scenario,
    setup_authentication,
)


class TestSetupAuthentication:
    def test_global_produces_consistent_directories(self):
        keypairs, directories, kd = setup_authentication(5, auth=GLOBAL, seed=1)
        assert kd is None
        for observer in range(5):
            for subject in range(5):
                assert directories[observer].predicates_for(subject) == (
                    keypairs[subject].predicate,
                )

    def test_local_returns_kd_result(self):
        keypairs, directories, kd = setup_authentication(4, auth=LOCAL, seed=1)
        assert kd is not None
        assert kd.messages == 3 * 4 * 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            setup_authentication(4, auth="vibes")

    def test_kd_adversaries_under_global_rejected(self):
        with pytest.raises(ConfigurationError):
            setup_authentication(
                4, auth=GLOBAL, kd_adversaries={1: SilentProtocol()}
            )


class TestRunFdScenario:
    def test_chain_defaults(self):
        outcome = run_fd_scenario(6, 1, "v", seed=2)
        assert outcome.fd.ok
        assert outcome.ba is None
        assert outcome.total_messages == 5  # no keydist under global auth

    def test_total_messages_includes_keydist_under_local(self):
        outcome = run_fd_scenario(6, 1, "v", auth=LOCAL, seed=2)
        assert outcome.total_messages == 3 * 6 * 5 + 5

    def test_echo_protocol(self):
        outcome = run_fd_scenario(6, 2, "v", protocol="echo", seed=3)
        assert outcome.fd.ok
        assert outcome.run.metrics.messages_total == 3 * 5

    def test_smallrange_protocols(self):
        sound = run_fd_scenario(6, 0, 1, protocol="smallrange", seed=4)
        optimistic = run_fd_scenario(
            6, 2, 0, protocol="smallrange-optimistic", seed=4
        )
        assert sound.fd.ok and optimistic.fd.ok
        assert optimistic.run.metrics.messages_total == 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fd_scenario(6, 1, "v", protocol="pigeon")

    def test_faulty_set_inferred_from_adversaries(self):
        outcome = run_fd_scenario(
            6,
            1,
            "v",
            seed=5,
            adversary=lambda kp, dirs: AdversarySpec(
                overrides={1: SilentProtocol()}, t=1
            ),
        )
        assert outcome.correct == {0, 2, 3, 4, 5}
        assert outcome.fd.ok and outcome.fd.any_discovery

    def test_explicit_faulty_set_wins(self):
        outcome = run_fd_scenario(6, 1, "v", seed=6, faulty={4, 5})
        assert outcome.correct == {0, 1, 2, 3}


class TestRunBaScenario:
    def test_extension_default(self):
        outcome = run_ba_scenario(6, 1, "v", seed=7)
        assert outcome.ba.ok
        assert outcome.fd is None
        assert outcome.run.metrics.messages_total == 5

    def test_signed_protocol(self):
        outcome = run_ba_scenario(6, 1, "v", protocol="signed", seed=8)
        assert outcome.ba.ok
        assert outcome.run.metrics.messages_total == 5 + 5 * 4

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_ba_scenario(6, 1, "v", protocol="quantum")


def _observables(outcome):
    metrics = outcome.run.metrics
    return (
        metrics.messages_total,
        metrics.drops_total,
        outcome.run.decisions(),
        outcome.correct,
        outcome.committed,
    )


class TestOnePipeline:
    """Every scenario entry is the same pipeline: the straight run, the
    ``checkpoint_at`` + ``resume_from`` pair and (chain) an amortized
    session run agree on messages, drops, decisions, ``correct`` and
    ``committed``."""

    N, T, SEED = 8, 2, 3

    @pytest.mark.parametrize("delivery", [None, "loss:0.2"])
    @pytest.mark.parametrize("adversary", [None, "5=silent", "adaptive:gag-sender"])
    @pytest.mark.parametrize("protocol", ["chain", "timeout", "adaptive"])
    def test_entries_agree(self, protocol, adversary, delivery):
        scenario = dict(
            protocol=protocol, seed=self.SEED, adversary=adversary, delivery=delivery
        )
        straight = run_fd_scenario(self.N, self.T, "v", **scenario)
        expected = _observables(straight)
        if adversary == "adaptive:gag-sender":
            assert straight.committed == ((0, "ack-lie"),)
            assert 0 not in straight.correct

        prefix = run_fd_scenario(self.N, self.T, "v", checkpoint_at=1, **scenario)
        resumed = run_fd_scenario(self.N, self.T, "v", resume_from=prefix, **scenario)
        assert _observables(resumed) == expected

        if protocol == "chain":
            session = AmortizedSession(
                self.N, self.T, auth=GLOBAL, seed=self.SEED, delivery=delivery
            )
            via_session = session.run("v", seed=self.SEED, adversary=adversary)
            assert _observables(via_session) == expected


class TestBudgetOnEveryEntry:
    """A deferred factory whose spec exceeds ``t`` never runs — whichever
    entry it came in through."""

    @staticmethod
    def over_budget(keypairs, directories):
        return AdversarySpec(
            overrides={1: SilentProtocol(), 2: SilentProtocol()}, t=1
        )

    def test_fd_ba_and_session_refuse(self):
        with pytest.raises(ConfigurationError, match="fault budget is t=1"):
            run_fd_scenario(6, 1, "v", adversary=self.over_budget)
        with pytest.raises(ConfigurationError, match="fault budget is t=1"):
            run_ba_scenario(6, 1, "v", adversary=self.over_budget)
        session = AmortizedSession(6, 1, auth=GLOBAL)
        with pytest.raises(ConfigurationError, match="fault budget is t=1"):
            session.run("v", adversary=self.over_budget)
        assert session.ledger == []

    def test_e6_report_path_refuses(self, monkeypatch):
        """The E6 *report* runs the E6 workload, which hands the
        scenario's deferred factory to the runner, so a catalogue entry
        claiming more corruption than ``t`` is refused there too."""
        rogue = AttackScenario(
            name="over-budget",
            faulty={1, 2, 3},
            kd_adversaries=dict,
            adversary=lambda kp, dirs: AdversarySpec(
                overrides={node: SilentProtocol() for node in (1, 2, 3)}, t=2
            ),
        )
        for module in ("repro.analysis.experiments", "repro.harness.workloads"):
            monkeypatch.setattr(f"{module}.attack_catalogue", lambda n, t: [rogue])
        with pytest.raises(ConfigurationError, match="fault budget is t=2"):
            e6_attacks(n=8, t=2, seeds=1)


#: Every ``make_*_protocols`` factory as ``(factory, t, args, keyed)``:
#: it is called ``factory(n, t, *args, [keypairs, directories,]
#: adversaries=...)``.
FACTORIES = [
    (make_chain_fd_protocols, 1, ("v",), True),
    (make_timeout_fd_protocols, 1, ("v",), True),
    (make_adaptive_fd_protocols, 1, ("v",), True),
    (make_small_range_protocols, 0, (1,), True),
    (make_signed_agreement_protocols, 1, ("v",), True),
    (make_extended_protocols, 1, ("v",), True),
    (make_echo_fd_protocols, 1, ("v",), False),
    (make_oral_agreement_protocols, 1, ("v",), False),
]


class TestProtocolAssembly:
    """The eight protocol factories share one assembly contract."""

    N = 5

    @pytest.mark.parametrize(
        "factory,t,args,keyed", FACTORIES, ids=[f.__name__ for f, *_ in FACTORIES]
    )
    def test_contract(self, factory, t, args, keyed):
        keypairs, directories, _ = setup_authentication(self.N, scheme="simulated-hmac")
        keys = (keypairs, directories) if keyed else ()
        with pytest.raises(ConfigurationError, match="outside"):
            factory(self.N, t, *args, *keys, adversaries={self.N + 1: SilentProtocol()})
        if not keyed:
            return
        del keypairs[2]
        with pytest.raises(ConfigurationError, match="honest node 2 is missing"):
            factory(self.N, t, *args, *keys)
        # A replaced node needs no key material.
        protocols = factory(self.N, t, *args, *keys, adversaries={2: SilentProtocol()})
        assert len(protocols) == self.N
