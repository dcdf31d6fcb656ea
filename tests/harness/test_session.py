"""AmortizedSession: the paper's pay-once-run-many deployment story."""

from __future__ import annotations

import pytest

from repro.analysis import (
    amortized_messages_local,
    amortized_messages_nonauth,
    crossover_runs,
    keydist_messages,
)
from repro.errors import ConfigurationError
from repro.harness import GLOBAL, LOCAL, AmortizedSession, run_fd_scenario


class TestSessionSetup:
    def test_local_pays_keydist_once(self):
        session = AmortizedSession(n=8, t=2, auth=LOCAL, seed=1)
        assert session.setup_messages == keydist_messages(8)

    def test_global_has_free_setup(self):
        session = AmortizedSession(n=8, t=2, auth=GLOBAL, seed=1)
        assert session.setup_messages == 0

    def test_unknown_auth_rejected(self):
        with pytest.raises(ConfigurationError):
            AmortizedSession(n=8, t=2, auth="psychic")

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            AmortizedSession(n=4, t=3)


class TestRepeatedRuns:
    def test_runs_share_key_material(self):
        session = AmortizedSession(n=6, t=1, auth=LOCAL, seed=2)
        for k in range(3):
            outcome = session.run(value=k, seed=k)
            assert outcome.fd.ok
            assert outcome.run.metrics.messages_total == 5

    def test_ledger_accumulates(self):
        session = AmortizedSession(n=6, t=1, auth=LOCAL, seed=3)
        session.run("a", seed=0)
        session.run("b", seed=1)
        assert [entry.runs for entry in session.ledger] == [1, 2]
        assert session.ledger[1].local_total == keydist_messages(6) + 2 * 5

    def test_crossover_matches_closed_form(self):
        n, t = 16, 5
        session = AmortizedSession(n=n, t=t, auth=LOCAL, seed=4)
        predicted = crossover_runs(n, t)
        for k in range(predicted + 2):
            session.run(value=k, seed=k)
        assert session.crossover_run() == predicted

    def test_no_crossover_before_enough_runs(self):
        session = AmortizedSession(n=16, t=5, auth=LOCAL, seed=5)
        session.run("only", seed=0)
        assert session.crossover_run() is None

    def test_faulty_runs_still_counted_and_evaluated(self):
        session = AmortizedSession(n=8, t=2, auth=LOCAL, seed=6)
        outcome = session.run("v", seed=1, adversary="1=silent")
        assert outcome.fd.ok and outcome.fd.any_discovery
        assert outcome.correct == set(range(8)) - {1}
        assert session.ledger[-1].runs == 1

    def test_bare_rush_delivery_rushes_the_faulty_set(self):
        """A session run is the scenario pipeline with the keys already
        paid for, so ``rush`` without a node list rushes the faulty set
        exactly as :func:`run_fd_scenario` does (the session's own copy
        of the pipeline used to forget ``rushing=faulty``)."""
        n, t, adversary = 8, 2, {7: "rush"}
        session = AmortizedSession(n=n, t=t, auth=GLOBAL, seed=1, delivery="rush")
        via_session = session.run("v", seed=1, adversary=adversary)
        straight = run_fd_scenario(
            n, t, "v", auth=GLOBAL, seed=1, delivery="rush", adversary=adversary
        )
        assert len(straight.run.discoverers()) == 6
        assert via_session.run.discoverers() == straight.run.discoverers()


class TestLedgerIsTheE4Curve:
    """The session's measured ledger is experiment E4's cumulative curve:
    these pin the properties the closed-form curve used to assert."""

    def test_fresh_session_has_no_ledger_and_no_crossover(self):
        session = AmortizedSession(n=8, t=2, auth=LOCAL, seed=7)
        assert session.ledger == []
        assert session.crossover_run() is None

    def test_totals_are_strictly_cumulative(self):
        session = AmortizedSession(n=16, t=5, auth=LOCAL, seed=8)
        for k in range(10):
            session.run(value=k, seed=k)
        assert len(session.ledger) == 10
        for earlier, later in zip(session.ledger, session.ledger[1:]):
            assert later.local_total > earlier.local_total
            assert later.baseline_total > earlier.baseline_total

    def test_rows_equal_the_closed_forms(self):
        n, t = 16, 5
        session = AmortizedSession(n=n, t=t, auth=LOCAL, seed=9)
        for k in range(crossover_runs(n, t) + 2):
            session.run(value=k, seed=k)
        for entry in session.ledger:
            assert entry.local_total == amortized_messages_local(n, t, entry.runs)
            assert entry.baseline_total == amortized_messages_nonauth(
                n, t, entry.runs
            )

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_local_wins_eventually_and_stays_ahead(self, n):
        t = (n - 1) // 3
        session = AmortizedSession(n=n, t=t, auth=LOCAL, seed=n)
        for k in range(crossover_runs(n, t) + 3):
            session.run(value=k, seed=k)
        first = session.crossover_run()
        assert first == crossover_runs(n, t)
        assert all(entry.amortized for entry in session.ledger[first - 1:])

    def test_global_session_is_ahead_from_the_first_run(self):
        session = AmortizedSession(n=8, t=2, auth=GLOBAL, seed=10)
        session.run("v", seed=0)
        assert session.crossover_run() == 1
