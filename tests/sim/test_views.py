"""Views: the paper's semantic failure-discovery definition, exercised.

    "If a node's view of a run differs from its views of all failure-free
    runs it discovers a failure."

These tests run a protocol once honestly to get the reference views, then
re-run with faults and check that view deviation is exactly where the
operational discovery fired.
"""

from __future__ import annotations

from repro.auth import trusted_dealer_setup
from repro.faults import SilentProtocol
from repro.fd import make_chain_fd_protocols
from repro.sim import Envelope, Protocol, run_protocols
from repro.sim.views import ReceivedMessage, View


class Chatter(Protocol):
    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def on_round(self, ctx, inbox):
        if ctx.round < self.rounds:
            ctx.broadcast(("r", ctx.round, ctx.node))
        else:
            ctx.halt()


class TestViewRecording:
    def test_views_capture_received_sets(self):
        result = run_protocols(
            [Chatter(2), Chatter(2), Chatter(2)], record_views=True
        )
        view = result.views[0]
        assert len(view.rounds) >= 3
        assert view.rounds[0] == frozenset()           # nothing in flight yet
        assert len(view.rounds[1]) == 2                 # two peers broadcast
        senders = {m.sender for m in view.rounds[1]}
        assert senders == {1, 2}

    def test_payload_decodes_back(self):
        result = run_protocols([Chatter(1), Chatter(1)], record_views=True)
        message = next(iter(result.views[0].rounds[1]))
        assert message.payload() == ("r", 0, 1)

    def test_views_off_by_default(self):
        result = run_protocols([Chatter(1), Chatter(1)])
        assert result.views == []


class TestViewComparison:
    def test_identical_runs_have_identical_views(self):
        first = run_protocols([Chatter(2) for _ in range(3)], seed=5, record_views=True)
        second = run_protocols([Chatter(2) for _ in range(3)], seed=5, record_views=True)
        for va, vb in zip(first.views, second.views):
            assert va.differs_from(vb) is None

    def test_deviation_round_is_reported(self):
        reference = View(node=0)
        reference.record_round([])
        reference.record_round(
            [Envelope(sender=1, recipient=0, payload="x", round_sent=0)]
        )
        actual = View(node=0)
        actual.record_round([])
        actual.record_round([])  # the expected message is missing
        assert actual.differs_from(reference) == 1

    def test_length_mismatch_is_deviation(self):
        reference = View(node=0)
        reference.record_round([])
        actual = View(node=0)
        actual.record_round([])
        actual.record_round([])
        assert actual.differs_from(reference) == 1


class TestSemanticDiscoveryAgreement:
    """Operational discovery fires iff the view deviates from the
    failure-free reference — checked on the chain FD protocol."""

    def _chain_views(self, n, t, adversaries=None):
        keypairs, directories = trusted_dealer_setup(n, seed="views")
        protocols = make_chain_fd_protocols(
            n, t, "v", keypairs, directories, adversaries=adversaries or {}
        )
        return run_protocols(protocols, seed=1, record_views=True)

    def test_honest_run_no_deviation_no_discovery(self):
        n, t = 6, 1
        reference = self._chain_views(n, t)
        repeat = self._chain_views(n, t)
        for ref, act in zip(reference.views, repeat.views):
            assert act.differs_from(ref) is None
        assert reference.discoverers() == []

    def test_crash_deviates_views_and_triggers_discovery(self):
        n, t = 6, 1
        reference = self._chain_views(n, t)
        faulty = self._chain_views(n, t, adversaries={1: SilentProtocol()})
        deviating = {
            node
            for node in range(n)
            if node != 1
            and faulty.views[node].differs_from(reference.views[node]) is not None
        }
        discoverers = set(faulty.discoverers()) - {1}
        # Every correct discoverer deviates, and every deviating correct
        # node discovered: the operational checks implement the semantic
        # definition exactly for this protocol.
        assert discoverers
        assert discoverers == deviating
