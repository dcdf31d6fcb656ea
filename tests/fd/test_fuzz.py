"""Randomised adversary fuzzing: the F1-F3 invariant under arbitrary faults.

The paper's correctness claims are universally quantified over Byzantine
behaviour.  These property-based tests sample that space: random faulty
subsets within the budget, each running a randomly parameterised hostile
behaviour (silence, crashes, selective withholding, garbling, fabrication,
duplication, or arbitrary scripted noise), and assert that the chain and
echo FD protocols never violate F1-F3.  The optimistic small-range chain
runs against the same adversaries for F1 alone: it breaks F2 on purpose
(:mod:`repro.fd.smallrange`).

A falsifying example here would be a *protocol bug or a paper bug* — which
is exactly what property-based testing is for.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auth import trusted_dealer_setup
from repro.faults import (
    CrashProtocol,
    FabricatingChainNode,
    ScriptedProtocol,
    SilentProtocol,
    duplicating_chain_node,
    garbling_chain_node,
    withholding_chain_node,
)
from repro.fd import (
    ChainFDProtocol,
    EchoFDProtocol,
    evaluate_fd,
    make_chain_fd_protocols,
    make_echo_fd_protocols,
    make_small_range_protocols,
)
from repro.sim import run_protocols

N, T = 7, 2

KEYPAIRS, DIRECTORIES = trusted_dealer_setup(N, seed="fuzz")

# Payloads a scripted adversary may spray: anything wire-encodable,
# including things that *look like* protocol messages but are malformed.
NOISE_PAYLOADS = [
    ("noise", 1),
    ("fd-chain", b"not-a-signed-message"),
    ("fd-value", "fake"),
    ("fd-echo", "fake"),
    42,
    "plain string",
    (),
]


@st.composite
def chain_adversaries(draw):
    """A random Byzantine assignment for the chain protocol: up to T
    faulty nodes, each with a random hostile behaviour."""
    faulty = draw(
        st.sets(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=T)
    )
    adversaries = {}
    for node in sorted(faulty):
        kind = draw(
            st.sampled_from(
                ["silent", "crash", "withhold", "garble", "fabricate",
                 "duplicate", "script"]
            )
        )
        if kind == "silent":
            adversaries[node] = SilentProtocol()
        elif kind == "crash":
            inner = ChainFDProtocol(N, T, KEYPAIRS[node], DIRECTORIES[node])
            adversaries[node] = CrashProtocol(
                inner, crash_round=draw(st.integers(min_value=0, max_value=T + 1))
            )
        elif kind == "withhold":
            victims = draw(
                st.sets(
                    st.integers(min_value=0, max_value=N - 1).filter(
                        lambda v: v != node
                    ),
                    min_size=1,
                    max_size=3,
                )
            )
            adversaries[node] = withholding_chain_node(
                N, T, KEYPAIRS[node], DIRECTORIES[node], withhold_from=victims
            )
        elif kind == "garble":
            adversaries[node] = garbling_chain_node(
                N, T, KEYPAIRS[node], DIRECTORIES[node]
            )
        elif kind == "fabricate":
            adversaries[node] = FabricatingChainNode(
                N, T, KEYPAIRS[node], draw(st.integers())
            )
        elif kind == "duplicate":
            adversaries[node] = duplicating_chain_node(
                N, T, KEYPAIRS[node], DIRECTORIES[node]
            )
        else:
            rounds = draw(
                st.lists(st.integers(min_value=0, max_value=T + 2), max_size=3)
            )
            script = {}
            for rnd in rounds:
                recipients = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=N - 1).filter(
                            lambda v: v != node
                        ),
                        min_size=1,
                        max_size=3,
                    )
                )
                payload = draw(st.sampled_from(NOISE_PAYLOADS))
                script.setdefault(rnd, []).extend(
                    (recipient, payload) for recipient in recipients
                )
            adversaries[node] = ScriptedProtocol(script, halt_after=T + 2)
    return adversaries


class TestChainFuzz:
    @given(adversaries=chain_adversaries(), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_f1_f2_f3_never_violated(self, adversaries, seed):
        protocols = make_chain_fd_protocols(
            N, T, "v", KEYPAIRS, DIRECTORIES, adversaries=adversaries
        )
        result = run_protocols(protocols, seed=seed)
        correct = set(range(N)) - set(adversaries)
        evaluation = evaluate_fd(result, correct, 0, "v")
        assert evaluation.ok, (
            f"{evaluation.detail}; adversaries at {sorted(adversaries)}"
        )

    @given(adversaries=chain_adversaries(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_no_fabricated_value_decided_under_correct_sender(
        self, adversaries, seed
    ):
        """When the sender is correct, no correct node ever decides a
        value the sender did not sign — regardless of any discovery
        (stronger than F3, which only binds in undiscovered runs; the
        chain's unforgeability gives it unconditionally).  A *faulty*
        sender may of course commit any value, so those draws are skipped.
        """
        if 0 in adversaries:
            return
        protocols = make_chain_fd_protocols(
            N, T, "genuine", KEYPAIRS, DIRECTORIES, adversaries=adversaries
        )
        result = run_protocols(protocols, seed=seed)
        correct = set(range(N)) - set(adversaries)
        for state in result.states:
            if state.node in correct and state.decided:
                assert state.decision == "genuine"

    @given(
        adversaries=chain_adversaries(),
        value=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimistic_chain_terminates(self, adversaries, value, seed):
        """No exception escapes the optimistic chain and F1 holds; F2 is
        not asserted, because withholding breaks it by design."""
        protocols = make_small_range_protocols(
            N, T, value, KEYPAIRS, DIRECTORIES,
            adversaries=adversaries, optimistic=True,
        )
        result = run_protocols(protocols, seed=seed)
        correct = set(range(N)) - set(adversaries)
        evaluation = evaluate_fd(result, correct, 0, value)
        assert evaluation.weak_termination, (
            f"{evaluation.detail}; adversaries at {sorted(adversaries)}"
        )


@st.composite
def echo_adversaries(draw):
    faulty = draw(
        st.sets(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=T)
    )
    adversaries = {}
    for node in sorted(faulty):
        kind = draw(st.sampled_from(["silent", "crash", "script"]))
        if kind == "silent":
            adversaries[node] = SilentProtocol()
        elif kind == "crash":
            inner = EchoFDProtocol(N, T, value="v" if node == 0 else None)
            adversaries[node] = CrashProtocol(
                inner, crash_round=draw(st.integers(min_value=0, max_value=2))
            )
        else:
            script = {}
            for rnd in draw(st.lists(st.integers(0, 2), max_size=3)):
                recipients = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=N - 1).filter(
                            lambda v: v != node
                        ),
                        min_size=1,
                        max_size=4,
                    )
                )
                payload = draw(st.sampled_from(NOISE_PAYLOADS))
                script.setdefault(rnd, []).extend(
                    (recipient, payload) for recipient in recipients
                )
            adversaries[node] = ScriptedProtocol(script, halt_after=2)
    return adversaries


class TestEchoFuzz:
    @given(adversaries=echo_adversaries(), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_f1_f2_f3_never_violated(self, adversaries, seed):
        protocols = make_echo_fd_protocols(N, T, "v", adversaries=adversaries)
        result = run_protocols(protocols, seed=seed)
        correct = set(range(N)) - set(adversaries)
        evaluation = evaluate_fd(result, correct, 0, "v")
        assert evaluation.ok, (
            f"{evaluation.detail}; adversaries at {sorted(adversaries)}"
        )
