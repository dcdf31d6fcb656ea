"""The key distribution protocol establishing *local authentication*.

Paper Fig. 1, verbatim schedule (three communication rounds):

===== ======================================================================
Round Action of each node ``P_i``
===== ======================================================================
0     generate ``(S_i, T_i)``; send ``T_i`` to all other nodes
1     for each received ``T_j``: pick a fresh random nonce ``r_j`` and send
      the challenge ``{P_i, P_j, r_j}`` (plaintext) to ``P_j``
2     for each received challenge ``{P_j, P_i, r}`` *from* ``P_j``: sign it
      iff it names this node as challenged and the true sender as
      challenger, and return ``{P_j, P_i, r}_{S_i}``
3     for each received response: accept ``T_j`` as belonging to ``P_j``
      iff the signature verifies under the challenged predicate and the
      nonce matches the one issued
===== ======================================================================

Message complexity: each ordered pair of nodes exchanges predicate,
challenge and response — ``3 * n * (n-1)`` messages in 3 rounds, the
figure the paper states in its section 3.1 (experiment E1 measures it).

What the protocol guarantees (paper Theorem 2): properties G1 and G2 —
no node can get a predicate accepted unless it knows the matching secret
key, and every correct node's genuine predicate is accepted by every
correct node.  What it cannot guarantee: G3 (consistent assignment for
*faulty* signers); see :mod:`repro.auth.properties` and the paper's
section 4 for why failure discovery survives that gap.

Byzantine tolerance: the protocol makes sense for an **arbitrary** number
of arbitrarily faulty nodes — that is the paper's headline point.  Correct
nodes ignore malformed traffic (recorded as anomalies for diagnostics);
there is nothing a faulty node can send that blocks two correct nodes from
authenticating each other, a fact the tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto import DEFAULT_SCHEME
from ..crypto.keys import KeyPair, TestPredicate, get_scheme
from ..crypto.signing import SignedMessage, sign_value
from ..sim import (
    Envelope,
    NodeContext,
    Protocol,
    RunResult,
    make_delivery,
    run_protocols,
)
from ..types import NodeId
from .directory import KeyDirectory

# Payload kind tags.
PREDICATE = "kd-predicate"
CHALLENGE = "kd-challenge"
RESPONSE = "kd-response"

#: Output keys under which results land in ``NodeState.outputs``.
OUTPUT_DIRECTORY = "directory"
OUTPUT_KEYPAIR = "keypair"
OUTPUT_ANOMALIES = "anomalies"

#: Challenge nonces are 128-bit: collision/guessing probability negligible.
NONCE_BITS = 128

#: Total rounds of the protocol (paper: "It takes 3 rounds").
KEY_DISTRIBUTION_ROUNDS = 3


def challenge_body(challenger: NodeId, challenged: NodeId, nonce: int) -> tuple:
    """The structured value ``{P_i, P_j, r}`` that gets signed in round 2.

    The tag provides domain separation: a signature on a challenge can
    never be confused with a signature from any other protocol in this
    library, so obtaining one during key distribution is useless elsewhere.
    """
    return (CHALLENGE, int(challenger), int(challenged), int(nonce))


class KeyDistributionProtocol(Protocol):
    """Honest behaviour of paper Fig. 1 (one node's side).

    Outputs on completion:

    * ``outputs["directory"]`` — the node's :class:`KeyDirectory` of
      accepted predicates (its own genuine predicate is included: a node
      trivially knows its own key);
    * ``outputs["keypair"]`` — the generated ``(S_i, T_i)``;
    * ``outputs["anomalies"]`` — malformed/unexpected traffic observed,
      for diagnostics (key distribution itself does not "discover
      failures"; that concept belongs to the FD protocols built on top).
    """

    def __init__(self, scheme: str = DEFAULT_SCHEME) -> None:
        self._scheme_name = scheme
        self._keypair: KeyPair | None = None
        self._directory: KeyDirectory | None = None
        # challenged peer -> (predicate, nonce, predicate, nonce, ...): one
        # flat tuple of every candidate predicate and the nonce issued for it
        self._pending: dict[NodeId, tuple[Any, ...]] = {}
        self._anomalies: list[str] = []

    def setup(self, ctx: NodeContext) -> None:
        scheme = get_scheme(self._scheme_name)
        self._keypair = scheme.generate_keypair(ctx.rng)
        self._directory = KeyDirectory(owner=ctx.node)
        self._directory.accept(ctx.node, self._keypair.predicate)

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0:
            ctx.broadcast((PREDICATE, self._keypair.predicate))
        elif ctx.round == 1:
            self._issue_challenges(ctx, inbox)
        elif ctx.round == 2:
            self._answer_challenges(ctx, inbox)
        else:
            self._collect_responses(ctx, inbox)
            self._finish(ctx)

    def _issue_challenges(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Round 1: challenge every received predicate."""
        for env in inbox:
            payload = env.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == PREDICATE
                and isinstance(payload[1], TestPredicate)
            ):
                nonce = ctx.rng.getrandbits(NONCE_BITS)
                pending = self._pending
                pending[env.sender] = pending.get(env.sender, ()) + (payload[1], nonce)
                ctx.send(env.sender, challenge_body(ctx.node, env.sender, nonce))
            else:
                self._anomalies.append(
                    f"round 1: unexpected payload from {env.sender}"
                )

    def _answer_challenges(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Round 2: sign challenges naming (true sender, me).

        The name check is the protocol's security core: signing only
        challenges that embed the challenged node's own name prevents a
        faulty node from relaying a third party's challenge to harvest a
        signature it could replay (the oracle attack Theorem 2's proof
        implicitly excludes).
        """
        for env in inbox:
            payload = env.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == CHALLENGE
                and isinstance(payload[1], int)
                and isinstance(payload[2], int)
                and isinstance(payload[3], int)
            ):
                challenger, challenged, nonce = payload[1], payload[2], payload[3]
                if challenged == ctx.node and challenger == env.sender:
                    signed = sign_value(
                        self._keypair.secret,
                        challenge_body(challenger, challenged, nonce),
                    )
                    ctx.send(env.sender, (RESPONSE, signed))
                else:
                    self._anomalies.append(
                        f"round 2: misnamed challenge from {env.sender}"
                    )
            else:
                self._anomalies.append(
                    f"round 2: unexpected payload from {env.sender}"
                )

    def _collect_responses(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Round 3: accept predicates whose owner answered correctly."""
        for env in inbox:
            payload = env.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == RESPONSE
                and isinstance(payload[1], SignedMessage)
            ):
                self._check_response(ctx, env.sender, payload[1])
            else:
                self._anomalies.append(
                    f"round 3: unexpected payload from {env.sender}"
                )

    def _check_response(
        self, ctx: NodeContext, responder: NodeId, signed: SignedMessage
    ) -> None:
        pending = self._pending.get(responder, ())
        for predicate, nonce in zip(pending[::2], pending[1::2]):
            expected = challenge_body(ctx.node, responder, nonce)
            if signed.body == expected and signed.check(predicate):
                self._directory.accept(responder, predicate)
                return
        self._anomalies.append(f"round 3: unaccepted response from {responder}")

    def _finish(self, ctx: NodeContext) -> None:
        ctx.state.outputs[OUTPUT_DIRECTORY] = self._directory
        ctx.state.outputs[OUTPUT_KEYPAIR] = self._keypair
        ctx.state.outputs[OUTPUT_ANOMALIES] = tuple(self._anomalies)
        ctx.halt()


@dataclass
class KeyDistributionResult:
    """Everything the key distribution run produced.

    :ivar run: the raw simulator result (metrics, states, views).
    :ivar directories: node -> its :class:`KeyDirectory`; present for every
        node whose protocol produced one (honest nodes always do, attack
        behaviours may not).
    :ivar keypairs: node -> its generated :class:`KeyPair`, same caveat.
    """

    run: RunResult
    directories: dict[NodeId, KeyDirectory] = field(default_factory=dict)
    keypairs: dict[NodeId, KeyPair] = field(default_factory=dict)

    @property
    def messages(self) -> int:
        return self.run.metrics.messages_total

    @property
    def rounds(self) -> int:
        return self.run.metrics.rounds_used

    def genuine_predicates(self) -> dict[NodeId, Any]:
        """node -> the predicate matching the key it actually holds."""
        return {node: kp.predicate for node, kp in self.keypairs.items()}


def run_key_distribution(
    n: int,
    scheme: str = DEFAULT_SCHEME,
    adversaries: dict[NodeId, Protocol] | None = None,
    seed: int | str = 0,
    delivery: "str | None" = None,
) -> KeyDistributionResult:
    """Run paper Fig. 1 over ``n`` nodes and collect the results.

    :param adversaries: node id -> replacement behaviour for faulty nodes
        (from :mod:`repro.faults.keyattacks` or custom).  All other nodes
        run the honest protocol.
    :param seed: master seed; determines keys and nonces reproducibly.
    :param delivery: optional delivery model or spec string (see
        :func:`repro.sim.make_delivery`).  The paper proves the protocol
        in the synchronous model; the knob measures what happens outside
        it (challenges that miss their round are simply never answered).
    """
    adversaries = adversaries or {}
    protocols: list[Protocol] = [
        adversaries.get(node, KeyDistributionProtocol(scheme=scheme))
        for node in range(n)
    ]
    run = run_protocols(protocols, seed=seed, delivery=make_delivery(delivery))
    result = KeyDistributionResult(run=run)
    for state in run.states:
        if OUTPUT_DIRECTORY in state.outputs:
            result.directories[state.node] = state.outputs[OUTPUT_DIRECTORY]
        if OUTPUT_KEYPAIR in state.outputs:
            result.keypairs[state.node] = state.outputs[OUTPUT_KEYPAIR]
    return result
