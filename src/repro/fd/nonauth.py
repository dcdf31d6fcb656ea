"""The non-authenticated Failure Discovery baseline: echo protocol.

The paper compares against Hadzilacos & Halpern's result that
non-authenticated protocols for arbitrary failures need **O(n · t)**
messages — Θ(n²) when a constant fraction of nodes may be faulty.  We do
not have the 1995 Math Systems Theory paper's construction, so this module
provides a reconstruction meeting the stated complexity and, provably
(see ``tests/fd/test_nonauth.py``), conditions F1-F3:

* round 0 — the sender ``P_0`` sends its value, unsigned, to everyone;
* round 1 — the *echoers* ``P_1 .. P_t`` each broadcast the value they
  received to everyone else;
* round 2 — every node checks that it received exactly one value from the
  sender and exactly one echo from every echoer, all equal; any missing,
  duplicate or mismatching message is a deviation from every failure-free
  view → discover failure; otherwise decide the received value.

Failure-free cost: ``(n-1) + t(n-1) = (t+1)(n-1)`` messages in 2 rounds —
the claimed O(n·t).

Why t echoers suffice (the discovery argument): within the budget, if the
sender is faulty then at most ``t - 1`` echoers are, so some echoer is
correct and its uniform broadcast pins one value; any correct node the
sender told a *different* value sees the mismatch and discovers.  If the
sender is correct, every mismatching echo contradicts the receiver's own
sender-value and is discovered immediately.  Dropping to ``t - 1`` echoers
breaks the argument — a negative test demonstrates the concrete attack
(sender plus ``t - 1`` echoers faulty, splitting the correct nodes).

No signatures anywhere: this is the world the paper's authenticated
protocol is being compared against.
"""

from __future__ import annotations

from typing import Any

from ..sim import Envelope, NodeContext, Protocol, assemble_protocols
from ..types import NodeId, validate_fault_budget

VALUE_MSG = "fd-value"
ECHO_MSG = "fd-echo"

#: The distinguished sender is node 0, as in the authenticated protocol.
SENDER: NodeId = 0

#: The echo protocol always finishes after round 2 (sends in rounds 0, 1).
ECHO_FD_ROUNDS = 2


class EchoFDProtocol(Protocol):
    """One node's behaviour in the echo FD protocol.

    :param n: network size.
    :param t: fault budget; nodes ``1 .. t`` act as echoers.
    :param value: initial value; only consulted on the sender.
    """

    def __init__(self, n: int, t: int, value: Any = None) -> None:
        validate_fault_budget(t, n)
        self._n = n
        self._t = t
        self._value = value
        self._received: Any = None
        self._got_value = False

    def _is_echoer(self, node: NodeId) -> bool:
        return 1 <= node <= self._t

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0:
            if ctx.node == SENDER:
                ctx.broadcast((VALUE_MSG, self._value))
                self._received = self._value
                self._got_value = True
            if inbox:
                ctx.discover_failure("message before the protocol started")
                ctx.halt()
        elif ctx.round == 1:
            self._round_one(ctx, inbox)
        else:
            self._round_two(ctx, inbox)

    def _round_one(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Receive the sender's value; echoers rebroadcast it."""
        if ctx.node == SENDER:
            if inbox:
                ctx.discover_failure("unexpected message to sender in round 1")
                ctx.halt()
            return
        values = [
            env.payload[1]
            for env in inbox
            if env.sender == SENDER
            and isinstance(env.payload, tuple)
            and len(env.payload) == 2
            and env.payload[0] == VALUE_MSG
        ]
        if len(values) != len(inbox) or len(values) != 1:
            ctx.discover_failure(
                f"expected exactly one value from the sender, view had "
                f"{len(inbox)} message(s)"
            )
            ctx.halt()
            return
        self._received = values[0]
        self._got_value = True
        if self._is_echoer(ctx.node):
            ctx.broadcast((ECHO_MSG, self._received))

    def _round_two(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Cross-check the echoes and decide."""
        expected_echoers = {
            node for node in range(1, self._t + 1) if node != ctx.node
        }
        seen: set[NodeId] = set()
        for env in inbox:
            payload = env.payload
            well_formed = (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == ECHO_MSG
            )
            if (
                not well_formed
                or env.sender not in expected_echoers
                or env.sender in seen
            ):
                ctx.discover_failure(
                    f"unexpected round-2 message from {env.sender}"
                )
                ctx.halt()
                return
            seen.add(env.sender)
            if payload[1] != self._received:
                ctx.discover_failure(
                    f"echo from {env.sender} contradicts the sender's value"
                )
                ctx.halt()
                return
        if seen != expected_echoers:
            ctx.discover_failure(
                f"missing echoes from {sorted(expected_echoers - seen)}"
            )
            ctx.halt()
            return
        ctx.decide(self._received)
        ctx.halt()


def make_echo_fd_protocols(
    n: int,
    t: int,
    value: Any,
    adversaries: dict[NodeId, Protocol] | None = None,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one echo-FD run.

    No keys are involved: the baseline is deliberately unauthenticated.
    """
    return assemble_protocols(
        n,
        t,
        lambda node: EchoFDProtocol(n, t, value=value if node == SENDER else None),
        adversaries,
    )
