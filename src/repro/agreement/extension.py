"""FD→BA: extending Failure Discovery to full Byzantine Agreement.

The reason Failure Discovery matters (paper section 4, after Hadzilacos &
Halpern): "a protocol for Failure Discovery can be extended under certain
conditions to a protocol for Byzantine Agreement [whose] failure-free runs
[need] the same number of messages as the underlying Failure Discovery
protocol."  This module reproduces that construction concretely:

Phase 1 — rounds ``0 .. t+1``: the chain FD protocol (paper Fig. 2) runs
    unchanged.  In failure-free runs this is all the traffic there is:
    **n − 1 messages**.

Phase 2 — alarm window, rounds ``t+2 .. 2t+3``: any node that discovered a
    failure broadcasts a signed ALARM at round ``t+2``.  Alarms follow the
    Dolev-Strong discipline: an alarm received ``j`` rounds into the
    window is accepted only if it carries at least ``j`` distinct valid
    signatures; a correct node accepting with ``j <= t`` countersigns and
    rebroadcasts once.  This yields the key all-or-none property: **if any
    correct node accepts an alarm by the end of the window, every correct
    node does** (an alarm accepted at the last slot carries ``t+1``
    distinct signatures, hence one from a correct node, which already
    rebroadcast to everyone).  Failure-free runs send nothing here.

Phase 3 — fallback: nodes that saw no alarm decide their FD value and
    stop; alarmed nodes run SM(t) (:mod:`repro.agreement.signed`) with the
    original sender and decide its outcome.

Why this achieves Byzantine Agreement:

* nobody alarmed → no correct node discovered (a correct discoverer
  always alarms), so FD's F2/F3 give agreement and validity directly;
* someone (correct) alarmed → *all* correct nodes fall back together and
  SM(t) supplies agreement and validity.

The two branches never mix across correct nodes — that is exactly what the
Dolev-Strong rule buys.  Experiment E7 measures the headline consequence:
failure-free BA at FD cost (n−1 messages) versus Θ(n²) for running SM(t)
directly.
"""

from __future__ import annotations

from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.chain import chain_depth, extend_chain, sign_leaf, verify_chain
from ..crypto.keys import KeyPair
from ..crypto.signing import SignedMessage
from ..fd.authenticated import ChainFDProtocol
from ..sim import Envelope, NodeContext, Protocol, assemble_protocols, node_keys
from ..sim.compose import PhaseHost
from ..types import NodeId, validate_fault_budget
from .problem import DEFAULT_VALUE
from .signed import SignedAgreementProtocol

ALARM_MSG = "ba-alarm"
ALARM_BODY = "ALARM"

#: The distinguished sender is node 0.
SENDER: NodeId = 0

#: Output keys describing how the node reached its decision.
OUTPUT_PATH = "extension-path"  # "fd" or "fallback"
OUTPUT_FD_DISCOVERY = "extension-fd-discovery"


class ExtendedAgreementProtocol(Protocol):
    """One node's behaviour in the extended (FD + alarms + fallback) BA."""

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: Any = None,
        default: Any = DEFAULT_VALUE,
    ) -> None:
        validate_fault_budget(t, n)
        self._n = n
        self._t = t
        self._keypair = keypair
        self._directory = directory
        self._value = value
        self._default = default
        # Phase boundaries.
        self._alarm_start = t + 2          # discoverers broadcast here
        self._alarm_end = self._alarm_start + t + 1
        self._fd_host: PhaseHost | None = None
        self._sm_host: PhaseHost | None = None
        self._alarmed = False              # accepted (or raised) an alarm
        self._relayed_alarm = False

    def setup(self, ctx: NodeContext) -> None:
        self._fd_host = PhaseHost(
            ChainFDProtocol(
                self._n,
                self._t,
                self._keypair,
                self._directory,
                value=self._value,
            ),
            offset=0,
        )

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        round_ = ctx.round
        if round_ <= self._t + 1:
            self._fd_host.step(ctx, inbox)
            return
        if round_ < self._alarm_end:
            if round_ == self._alarm_start:
                self._maybe_raise_alarm(ctx)
            if round_ > self._alarm_start:
                self._process_alarms(ctx, inbox, round_)
            return
        if round_ == self._alarm_end:
            self._process_alarms(ctx, inbox, round_)
            self._conclude_or_fall_back(ctx)
        if round_ >= self._alarm_end and self._sm_host is not None:
            self._run_fallback(ctx, inbox)

    # -- phase 2: alarms ---------------------------------------------------

    def _maybe_raise_alarm(self, ctx: NodeContext) -> None:
        if self._fd_host.outcome.discovered_failure:
            alarm = sign_leaf(self._keypair.secret, ALARM_BODY)
            ctx.broadcast((ALARM_MSG, alarm))
            self._alarmed = True
            self._relayed_alarm = True

    def _process_alarms(
        self, ctx: NodeContext, inbox: list[Envelope], round_: int
    ) -> None:
        """Dolev-Strong acceptance: at window slot j, require >= j signers."""
        slot = round_ - self._alarm_start
        for env in inbox:
            payload = env.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == ALARM_MSG
                and isinstance(payload[1], SignedMessage)
            ):
                # Non-alarm traffic here comes only from faulty nodes and
                # cannot be turned into an accepted alarm in time; ignore.
                continue
            signed = payload[1]
            verdict = verify_chain(
                signed, outer_signer=env.sender, directory=self._directory
            )
            if not verdict.ok or verdict.value != ALARM_BODY:
                continue
            if chain_depth(signed) < slot:
                continue  # too few signatures for this slot
            if not self._alarmed:
                self._alarmed = True
            if (
                not self._relayed_alarm
                and slot <= self._t
                and ctx.node not in verdict.signers()
            ):
                extended = extend_chain(
                    self._keypair.secret, env.sender, signed
                )
                ctx.broadcast((ALARM_MSG, extended))
                self._relayed_alarm = True

    # -- phase 3: decide or fall back ---------------------------------------

    def _conclude_or_fall_back(self, ctx: NodeContext) -> None:
        fd = self._fd_host.outcome
        ctx.state.outputs[OUTPUT_FD_DISCOVERY] = fd.discovered
        if not self._alarmed:
            ctx.state.outputs[OUTPUT_PATH] = "fd"
            if fd.decided:
                ctx.decide(fd.decision)
            else:
                # F1 guarantees decided-or-discovered; an undecided,
                # undiscovering node cannot occur for the honest protocol.
                ctx.decide(self._default)
            ctx.halt()
            return
        ctx.state.outputs[OUTPUT_PATH] = "fallback"
        # The fallback phase shares the wire with straggling alarm (and
        # Byzantine) traffic; the host's kind filter — the same
        # demultiplexing notion the instance mux applies per instance —
        # hands SM(t) only its own tagged payloads.  The FD host above
        # deliberately has no filter: failure discovery treats unexpected
        # traffic as evidence.
        self._sm_host = PhaseHost(
            SignedAgreementProtocol(
                self._n,
                self._t,
                self._keypair,
                self._directory,
                value=self._value,
                default=self._default,
            ),
            offset=self._alarm_end,
            kinds=("ba-signed",),
        )

    def _run_fallback(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self._sm_host.step(ctx, inbox)
        outcome = self._sm_host.outcome
        if outcome.halted:
            ctx.decide(
                outcome.decision if outcome.decided else self._default
            )
            ctx.halt()


def make_extended_protocols(
    n: int,
    t: int,
    value: Any,
    keypairs: dict[NodeId, KeyPair],
    directories: dict[NodeId, KeyDirectory],
    adversaries: dict[NodeId, Protocol] | None = None,
    default: Any = DEFAULT_VALUE,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one extended-BA run."""
    return assemble_protocols(
        n,
        t,
        lambda node: ExtendedAgreementProtocol(
            n, t, *node_keys(keypairs, directories, node),
            value=value if node == SENDER else None, default=default,
        ),
        adversaries,
    )
