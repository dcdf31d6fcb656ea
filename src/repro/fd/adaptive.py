"""Adaptive-timeout Failure Discovery: estimate the bound, don't assume it.

The static timeout FD (:mod:`repro.fd.timeout`) hard-codes its horizon:
every node decides-or-discovers at tick ``timeout``, full stop.  That is
the right shape when the delay bound is *known* — but experiment E13's
grid ends exactly where it stops being known.  Under ``bounded:12`` a
deadline of 8 cries wolf in failure-free runs (the value is still in
flight when the horizon expires), and raising the deadline until it
covers every model means waiting the worst case on *every* run — the
static FD must either cry wolf or wait forever.

This module closes the arms race from the defence side (experiment E14):
an FD that *measures* the network it is running on and adapts its
deadlines, Chen/Jacobson style:

* every arrival carries its **lag** (``arrival tick − emission tick``,
  stamped by the kernel on the envelope); per-link estimators track a
  smoothed lag and its mean deviation exactly like a TCP RTT estimator
  (``est += ⅛·(L − est)``, ``dev += ¼·(|L − est| − dev)``), and the
  node's **delay profile** is the worst ``est + 4·dev`` over links it
  has heard — a live upper estimate of the unknown bound;
* the sender signs its value once and retransmits it every
  ``retransmit_every`` ticks **only to peers that have not acknowledged
  it** — receivers ack every value arrival, so lost acks are re-covered
  by the retransmit/re-ack loop instead of by pessimistic flooding;
* nothing concludes at a fixed tick.  A node that is *ready* (decided
  and heard every peer; the sender additionally fully acked) lingers
  one profile-width past the last value arrival and halts.  A node that
  is *stuck* waits ``patience`` ticks — a profile-derived allowance,
  re-armed by every new piece of evidence (new peer, value, ack) —
  before concluding the static way: no value → discover, never-heard
  peers → discover.  A hard cap (``max_timeout``, default
  ``16·(t + 2)``) bounds the run regardless, so weak termination (F1)
  survives adversarial lag inflation.

The measured trade (``benchmarks/test_bench_e14_adaptive.py``): on grid
cells where the static FD's horizon is wrong (``bounded:12`` and wider),
the adaptive FD is spurious-free where the static one false-positives —
and it still catches genuinely silent nodes, merely on a measured
deadline instead of a guessed one.
"""

from __future__ import annotations

from math import ceil
from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.chain import sign_leaf, verify_chain
from ..crypto.keys import KeyPair
from ..crypto.signing import SignedMessage
from ..errors import ConfigurationError
from ..sim import Envelope, NodeContext, Protocol, assemble_protocols, node_keys
from ..types import NodeId, validate_fault_budget
from .timeout import HEARTBEAT, SENDER

#: Payload kind tags (the heartbeat tag is shared with the static FD —
#: liveness evidence is liveness evidence).
ADAPTIVE_VALUE = "fd-adaptive-value"
ADAPTIVE_ACK = "fd-adaptive-ack"


def default_max_timeout(t: int) -> int:
    """The hard cap on any adaptive deadline: far past the static FD's
    ``max(8, 2·(t+2))`` horizon, so adaptivity has room to stretch, yet
    finite, so F1 cannot be lost to an adversarial delay profile."""
    return 16 * (t + 2)


class _LinkEstimator:
    """Jacobson-style lag estimator for one incoming link."""

    __slots__ = ("est", "dev")

    def __init__(self, first_lag: float) -> None:
        self.est = first_lag
        self.dev = first_lag / 2

    def sample(self, lag: float) -> None:
        error = lag - self.est
        self.est += error / 8
        self.dev += (abs(error) - self.dev) / 4

    @property
    def bound(self) -> float:
        """The link's working delay bound (``est + 4·dev``)."""
        return self.est + 4 * self.dev


class AdaptiveTimeoutFDProtocol(Protocol):
    """One node's behaviour in the adaptive-timeout FD protocol.

    :param n: network size.
    :param t: tolerated fault budget (sizes the hard cap).
    :param keypair: this node's signing keys (only the sender signs).
    :param directory: accepted test predicates, as for the chain FD.
    :param value: the initial value; only consulted on the sender.
    :param retransmit_every: sender re-broadcast period towards unacked
        peers.
    :param heartbeat_every: heartbeat period of every node.
    :param max_timeout: hard deadline cap (``None`` =
        :func:`default_max_timeout`).
    """

    def __init__(
        self,
        n: int,
        t: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: Any = None,
        retransmit_every: int = 2,
        heartbeat_every: int = 1,
        max_timeout: int | None = None,
    ) -> None:
        validate_fault_budget(t, n)
        if max_timeout is None:
            max_timeout = default_max_timeout(t)
        if max_timeout < 4:
            raise ConfigurationError(f"max_timeout must be >= 4, got {max_timeout}")
        if retransmit_every < 1 or heartbeat_every < 1:
            raise ConfigurationError(
                "retransmit_every and heartbeat_every must be >= 1, got "
                f"{retransmit_every} and {heartbeat_every}"
            )
        self._n = n
        self._t = t
        self._keypair = keypair
        self._directory = directory
        self._value = value
        self._retransmit_every = retransmit_every
        self._heartbeat_every = heartbeat_every
        self._max_timeout = max_timeout
        self._signed: SignedMessage | None = None
        self._heard: set[NodeId] = set()
        self._acked: set[NodeId] = set()
        self._links: dict[NodeId, _LinkEstimator] = {}
        self._last_progress = 0
        self._last_value_at: int | None = None
        self._ready_at: int | None = None
        self._ack_due = False

    #: Pre-cap behaviour never reads ``_max_timeout`` (estimator
    #: deadlines are driven by per-link evidence alone; the cap is only
    #: consulted as ``tick >= _max_timeout`` and in the conclusion's
    #: horizon clamp), so the cap is a valid warm-start fork axis.
    tunable = frozenset({"max_timeout"})

    def retune(self, *, max_timeout: int) -> None:
        if max_timeout < 4:
            raise ConfigurationError(
                f"max_timeout must be >= 4, got {max_timeout}"
            )
        self._max_timeout = max_timeout

    # -- adaptive deadlines ------------------------------------------------

    def _profile(self) -> float:
        """The live delay-bound estimate: worst link bound heard so far
        (1.0 — the lock-step lag — before any evidence)."""
        if not self._links:
            return 1.0
        return max(link.bound for link in self._links.values())

    def _patience(self) -> int:
        """Ticks a *stuck* node waits past its last evidence before
        concluding: two profile-widths plus two retransmission periods
        of slack, never under the static FD's floor of 8."""
        return max(8, ceil(2 * self._profile()) + 2 * self._retransmit_every + 4)

    def _linger(self) -> int:
        """Ticks a *ready* receiver keeps re-acking after the last value
        arrival, so a lost ack is re-covered before it leaves."""
        return ceil(self._profile()) + self._retransmit_every + 1

    # -- protocol ----------------------------------------------------------

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self._ingest(ctx, inbox)
        if ctx.state.halted:
            return
        tick = ctx.round
        if tick >= self._max_timeout:
            self._conclude(ctx)
            return
        if self._ready(ctx):
            if self._ready_at is None:
                self._ready_at = tick
            if ctx.node == SENDER:
                # Fully acked: every receiver provably has the value.
                ctx.halt()
                return
            anchor = max(
                self._ready_at,
                self._last_value_at if self._last_value_at is not None else 0,
            )
            if tick - anchor >= self._linger():
                ctx.halt()
                return
        elif tick - self._last_progress >= self._patience():
            self._conclude(ctx)
            return
        if tick % self._heartbeat_every == 0:
            ctx.broadcast((HEARTBEAT,))
        if self._ack_due:
            ctx.send(SENDER, (ADAPTIVE_ACK, int(ctx.node)))
            self._ack_due = False
        if ctx.node == SENDER and tick % self._retransmit_every == 0:
            if self._signed is None:
                self._signed = sign_leaf(self._keypair.secret, self._value)
                ctx.decide(self._value)
            unacked = [node for node in ctx.others() if node not in self._acked]
            if unacked:
                ctx.broadcast((ADAPTIVE_VALUE, self._signed), to=unacked)

    def _ready(self, ctx: NodeContext) -> bool:
        """Whether this node's work is provably done.

        Receivers: decided and heard every peer.  The sender: every
        receiver has acknowledged the value (acks imply having heard).
        """
        if ctx.node == SENDER:
            return ctx.state.decided and self._acked.issuperset(ctx.others())
        return ctx.state.decided and self._heard.issuperset(ctx.others())

    def _ingest(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Fold one tick's arrivals into evidence state and estimators."""
        tick = ctx.round
        for env in inbox:
            lag = tick - env.round_sent
            link = self._links.get(env.sender)
            if link is None:
                self._links[env.sender] = _LinkEstimator(float(lag))
            else:
                link.sample(float(lag))
            if env.sender not in self._heard:
                self._heard.add(env.sender)
                self._last_progress = tick
            payload = env.payload
            if (
                ctx.node == SENDER
                and isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == ADAPTIVE_ACK
            ):
                if env.sender not in self._acked:
                    self._acked.add(env.sender)
                    self._last_progress = tick
                continue
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == ADAPTIVE_VALUE
                and isinstance(payload[1], SignedMessage)
                and env.sender == SENDER
            ):
                verdict = verify_chain(
                    payload[1],
                    outer_signer=SENDER,
                    directory=self._directory,
                    expected_depth=1,
                    expected_signers=(SENDER,),
                )
                if not verdict.ok:
                    ctx.discover_failure(
                        f"sender value failed verification: {verdict.reason}"
                    )
                    ctx.halt()
                    return
                if not ctx.state.decided:
                    ctx.decide(verdict.value)
                    self._last_progress = tick
                self._last_value_at = tick
                self._ack_due = True

    def _conclude(self, ctx: NodeContext) -> None:
        """A deadline (measured or hard) expired: decide-or-discover."""
        horizon = min(ctx.round, self._max_timeout)
        if not ctx.state.decided:
            ctx.discover_failure(
                f"adaptive timeout: no valid value from sender {SENDER} "
                f"within {horizon} ticks (profile {self._profile():.1f})"
            )
        else:
            silent = [node for node in ctx.others() if node not in self._heard]
            if silent:
                ctx.discover_failure(
                    f"adaptive timeout: no traffic from nodes {silent} within "
                    f"{horizon} ticks (profile {self._profile():.1f})"
                )
        ctx.halt()


def make_adaptive_fd_protocols(
    n: int,
    t: int,
    value: Any,
    keypairs: dict[NodeId, KeyPair],
    directories: dict[NodeId, KeyDirectory],
    adversaries: dict[NodeId, Protocol] | None = None,
    retransmit_every: int = 2,
    heartbeat_every: int = 1,
    max_timeout: int | None = None,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one adaptive-FD run.

    Built by :func:`repro.sim.assemble_protocols`: honest nodes need
    key material, ``adversaries`` replaces behaviours wholesale.

    :raises ConfigurationError: if an honest node lacks keys/directory.
    """
    return assemble_protocols(
        n,
        t,
        lambda node: AdaptiveTimeoutFDProtocol(
            n, t, *node_keys(keypairs, directories, node),
            value=value if node == SENDER else None, max_timeout=max_timeout,
            retransmit_every=retransmit_every, heartbeat_every=heartbeat_every,
        ),
        adversaries,
    )
