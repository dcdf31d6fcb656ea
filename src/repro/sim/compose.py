"""Phase composition: run a sub-protocol inside a window of a larger run.

The FD→BA extension (and several experiments) embed one protocol inside
another: chain-FD as phase one, an alarm window, a signed-messages
fallback as phase three.  :class:`PhaseHost` runs an inner protocol
against a round-shifted proxy context, capturing its decide / discover /
halt effects into a :class:`PhaseOutcome` instead of the real node state,
so the outer protocol decides what those effects mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..types import NodeId, Round
from .message import Envelope, payload_kind
from .node import NodeContext, Protocol


@dataclass(slots=True)
class PhaseOutcome:
    """Captured effects of an embedded protocol."""

    decided: bool = False
    decision: Any = None
    discovered: str | None = None
    halted: bool = False

    @property
    def discovered_failure(self) -> bool:
        return self.discovered is not None


class _PhaseProxyContext:
    """Context seen by the embedded protocol: rounds shifted to its own
    zero, terminal effects redirected into the outcome.

    Everything else (``n``, ``rng``, ``state`` for outputs, ``others``,
    ``send``, ``broadcast``, ...) passes through to the wrapped context;
    decide / discover / halt never reach the real node state through this
    lens.  :class:`repro.sim.multiplex._MuxInstanceContext` is the same
    lens at offset 0 with a per-instance ``rng`` and tagged sends.
    """

    __slots__ = ("_ctx", "_offset", "_outcome")

    def __init__(
        self, ctx: NodeContext, offset: Round, outcome: PhaseOutcome
    ) -> None:
        self._ctx = ctx
        self._offset = offset
        self._outcome = outcome

    def __getattr__(self, item: str) -> Any:
        return getattr(self._ctx, item)

    @property
    def node(self) -> NodeId:
        return self._ctx.node

    @property
    def round(self) -> Round:
        return self._ctx.round - self._offset

    def decide(self, value: Any) -> None:
        self._outcome.decided = True
        self._outcome.decision = value

    def discover_failure(self, reason: str) -> None:
        if self._outcome.discovered is None:
            self._outcome.discovered = reason

    def halt(self) -> None:
        self._outcome.halted = True


class PhaseHost:
    """Drives an embedded protocol across a round window of the real run.

    :param inner: the embedded protocol instance.
    :param offset: outer round at which the inner protocol's round 0 falls.
    :param kinds: optional payload-kind filter: when set, :meth:`step`
        hands the inner protocol only inbox envelopes whose
        :func:`~repro.sim.message.payload_kind` is in ``kinds``.  This is
        the same demultiplexing notion the instance mux
        (:mod:`repro.sim.multiplex`) applies per instance, at phase
        granularity — use it when the inner protocol's traffic is
        kind-tagged and the outer run interleaves other phases' traffic.
        Leave unset for protocols whose semantics depend on seeing *all*
        traffic (failure discovery treats unexpected messages as
        evidence).

    Call :meth:`step` every outer round within the window, passing the
    inbox messages that belong to the inner protocol; inspect
    :attr:`outcome` afterwards.
    """

    def __init__(
        self,
        inner: Protocol,
        offset: Round,
        kinds: tuple[str, ...] | None = None,
    ) -> None:
        self.inner = inner
        self.offset = offset
        self.kinds = kinds
        self.outcome = PhaseOutcome()
        self._setup_done = False

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Run one embedded round (no-op once the inner protocol halted)."""
        if self.outcome.halted:
            return
        if self.kinds is not None:
            inbox = [
                env for env in inbox if payload_kind(env.payload) in self.kinds
            ]
        proxy = _PhaseProxyContext(ctx, self.offset, self.outcome)
        if not self._setup_done:
            self.inner.setup(proxy)  # type: ignore[arg-type]
            self._setup_done = True
        self.inner.on_round(proxy, inbox)  # type: ignore[arg-type]
