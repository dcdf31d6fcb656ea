"""The per-envelope instance mux, kept as the oracle ``InstanceMux`` is
compared against.

Every instance send is wrapped in the mux extension and handed to
``ctx.broadcast`` (one plain envelope per recipient), every arrival is
demultiplexed from the plain inbox with ``mux_unwrap``, and each
instance's sends are mirrored into its own :class:`~repro.sim.Metrics`
at the inner payload's size, settled every round.  The published
outcomes carry that instrument's ``messages_total``, ``bytes_total`` and
``rounds_used``, so the equivalence tests also check the plane's
send-time counting against ``Metrics``.  It never touches the kernel's
batch plane — no registration, no batch records, no groups, no merge —
which is its whole value: the equivalence tests in ``test_batch.py``
check the plane against a mux that contains none of it.  It must not be
"improved".
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.sim import (
    MUX_OUTCOMES,
    Envelope,
    InstanceOutcome,
    Metrics,
    Protocol,
    instance_rng,
    mux_unwrap,
    mux_wrap,
)


class _ReferenceInstanceContext:
    """One instance's window onto the node: wrapped sends, its own rng,
    terminal effects captured in its outcome."""

    def __init__(self, ctx, mux: "ReferenceMux", instance: int) -> None:
        self._ctx = ctx
        self._mux = mux
        self._outcome = mux.outcomes[instance]
        self._metrics = mux.metrics[instance]

    def __getattr__(self, item: str) -> Any:
        return getattr(self._ctx, item)

    @property
    def node(self):
        return self._ctx.node

    @property
    def n(self):
        return self._ctx.n

    @property
    def round(self):
        return self._ctx.round

    @property
    def state(self):
        return self._ctx.state

    @property
    def rng(self):
        return self._mux.rng_for(self._ctx, self._outcome.instance)

    def others(self):
        return self._ctx.others()

    def send(self, to, payload) -> None:
        self.broadcast(payload, (to,))

    def broadcast(self, payload, to=None) -> None:
        ctx = self._ctx
        instance = self._outcome.instance
        ctx.broadcast(mux_wrap(self._mux.channel, instance, payload), to)
        count = ctx.n - 1 if to is None else len(to)
        if count:
            self._metrics.record_broadcast(ctx.node, ctx.round, payload, count)

    def decide(self, value) -> None:
        self._outcome.decided = True
        self._outcome.decision = value

    def discover_failure(self, reason: str) -> None:
        if self._outcome.discovered is None:
            self._outcome.discovered = reason

    def halt(self) -> None:
        self._outcome.halted = True


class ReferenceMux(Protocol):
    """K instances as one node behaviour, one plain envelope per copy.

    Same constructor, outcomes and published ``outputs[MUX_OUTCOMES]`` as
    :class:`repro.sim.InstanceMux`; instance streams are
    :func:`repro.sim.instance_rng` keyed by ``(seed, node, instance)``
    under the channel's purpose, built on first read.
    """

    def __init__(self, instances: Mapping[int, Protocol], channel: str = "mux") -> None:
        self.channel = channel
        self._protocols = {int(i): p for i, p in instances.items()}
        self.outcomes: dict[int, InstanceOutcome] = {}
        self.metrics: dict[int, Metrics] = {}
        self._rngs: dict[int, Any] = {}

    def rng_for(self, ctx, instance: int):
        rng = self._rngs.get(instance)
        if rng is None:
            rng = self._rngs[instance] = instance_rng(
                ctx.seed, ctx.node, instance, purpose=self.channel
            )
        return rng

    def setup(self, ctx) -> None:
        for instance in sorted(self._protocols):
            self.outcomes[instance] = InstanceOutcome(instance=instance)
            self.metrics[instance] = Metrics()
            self._protocols[instance].setup(_ReferenceInstanceContext(ctx, self, instance))

    def on_round(self, ctx, inbox: list[Envelope]) -> None:
        per_instance: dict[int, list[Envelope]] = {}
        for env in inbox:
            parsed = mux_unwrap(env.payload, self.channel)
            if parsed is not None and parsed[0] in self._protocols:
                instance, inner = parsed
                per_instance.setdefault(instance, []).append(
                    Envelope(env.sender, env.recipient, inner, env.round_sent)
                )
        for instance in sorted(self._protocols):
            outcome = self.outcomes[instance]
            if outcome.halted:
                continue
            self._protocols[instance].on_round(
                _ReferenceInstanceContext(ctx, self, instance),
                per_instance.get(instance, []),
            )
            self.metrics[instance].settle()
        if all(outcome.halted for outcome in self.outcomes.values()):
            for instance, outcome in self.outcomes.items():
                metrics = self.metrics[instance]
                outcome.messages = metrics.messages_total
                outcome.bytes = metrics.bytes_total
                outcome.rounds = metrics.rounds_used
            ctx.state.outputs[MUX_OUTCOMES] = dict(self.outcomes)
            ctx.halt()
