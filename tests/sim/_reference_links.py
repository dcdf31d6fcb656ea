"""The live-stream link recipe, kept as a reference oracle.

Before draw-ahead link streams, every directed link of a jittered or
lossy delivery model held its own live ``random.Random`` (built by
:func:`repro.sim.rng.node_rng` on first use) and drew each envelope's
latency and drop coin from it inline, once in ``arrival_tick`` and once
in ``batch_arrivals``.  This module is that recipe, frozen: the
production models in :mod:`repro.sim.network` pre-draw the same streams
in chunks, and ``tests/sim/test_network.py`` requires every arrival and
drop to equal this oracle's.  It must not be "improved"; its value is
that it is the old semantics.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.message import Envelope
from repro.sim.network import BoundedDelay, DeliveryModel, LossyDelivery
from repro.sim.rng import node_rng
from repro.types import NodeId, Round


class _LiveLinks(DeliveryModel):
    """One live stream per directed link, built lazily from the seed."""

    batch_capable = True
    _link_purpose = "delay"

    def __init__(self, delay: int) -> None:
        self.delay = delay
        self._seed: int | str = 0
        self._links: dict = {}

    def bind(self, kernel) -> None:
        self._seed = kernel.seed
        self._links = {}

    def _link_rng(self, sender: NodeId, recipient: NodeId):
        link = (sender, recipient)
        rng = self._links.get(link)
        if rng is None:
            rng = self._links[link] = node_rng(
                self._seed, sender, purpose=f"link/{recipient}/{self._link_purpose}"
            )
        return rng


class ReferenceBoundedDelay(_LiveLinks):
    """``BoundedDelay``'s live-stream recipe: one latency draw per envelope."""

    name = "bounded"

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round:
        if self.delay == 1:
            return tick + 1
        rng = self._link_rng(envelope.sender, envelope.recipient)
        return tick + 1 + rng.randrange(self.delay)

    def batch_arrivals(
        self, sender: NodeId, recipients: Sequence[NodeId], tick: Round
    ) -> "list[Round | None]":
        if self.delay == 1:
            return [tick + 1] * len(recipients)
        return [
            tick + 1 + self._link_rng(sender, recipient).randrange(self.delay)
            for recipient in recipients
        ]


class ReferenceLossyDelivery(_LiveLinks):
    """``LossyDelivery``'s live-stream recipe: latency first (when
    ``delay > 1``), then the drop coin, even for a dropped envelope."""

    name = "loss"
    _link_purpose = "loss"

    def __init__(self, p: float, delay: int = 1) -> None:
        super().__init__(delay)
        self.p = p

    def arrival_tick(self, envelope: Envelope, tick: Round) -> Round | None:
        rng = self._link_rng(envelope.sender, envelope.recipient)
        latency = 1 + (rng.randrange(self.delay) if self.delay > 1 else 0)
        if rng.random() < self.p:
            return None
        return tick + latency

    def batch_arrivals(
        self, sender: NodeId, recipients: Sequence[NodeId], tick: Round
    ) -> "list[Round | None]":
        arrivals: "list[Round | None]" = []
        for recipient in recipients:
            rng = self._link_rng(sender, recipient)
            latency = 1 + (rng.randrange(self.delay) if self.delay > 1 else 0)
            arrivals.append(None if rng.random() < self.p else tick + latency)
        return arrivals


def reference_for(model: DeliveryModel) -> _LiveLinks:
    """The live-stream twin of a production ``BoundedDelay`` /
    ``LossyDelivery`` (same parameters, unbound)."""
    if isinstance(model, LossyDelivery):
        return ReferenceLossyDelivery(model.p, model.delay)
    if isinstance(model, BoundedDelay):
        return ReferenceBoundedDelay(model.delay)
    raise TypeError(f"no live-stream reference for {type(model).__name__}")
