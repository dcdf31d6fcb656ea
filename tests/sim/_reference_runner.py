"""The pre-kernel synchronous runner, kept verbatim as a reference oracle.

This is the lock-step scheduler loop exactly as it stood before the
event-kernel refactor (PR 4) — the same role the dense EIG engine plays
for the succinct one: a slow-to-evolve reference implementation the
property tests compare the production path against bit-for-bit
(``tests/sim/test_kernel.py``).  It must not be "improved"; its value is
that it is the old semantics, frozen.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import RunResult
from repro.sim.message import Envelope
from repro.sim.metrics import Metrics
from repro.sim.node import NodeContext, NodeState, Protocol
from repro.sim.rng import node_rng
from repro.sim.trace import Trace
from repro.sim.views import View
from repro.types import NodeId, validate_node_count


class ReferenceRunner:
    """The pre-kernel ``Runner``: hard-coded synchronous rounds."""

    def __init__(
        self,
        protocols: Sequence[Protocol],
        seed: int | str = 0,
        max_rounds: int = 10_000,
        record_views: bool = False,
        record_trace: bool = False,
    ) -> None:
        validate_node_count(len(protocols))
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.n = len(protocols)
        self.seed = seed
        self.round = 0
        self._protocols = list(protocols)
        self._max_rounds = max_rounds
        self._record_views = record_views
        self._trace = Trace() if record_trace else None
        self._metrics = Metrics()
        self._pending: list[Envelope] = []
        self._contexts = [
            NodeContext(self, node, node_rng(seed, node))  # type: ignore[arg-type]
            for node in range(self.n)
        ]
        self._views = [View(node=node) for node in range(self.n)]

    @property
    def tick(self) -> int:
        # The one concession to the post-kernel NodeContext, which reads
        # simulated time through ``_runner.tick``: expose the old round
        # counter under the new name (same value, same semantics).
        return self.round

    def others(self, sender: NodeId) -> list[NodeId]:
        return [node for node in range(self.n) if node != sender]

    def enqueue(self, sender: NodeId, recipients, payload) -> None:
        # The second concession: the context hands over one logical
        # send.  The oracle charges it per envelope on purpose, so the
        # equivalence tests prove the kernel's single charge equals
        # per-copy accounting.
        for recipient in recipients:
            envelope = Envelope(sender, recipient, payload, self.round)
            self._metrics.record(envelope)
            if self._trace is not None:
                self._trace.record_send(envelope)
            self._pending.append(envelope)

    def run(self) -> RunResult:
        for ctx, protocol in zip(self._contexts, self._protocols):
            protocol.setup(ctx)

        contexts = self._contexts
        protocols = self._protocols
        n = self.n
        recording = self._record_views or self._trace is not None
        halted = sum(1 for ctx in contexts if ctx.state.halted)

        rounds_executed = 0
        while halted < n:
            if rounds_executed >= self._max_rounds:
                raise SimulationError(
                    f"run exceeded max_rounds={self._max_rounds}; "
                    "a protocol failed to halt"
                )
            inboxes: list[list[Envelope]] = [[] for _ in range(n)]
            for envelope in self._pending:
                inboxes[envelope.recipient].append(envelope)
            self._pending = []

            if not recording:
                for node in range(n):
                    ctx = contexts[node]
                    state = ctx.state
                    if state.halted:
                        continue
                    protocols[node].on_round(ctx, inboxes[node])
                    if state.halted:
                        halted += 1
            else:
                for node in range(n):
                    ctx = contexts[node]
                    if self._record_views and not ctx.state.halted:
                        self._views[node].record_round(inboxes[node])
                    if ctx.state.halted:
                        continue
                    before = (ctx.state.decided, ctx.state.discovered, ctx.state.halted)
                    protocols[node].on_round(ctx, inboxes[node])
                    if self._trace is not None:
                        self._record_transitions(node, before, ctx.state)
                    if ctx.state.halted:
                        halted += 1

            self.round += 1
            rounds_executed += 1

        return RunResult(
            n=self.n,
            rounds_executed=rounds_executed,
            metrics=self._metrics,
            states=[ctx.state for ctx in self._contexts],
            views=self._views if self._record_views else [],
            seed=self.seed,
            trace=self._trace,
        )

    def _record_transitions(
        self,
        node: NodeId,
        before: tuple[bool, str | None, bool],
        state: NodeState,
    ) -> None:
        was_decided, was_discovered, was_halted = before
        if state.decided and not was_decided:
            self._trace.record_decide(self.round, node, state.decision)
        if state.discovered is not None and was_discovered is None:
            self._trace.record_discover(self.round, node, state.discovered)
        if state.halted and not was_halted:
            self._trace.record_halt(self.round, node)
