"""OM(t): non-authenticated Byzantine Agreement via an EIG tree.

The paper's complexity comparison rests on the classical gap between
authenticated and oral-message agreement.  This module provides the oral
side: the Exponential Information Gathering formulation of Lamport,
Shostak and Pease's OM(t), which requires **n > 3t** and t+1 rounds.

Protocol
--------
Nodes maintain a tree of *paths* — sequences of distinct node ids starting
with the sender.  ``tree[(0,)]`` is the value received from the sender in
round 1; in each later round every node reports, to everyone, the values
it holds for all paths that do not contain itself, and a receiver files a
report relayed by ``q`` about path ``σ`` under ``σ + (q,)``.  After
``t + 1`` rounds each node resolves the tree bottom-up by recursive
majority (missing values become the default) and decides ``resolve((0,))``.

The tree
--------
One realisation: :mod:`repro.agreement.eigtree`'s succinct store, in which
unanimous subtrees collapse to per-relayer uniform entries, reports
travel run-length encoded (accounted by the metrics layer at the size of
the dense ``(OM_REPORT, ((path, value), ...))`` payload they stand for)
and resolution short-circuits the failure-free case — what makes n=128
oral runs feasible.  The dense item list stays an accepted *wire form*
(Byzantine nodes speak it).  The textbook dict-of-paths formulation lives
in ``tests/agreement/_reference_eig.py`` as the oracle the property tests
run this module against.

Message accounting
------------------
The simulator counts *envelopes*: one per (sender, recipient, round), with
all of a round's path reports batched inside.  The classical "message"
count of OM(t) refers to individual path reports, which grow as
``(n-1)(n-2)...(n-k)``; :func:`repro.analysis.complexity.om_reports`
gives that closed form, and the metrics' byte counters show the blow-up
empirically (the envelope payloads grow exponentially with ``t``) —
:func:`repro.analysis.complexity.om_collapsed_reports` gives the
run-length count actually shipped in unanimous runs.

This protocol is the "may not work because of too many faulty nodes"
option for key distribution the paper mentions: to authentically agree on
n public keys without signatures one would run n instances of this — and
only if ``n > 3t`` holds at all.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError
from ..sim import Envelope, NodeContext, Protocol, assemble_protocols
from ..types import NodeId, validate_fault_budget
from . import eigtree
from .eigtree import RleReport, SuccinctEigStore
from .problem import DEFAULT_VALUE

OM_VALUE = "om-value"
OM_REPORT = "om-report"

#: The distinguished sender is node 0.
SENDER: NodeId = 0


class OralAgreementProtocol(Protocol):
    """One node's behaviour in OM(t) / EIG.

    :raises ConfigurationError: if ``n <= 3t`` (the oral bound) — this is
        the impossibility the paper leans on when it says agreement-based
        key distribution "may not be feasible because of an insufficient
        number of correct nodes".
    """

    def __init__(
        self,
        n: int,
        t: int,
        value: Any = None,
        default: Any = DEFAULT_VALUE,
        sender: NodeId = SENDER,
    ) -> None:
        validate_fault_budget(t, n)
        if n <= 3 * t:
            raise ConfigurationError(
                f"oral agreement requires n > 3t, got n={n}, t={t}"
            )
        self._t = t
        self._value = value
        self._sender = sender
        self._store = SuccinctEigStore(n, t, sender, default)

    supports_batch_inbox = True

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        round_ = ctx.round
        if round_ == 0:
            if ctx.node == self._sender:
                ctx.broadcast((OM_VALUE, self._value))
                self._store.set_root(self._value)
            return

        me = ctx.node
        for env in inbox:
            self._ingest_one(me, env.sender, env.payload, round_)
        self._round_tail(ctx, round_)

    def on_round_batch(self, ctx: NodeContext, batch) -> None:
        """Columnar ingest: file one channel batch instead of an inbox.

        From round 2 on the whole batch goes to
        :func:`repro.agreement.eigtree.ingest_rle_batch`, which hoists
        the per-report validation out of the per-receiver loop and memos
        receiver-independent verdicts in ``batch.shared`` — the win that
        pays for the whole columnar layer at n=128.  Everything else
        (round-1 values, dense reports, Byzantine noise) flows through
        the same per-payload filing as :meth:`on_round`.
        """
        round_ = ctx.round
        if round_ == 0:
            self.on_round(ctx, [])
            return
        me = ctx.node
        senders, payloads, targets = batch.senders, batch.payloads, batch.targets
        if round_ >= 2:
            rest = eigtree.ingest_rle_batch(
                self._store, senders, payloads, targets, me, round_, batch.shared
            )
            if rest is not None:
                for sender, payload in rest:
                    self._ingest_one(me, sender, payload, round_)
        else:
            for i in range(len(senders)):
                target = targets[i]
                if target is None:
                    if senders[i] == me:
                        continue
                elif not target >> me & 1:
                    continue
                self._ingest_one(me, senders[i], payloads[i], round_)
        self._round_tail(ctx, round_)

    def _round_tail(self, ctx: NodeContext, round_: int) -> None:
        """Post-ingest phase logic shared by both inbox shapes."""
        if round_ <= self._t:
            # Relay every known path of length ``round_`` not containing us.
            report = eigtree.encode_report(self._store, ctx.node, round_)
            if report is not None:
                ctx.broadcast(report)
        if round_ >= self._t + 1:
            if ctx.node == self._sender:
                # The sender knows its value; every tree path contains its
                # own id, so it does not gather and simply decides.
                ctx.decide(self._value)
            else:
                ctx.decide(self._store.resolve(ctx.node))
            ctx.halt()

    def _ingest_one(
        self, me: NodeId, sender: NodeId, payload: Any, round_: int
    ) -> None:
        """File one payload from ``sender``, whatever its shape.

        Valid reports extend a length-``round_ - 1`` path by the relayer,
        with all ids distinct and starting at the sender; anything else
        is Byzantine noise and is simply not filed (missing -> default).
        """
        store = self._store
        if round_ >= 2 and isinstance(payload, RleReport):
            eigtree.ingest_rle(store, payload, sender, me, round_)
        elif (
            round_ == 1
            and sender == self._sender
            and isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == OM_VALUE
        ):
            store.set_root(payload[1])
        elif (
            round_ >= 2
            and isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == OM_REPORT
            and isinstance(payload[1], (tuple, list))
        ):
            eigtree.ingest_dense_items(store, payload[1], sender, me, round_)


def make_oral_agreement_protocols(
    n: int,
    t: int,
    value: Any,
    adversaries: dict[NodeId, Protocol] | None = None,
    default: Any = DEFAULT_VALUE,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one OM(t) run."""
    return assemble_protocols(
        n,
        t,
        lambda node: OralAgreementProtocol(
            n, t, value=value if node == SENDER else None, default=default
        ),
        adversaries,
    )
