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

Engines
-------
Two interchangeable engines realise the tree (``engine=`` parameter):

* ``"succinct"`` (default) — :mod:`repro.agreement.eigtree`: unanimous
  subtrees collapse to per-relayer uniform entries, reports travel
  run-length encoded, and resolution short-circuits the failure-free
  case.  This is what makes n=128 oral runs feasible.
* ``"dense"`` — the reference dict-of-paths engine (the seed semantics),
  kept as the oracle the property tests compare against.

Every observable is engine-independent: decisions, round counts, envelope
counts, payload kinds and byte counts are bit-for-bit identical (the
metrics layer accounts compressed reports at their dense-equivalent
size).  Engines are homogeneous per run — the dense ingest treats
run-length payloads as unknown Byzantine noise.

Message accounting
------------------
The simulator counts *envelopes*: one per (sender, recipient, round), with
all of a round's path reports batched inside.  The classical "message"
count of OM(t) refers to individual path reports, which grow as
``(n-1)(n-2)...(n-k)``; :func:`repro.analysis.complexity.om_reports`
gives that closed form, and the metrics' byte counters show the blow-up
empirically (the envelope payloads grow exponentially with ``t``) —
:func:`repro.analysis.complexity.om_collapsed_reports` gives the
run-length count the succinct engine actually ships in unanimous runs.

This protocol is the "may not work because of too many faulty nodes"
option for key distribution the paper mentions: to authentically agree on
n public keys without signatures one would run n instances of this — and
only if ``n > 3t`` holds at all.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError
from ..sim import Envelope, NodeContext, Protocol
from ..types import NodeId, validate_fault_budget
from . import eigtree
from ._paths import Path, path_set, paths_of_length
from .eigtree import RleReport, SuccinctEigStore
from .problem import DEFAULT_VALUE

OM_VALUE = "om-value"
OM_REPORT = "om-report"

#: The distinguished sender is node 0.
SENDER: NodeId = 0

#: Engine names (see module docstring).
SUCCINCT = "succinct"
DENSE = "dense"
DEFAULT_ENGINE = SUCCINCT


class OralAgreementProtocol(Protocol):
    """One node's behaviour in OM(t) / EIG.

    :param engine: ``"succinct"`` (default; collapsed tree, run-length
        reports) or ``"dense"`` (reference dict-of-paths engine).

    :raises ConfigurationError: if ``n <= 3t`` (the oral bound) — this is
        the impossibility the paper leans on when it says agreement-based
        key distribution "may not be feasible because of an insufficient
        number of correct nodes" — or for an unknown engine.
    """

    def __init__(
        self,
        n: int,
        t: int,
        value: Any = None,
        default: Any = DEFAULT_VALUE,
        sender: NodeId = SENDER,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        validate_fault_budget(t, n)
        if n <= 3 * t:
            raise ConfigurationError(
                f"oral agreement requires n > 3t, got n={n}, t={t}"
            )
        if engine not in (SUCCINCT, DENSE):
            raise ConfigurationError(
                f"unknown EIG engine {engine!r}; expected {SUCCINCT!r} or {DENSE!r}"
            )
        self._n = n
        self._t = t
        self._value = value
        self._default = default
        self._sender = sender
        self._engine = engine
        self._tree: dict[Path, Any] = {}
        self._store = (
            SuccinctEigStore(n, t, sender, default) if engine == SUCCINCT else None
        )

    supports_batch_inbox = True

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        round_ = ctx.round
        if round_ == 0:
            if ctx.node == self._sender:
                ctx.broadcast((OM_VALUE, self._value))
                if self._store is not None:
                    self._store.set_root(self._value)
                else:
                    self._tree[(self._sender,)] = self._value
            return

        self._ingest(ctx, inbox, round_)
        self._round_tail(ctx, round_)

    def on_round_batch(self, ctx: NodeContext, batch) -> None:
        """Columnar ingest: file one channel batch instead of an inbox.

        The succinct engine hands the whole batch to
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
        store = self._store
        if store is not None and round_ >= 2:
            rest = eigtree.ingest_rle_batch(
                store,
                batch.senders,
                batch.payloads,
                batch.targets,
                me,
                round_,
                batch.shared,
            )
            if rest is not None:
                for sender, payload in rest:
                    self._ingest_one(me, sender, payload, round_, None)
        else:
            valid_prefixes = (
                path_set(self._n, self._sender, round_ - 1)
                if round_ >= 2
                else None
            )
            senders = batch.senders
            payloads = batch.payloads
            targets = batch.targets
            for i in range(len(senders)):
                target = targets[i]
                sender = senders[i]
                if target is None:
                    if sender == me:
                        continue
                elif type(target) is int:
                    if target != me:
                        continue
                elif me not in target:
                    continue
                self._ingest_one(me, sender, payloads[i], round_, valid_prefixes)
        self._round_tail(ctx, round_)

    def _round_tail(self, ctx: NodeContext, round_: int) -> None:
        """Post-ingest phase logic shared by both inbox shapes."""
        if round_ <= self._t:
            self._report(ctx, round_)
        if round_ >= self._t + 1:
            if ctx.node == self._sender:
                # The sender knows its value; every tree path contains its
                # own id, so it does not gather and simply decides.
                ctx.decide(self._value)
            else:
                ctx.decide(self._resolve((self._sender,), ctx.node))
            ctx.halt()

    def _ingest(self, ctx: NodeContext, inbox: list[Envelope], round_: int) -> None:
        """File this round's values/reports into the EIG tree."""
        me = ctx.node
        store = self._store
        # Valid reports extend a length-(round-1) path by the relayer, with
        # all ids distinct and starting at the sender; anything else is
        # Byzantine noise and is simply not filed (missing -> default).
        # Structural validity is one membership probe in the shared path
        # set rather than per-item distinctness/range re-checks.
        valid_prefixes = (
            path_set(self._n, self._sender, round_ - 1)
            if round_ >= 2 and store is None
            else None
        )
        for env in inbox:
            self._ingest_one(me, env.sender, env.payload, round_, valid_prefixes)

    def _ingest_one(
        self,
        me: NodeId,
        sender: NodeId,
        payload: Any,
        round_: int,
        valid_prefixes,
    ) -> None:
        """File one payload from ``sender``, whatever its shape."""
        store = self._store
        if store is not None and round_ >= 2 and isinstance(payload, RleReport):
            eigtree.ingest_rle(store, payload, sender, me, round_)
        elif (
            round_ == 1
            and sender == self._sender
            and isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == OM_VALUE
        ):
            if store is not None:
                store.set_root(payload[1])
            else:
                self._tree[(self._sender,)] = payload[1]
        elif (
            round_ >= 2
            and isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == OM_REPORT
            and isinstance(payload[1], (tuple, list))
        ):
            relayer = sender
            if store is not None:
                eigtree.ingest_dense_items(store, payload[1], relayer, me, round_)
                return
            tree = self._tree
            for item in payload[1]:
                if not (isinstance(item, (tuple, list)) and len(item) == 2):
                    continue
                raw_path, value = item
                if not isinstance(raw_path, (tuple, list)):
                    continue
                path: Path = tuple(raw_path)
                try:
                    valid = path in valid_prefixes
                except TypeError:
                    # Unhashable elements can never form a valid path;
                    # Byzantine noise, not filed.
                    continue
                if valid and relayer not in path and me not in path:
                    tree.setdefault(path + (relayer,), value)

    def _report(self, ctx: NodeContext, round_: int) -> None:
        """Relay every known path of length ``round_`` not containing us."""
        me = ctx.node
        if self._store is not None:
            report = eigtree.encode_report(self._store, me, round_)
            if report is not None:
                ctx.broadcast(report)
            return
        tree = self._tree
        default = self._default
        items = [
            (path, tree.get(path, default))
            for path in paths_of_length(self._n, self._sender, round_)
            if me not in path
        ]
        if items:
            ctx.broadcast((OM_REPORT, tuple(items)))

    def _paths_of_length(self, length: int) -> list[Path]:
        """All structurally valid paths of the given length, in canonical
        order (deterministic across nodes).  Delegates to the shared
        process-level table in :mod:`repro.agreement._paths`."""
        return list(paths_of_length(self._n, self._sender, length))

    def _resolve(self, path: Path, me: NodeId) -> Any:
        """Majority over the EIG subtree rooted at ``path``.

        A node holds no stored values for paths containing itself (it never
        receives its own relays), so the subtree through ``me`` is replaced
        by the value ``me`` itself relayed about ``path`` (classical EIG's
        "own value" substitution, needed for the n > 3t margin).

        Succinct engine: delegated to
        :meth:`repro.agreement.eigtree.SuccinctEigStore.resolve` — a
        failure-free run short-circuits in O(n·t).  Dense engine (and
        succinct non-root calls): the shared level-synchronous sweep
        :func:`repro.agreement.eigtree.resolve_sweep`, reading levels
        through this engine's :meth:`_level_reader` — leaves (length
        t+1) first, then each shorter length from the values computed
        for the one below; no per-path recursion, each path's value
        computed exactly once.
        """
        if self._store is not None and path == (self._sender,) and me not in path:
            return self._store.resolve(me)
        if me in path or len(path) > self._t + 1:
            # Degenerate calls (never made by the protocol itself): the
            # substitution rule cannot apply, fall back to plain recursion.
            return self._resolve_recursive(path, me)
        return eigtree.resolve_sweep(
            self._n,
            self._t,
            self._sender,
            self._default,
            self._level_reader(),
            me,
            path,
        )

    def _level_reader(self) -> eigtree.LevelReader:
        """The engine's whole-level reader for the shared sweep."""
        if self._store is not None:
            return self._store.level_codes
        tree, default = self._tree, self._default
        n, sender = self._n, self._sender
        return lambda length, code: [
            code(tree.get(p, default)) for p in paths_of_length(n, sender, length)
        ]

    def _lookup(self):
        """The engine's (path -> stored value or default) reader."""
        if self._store is not None:
            return self._store.get
        tree, default = self._tree, self._default
        return lambda p: tree.get(p, default)

    def _resolve_recursive(self, path: Path, me: NodeId) -> Any:
        """Reference recursion (the seed semantics), used for roots that
        already contain ``me``."""
        lookup = self._lookup()
        if len(path) == self._t + 1:
            return lookup(path)
        children = []
        for node in range(self._n):
            if node in path:
                continue
            if node == me:
                children.append(lookup(path))
            else:
                children.append(self._resolve_recursive(path + (node,), me))
        return self._majority(path, children)

    def _majority(self, path: Path, children: list[Any]) -> Any:
        """Strict majority of ``children``; ties and pluralities fall to
        the default (values compared by ``repr``, which tolerates
        unhashable payloads).  The vote itself is
        :func:`repro.agreement.eigtree.majority_value` — one shared
        implementation, so the engines cannot drift."""
        if not children:
            if self._store is not None:
                return self._store.get(path)
            return self._tree.get(path, self._default)
        return eigtree.majority_value(children, self._default)


def make_oral_agreement_protocols(
    n: int,
    t: int,
    value: Any,
    adversaries: dict[NodeId, Protocol] | None = None,
    default: Any = DEFAULT_VALUE,
    engine: str = DEFAULT_ENGINE,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one OM(t) run."""
    adversaries = adversaries or {}
    return [
        adversaries.get(
            node,
            OralAgreementProtocol(
                n,
                t,
                value=value if node == SENDER else None,
                default=default,
                engine=engine,
            ),
        )
        for node in range(n)
    ]
