"""Succinct EIG tree: collapse unanimous subtrees, compress reports.

The dict-of-paths formulation of the EIG tree (the textbook one — kept as
the test oracle ``tests/agreement/_reference_eig.py``) stores one dict
entry per received path and ships one ``(path, value)`` pair per report
item — exponential in ``t`` by construction, which caps oral runs around
n=32.  This module provides the *succinct* representation that makes
n=128 feasible, the only one :mod:`repro.agreement.oral` runs on:

* **storage** — columnar: a node's received values at level ``L`` are
  one entry per relayer — a "uniform" value (the relayer's whole report
  was a single value — the failure-free case) or the report's own *run
  column* (a multi-run report, held by reference, never expanded per
  path) — plus a sparse ``overrides`` dict for the dense items Byzantine
  nodes still speak.  A failure-free run stores
  O(n·t) values per *instance* instead of O(n^t) per node: a tick whose
  reports all went to everyone is one :class:`_SharedLevel`, held by
  reference by every receiver; a degraded run stores O(#runs).
* **wire form** — reports travel as :class:`RleReport`: run-length
  encoded values over the canonical path order, decoded transparently by
  the receiver.  A unanimous report is a single run regardless of
  the level's path count.
* **resolution** — the bottom-up majority walk short-circuits: when every
  stored value agrees with the root value (checked per level against the
  uniform entries, O(n·t) total), the decision is that value without
  touching the exponential leaf level.  Any deviation falls back to
  :func:`resolve_sweep`, the level-synchronous sweep: the store hands it
  whole levels as small-integer value codes, zipped
  from the relayers' columns in one pass over the level's last-id column
  (:func:`repro.agreement._paths.last_id_column`), so ``repr`` runs once
  per distinct value object and the votes count ints.

Observable equivalence contract
-------------------------------
Decisions, round counts, envelope counts, payload-kind tallies and *byte*
counts are bit-for-bit identical to the dict-of-paths formulation's: the
metrics layer accounts an :class:`RleReport` at
:meth:`RleReport.dense_byte_size` — the exact canonical-encoding size of
the ``(OM_REPORT, ((path, value), ...))`` payload it stands for —
computed in O(#runs) from the additive encoding and the per-level
aggregates in :func:`repro.agreement._paths.level_wire_stats`, which
counts them in closed form without enumerating the level's paths.
``tests/agreement/test_eigtree.py`` enforces the equivalence property
against the reference protocol under random Byzantine behaviour.

Values are grouped into runs by ``repr`` — the same identity the
majority vote uses.  For every wire value shape in this library
(scalars, tuples, registered frozen dataclasses) ``repr`` equality implies
canonical-encoding equality, which keeps the dense-equivalent byte
accounting exact; the property tests cross-check it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, groupby, repeat
from typing import Any, Callable, Iterable, Iterator

from ..crypto.encoding import byte_size, uvarint_size
from ..types import NodeId
from ._paths import (
    Path,
    last_id_column,
    level_wire_stats,
    path_index,
    path_set,
    paths_of_length,
)

#: Payload kind shared with the dense wire form — metrics breakdowns must
#: not distinguish the two (see ``repro.sim.message.payload_kind``).
OM_REPORT = "om-report"

#: Tag of the encodable tuple form (views, diagnostics, E9's compression
#: measurements).  Not a tag any ingest parses: run-length reports arrive
#: as :class:`RleReport` objects, never as this tuple.
OM_REPORT_RLE = "om-report-rle"


class _MISSING:
    """The nothing-filed sentinel: a class, so it survives a checkpoint as itself."""


_EMPTY: dict = {}  # a level nothing was filed on, as readers see it

# Encoded size of the constant parts of the dense payload
# ``(OM_REPORT, items)``: the 2-tuple header and the kind tag.
_DENSE_HEADER = 1 + uvarint_size(2) + byte_size(OM_REPORT)
# Per dense item ``(path, value)``: the pair's own 2-tuple header.
_DENSE_ITEM_HEADER = 1 + uvarint_size(2)


def _repr_key(value: Any) -> str:
    """The tree's value identity: how majority votes compare values."""
    return repr(value)


class _ValueCodes:
    """Small-integer codes for values, interned by :func:`_repr_key`: two
    values share a code exactly when the majority votes treat them as
    equal.  ``values[code]`` is the first value interned under the code.
    One instance lives for one level read or one sweep.  An object seen
    before is answered by identity (``repr`` runs once per distinct
    object); the identity map holds its objects, so no ``id`` is reused."""

    __slots__ = ("_by_id", "_codes", "values")

    def __init__(self) -> None:
        self._by_id: dict[int, tuple[Any, int]] = {}
        self._codes: dict[str, int] = {}
        self.values: list[Any] = []

    def code(self, value: Any) -> int:
        """The code of ``value``, allocating the next one if it is new."""
        held = self._by_id.get(id(value))
        if held is not None:
            return held[1]
        key = _repr_key(value)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.values)
            self.values.append(value)
        self._by_id[id(value)] = (value, code)
        return code


def _unanimous(values: Iterable[Any]) -> Any:
    """The first of ``values`` if every one is ``repr``-equal to it, else
    ``_MISSING`` (also for none, or a ``_MISSING`` one).  Identity decides
    first; stops at the first disagreement, consuming no further."""
    first = codes = _MISSING
    for value in values:
        if value is _MISSING:
            return _MISSING
        if first is _MISSING:
            first = value
        elif value is not first:
            if codes is _MISSING:
                codes = _ValueCodes()
                codes.code(first)
            if codes.code(value):
                return _MISSING
    return first


class RleReport:
    """A run-length encoded EIG report: the succinct wire form.

    Semantically identical to the dense payload ``(OM_REPORT, ((path,
    value) for path in paths_of_length(n, sender, level) if exclude not in
    path))`` with the values read off the runs in canonical path order.
    ``exclude`` is the reporting relayer (a node never relays paths
    containing itself).

    Instances are immutable by library discipline (wire value).  They are
    deliberately *not* plain tuples: an ingest that only speaks the dense
    wire form (the test oracle's) must treat them as unknown noise, not
    mis-parse them as dense items.

    The dense-equivalent size is computed *at construction* (the honest
    encoder has just read the level aggregates anyway) so that reading
    the byte meters later is a field access.  The aggregates are counted,
    not enumerated, so a crafted report with absurd ``(n, level)`` fields
    costs O(n) to build; its ``item_count`` then fails every receiver's
    validity check.
    """

    __slots__ = ("n", "sender", "level", "exclude", "runs", "item_count", "_dense_size")

    kind = OM_REPORT  # payload-kind hook for metrics breakdowns

    def __init__(
        self,
        n: int,
        sender: NodeId,
        level: int,
        exclude: NodeId,
        runs: tuple[tuple[int, Any], ...],
    ) -> None:
        if not (0 <= sender < n and 0 <= exclude < n):
            raise ValueError(f"ids out of range: sender={sender}, exclude={exclude}")
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        copied = []
        item_count = 0
        for count, value in runs:
            if type(count) is not int or count <= 0:
                raise ValueError("run counts must be positive ints")
            copied.append((count, value))
            item_count += count
        self.n = n
        self.sender = sender
        self.level = level
        self.exclude = exclude
        self.runs = tuple(copied)
        #: Number of dense ``(path, value)`` items this report stands for
        #: (summed once: every receiver's validity check reads it).
        self.item_count = item_count
        self._dense_size = self._compute_dense_size()

    def dense_byte_size(self) -> int:
        """Canonical-encoding size of the equivalent dense payload.

        Precomputed at construction; this is what the metrics layer
        records, so byte counters match the dense wire form exactly.
        """
        return self._dense_size

    def _compute_dense_size(self) -> int:
        """O(#runs): the encoding is additive, so the paths' byte total
        comes from the level aggregates and each run contributes
        ``count * byte_size(value)``."""
        stats = level_wire_stats(self.n, self.sender, self.level)
        count = stats.count_avoiding(self.exclude)
        total = (
            _DENSE_HEADER
            + 1  # items sequence tag
            + uvarint_size(count)
            + count * _DENSE_ITEM_HEADER
            + stats.path_bytes_avoiding(self.exclude)
        )
        for run_count, value in self.runs:
            total += run_count * byte_size(value)
        return total

    def wire_tuple(self) -> tuple:
        """An encodable tuple form (views, E9's compression probes)."""
        return (OM_REPORT_RLE, self.n, self.sender, self.level, self.exclude, self.runs)


class _SharedLevel(dict):
    """One tick's uniform reports for one (instance, level), ``relayer ->
    value``, when all of them went to everyone: built once by
    :func:`ingest_rle_batch`, held by reference as the ``uniform`` level
    of every receiver, never mutated.  It includes the holder's own relay,
    which every reader ignores.  ``agreed`` caches the unanimity walk:
    ``(first value,)`` if all entries are ``repr``-equal, else ``None``.
    """

    __slots__ = ("agreed",)

    def __init__(self, entries) -> None:
        for relayer, value in entries:
            self.setdefault(relayer, value)  # first report wins
        value = _unanimous(self.values())
        self.agreed = None if value is _MISSING else (value,)


class SuccinctEigStore:
    """Per-node succinct EIG tree: one entry per relayer + overrides.

    The invariant mirrored from the dense dict: a path ``σ + (q,)`` at
    level ``L`` holds the *first* value relayer ``q`` reported for ``σ``
    (``setdefault`` semantics), or nothing.  A relayer's run-length
    report covers every path ending in it, so the first one filed per
    ``(level, relayer)`` wins — as a ``uniform`` value (one run) or a
    run column (several) — and blocks later overrides for that relayer.
    Lookup order realises the rest: an explicit override (filed earlier,
    from a partial dense report) wins over the relayer's report, and a
    column, which is only ever filed before a uniform value, wins over
    that.

    A level exists once something is filed there.  A ``uniform`` level is
    a private dict, or a :class:`_SharedLevel` adopted whole by
    :func:`ingest_rle_batch` (which sets ``owner``): the same values plus
    the owner's own relay, which no reader counts.  Filing anything more
    on the level first makes it private.

    A run column is a report's ``runs`` tuple, shared with every other
    receiver of the report: the values of the level-``L - 1`` paths
    avoiding ``q`` in canonical order, i.e. of the level-``L`` paths
    ending in ``q`` in *their* canonical order.  It includes paths
    through the owning node; the sweep reads those positionally and never
    consumes them.

    Contract: :meth:`get` is only ever asked about structurally valid
    paths that avoid the owning node — the same paths the dense dict
    could contain — so it never reads the owner's entry of a shared level.
    """

    __slots__ = (
        "n",
        "t",
        "sender",
        "default",
        "root",
        "uniform",
        "columns",
        "overrides",
        "owner",
    )

    def __init__(self, n: int, t: int, sender: NodeId, default: Any) -> None:
        self.n = n
        self.t = t
        self.sender = sender
        self.default = default
        self.root: Any = _MISSING
        # level -> {relayer: value} / {relayer: runs} / {path: value},
        # levels 2 .. t+1, each created when first filed on.
        self.uniform: dict[int, dict[NodeId, Any]] = {}
        self.columns: dict[int, dict[NodeId, tuple[tuple[int, Any], ...]]] = {}
        self.overrides: dict[int, dict[Path, Any]] = {}
        #: The holding node, learnt when it first adopts a shared level.
        self.owner: NodeId | None = None

    # -- filing ---------------------------------------------------------

    def set_root(self, value: Any) -> None:
        """File the round-1 sender value (assignment semantics: last
        write in the round wins, as in a dict of paths)."""
        self.root = value

    def _private(self, level: int) -> dict[NodeId, Any]:
        """The level's ``uniform`` dict, created if absent, safe to write and
        to probe: a shared level first becomes a copy without the owner's own relay."""
        held = self.uniform.setdefault(level, {})
        if type(held) is _SharedLevel:
            held = self.uniform[level] = dict(held)
            held.pop(self.owner, None)
        return held

    def file_uniform(self, level: int, relayer: NodeId, value: Any) -> None:
        """File "relayer ``q`` reported ``value`` for every valid path" —
        first uniform report per (level, relayer) wins.  (Filed after a
        column it is kept but never read: the column wins.)"""
        self._private(level).setdefault(relayer, value)

    def file_column(
        self, level: int, relayer: NodeId, runs: tuple[tuple[int, Any], ...]
    ) -> None:
        """File relayer ``q``'s multi-run report as one run column — first
        report per (level, relayer) wins.  ``runs`` must cover exactly the
        level-``level`` paths ending in ``relayer`` (the ingest's
        :func:`_classify_rle` checks it)."""
        if relayer not in self._private(level):
            self.columns.setdefault(level, {}).setdefault(relayer, runs)

    def file_override(self, level: int, path: Path, value: Any) -> None:
        """File one path value with the dense ``setdefault`` semantics."""
        relayer = path[-1]
        if relayer in self._private(level) or relayer in self.columns.get(level, _EMPTY):
            return  # every path ending in this relayer is already set
        self.overrides.setdefault(level, {}).setdefault(path, value)

    # -- lookup ----------------------------------------------------------

    def get(self, path: Path) -> Any:
        """The stored value for ``path``, or the protocol default.

        A point lookup into a run column reads the whole level: the
        protocol itself only reads levels (:meth:`level_codes`); this is
        the diagnostics / test path.
        """
        if len(path) == 1:
            return self.default if self.root is _MISSING else self.root
        level = len(path)
        value = self.overrides.get(level, _EMPTY).get(path, _MISSING)
        if value is not _MISSING:
            return value
        if path[-1] in self.columns.get(level, _EMPTY):
            codes = _ValueCodes()
            return codes.values[
                self.level_codes(level, codes.code)[path_index(self.n, path)]
            ]
        value = self.uniform.get(level, _EMPTY).get(path[-1], _MISSING)
        return self.default if value is _MISSING else value

    def level_codes(self, level: int, code: Callable[[Any], int]) -> list[int]:
        """The stored value (or the default) of every level-``level``
        path in canonical order, each as ``code(value)`` (a
        :meth:`_ValueCodes.code`) — applied once per run, uniform entry
        and override instead of once per path.

        One pass over the level's last-id column pulls each path's value
        from its relayer's reader — an endless repeat for a uniform or
        missing report, the expanded runs for a column.  Paths through
        the owning node read whatever their relayer reported (or the
        default): callers never consume them.

        :raises ValueError: if a filed column is shorter than its level.
        """
        if level == 1:
            return [code(self.default if self.root is _MISSING else self.root)]
        readers: list[Iterator[int]] = [repeat(code(self.default))] * self.n
        for relayer, value in self.uniform.get(level, _EMPTY).items():
            readers[relayer] = repeat(code(value))
        for relayer, runs in self.columns.get(level, _EMPTY).items():
            # ``code`` once per distinct object (a sender's runs share one
            # object per value); the per-run work stays in C.
            counts, values = zip(*runs)
            by_id = {
                key: code(value)
                for key, value in dict(zip(map(id, values), values)).items()
            }
            readers[relayer] = chain.from_iterable(
                map(repeat, map(by_id.__getitem__, map(id, values)), counts)
            )
        last_ids = last_id_column(self.n, self.sender, level)
        codes = list(map(next, map(readers.__getitem__, last_ids)))
        if len(codes) != len(last_ids):
            # An exhausted reader ends the map silently.
            raise ValueError(f"level-{level} run column shorter than the level")
        for path, value in self.overrides.get(level, _EMPTY).items():
            codes[path_index(self.n, path)] = code(value)
        return codes

    def stored_entries(self) -> int:
        """Number of explicit entries held (diagnostics / memory tests);
        a run column counts one per run, the owner's own relay in a
        shared level counts nothing."""
        return (
            (0 if self.root is _MISSING else 1)
            + sum(len(d) for d in self.uniform.values())
            - sum(type(d) is _SharedLevel and self.owner in d for d in self.uniform.values())
            + sum(len(runs) for d in self.columns.values() for runs in d.values())
            + sum(len(d) for d in self.overrides.values())
        )

    # -- level summaries ---------------------------------------------------

    def _level_uniform_value(self, level: int, me: NodeId) -> Any:
        """The single value every queried level-``level`` path holds, or
        ``_MISSING`` if the level is not unanimous / not fully covered.

        Queried paths avoid ``me`` and end in any relayer outside
        ``{sender, me}``, so full coverage means a uniform entry for every
        such relayer — exactly the failure-free report pattern.
        """
        if level == 1:
            return self.get((self.sender,))
        if self.overrides.get(level) or self.columns.get(level):
            return _MISSING
        uniform = self.uniform.get(level, _EMPTY)
        if type(uniform) is _SharedLevel:
            # It also holds ``me``'s own relay (never the sender's): all
            # entries agreeing implies the n-2 queried ones do.  Agreed only
            # without ``me``'s entry, or asked for another node: the walk.
            if uniform.agreed and me == self.owner and len(uniform) - (me in uniform) == self.n - 2:
                return uniform.agreed[0]
            uniform = self._private(level)
        # Protocol-filed uniform keys can only be valid relayers — never
        # the sender (rejected at ingest) and never this node (it cannot
        # receive its own relay) — so full coverage of the n-2 queried
        # relayers reduces to a length check plus two membership probes
        # (guarding hand-filed stores), and unanimity to a sweep over
        # the stored values instead of n keyed lookups.
        if len(uniform) != self.n - 2 or me in uniform or self.sender in uniform:
            return _MISSING
        return _unanimous(uniform.values())

    # -- resolution --------------------------------------------------------

    def resolve(self, me: NodeId) -> Any:
        """The node's decision: majority over the tree rooted at
        ``(sender,)`` with the classical own-value substitution.

        Fast path: if every level (2 .. t+1) is unanimously the root
        value, the whole tree collapses and the decision is that value —
        O(n·t), never touching the leaf level.  Any deviation falls back
        to :func:`resolve_sweep` reading levels through
        :meth:`level_codes` (exponential in t, like the textbook
        recursion, but a few C-level passes per level rather than
        per-path Python work).
        """
        root = self.get((self.sender,))
        levels = (self._level_uniform_value(level, me) for level in range(2, self.t + 2))
        if _unanimous(chain((root,), levels)) is _MISSING:
            return resolve_sweep(self, me, (self.sender,))
        return root


def resolve_sweep(store: SuccinctEigStore, me: NodeId, path: Path) -> Any:
    """Level-synchronous bottom-up majority over ``store``'s EIG tree,
    from the leaves up to ``path``.

    Levels are read whole through :meth:`SuccinctEigStore.level_codes`, so
    the sweep itself only ever sees integer codes.  Level L+1 is generated
    from level L parent-major with child ids ascending, so the children
    of parent index ``i`` occupy the slice ``[i*(n-L), (i+1)*(n-L))`` —
    values align by index, no per-path dict or membership tests needed.
    At each parent not containing ``me``, ``me``'s child slot is
    substituted with the parent's own stored value — classical EIG's "own
    value" substitution, needed for the n > 3t margin.  Those slots are
    exactly the positions of ``me`` in the child level's last-id column
    (a parent containing ``me`` has no such child), and position ``j``
    belongs to parent ``j // (n-L)``.  Values for paths through ``me``
    are computed but never consumed, because their parents substitute
    first.

    Requires ``me not in path`` and ``len(path) <= t + 1``.
    """
    n, sender = store.n, store.sender
    depth = store.t + 1
    codes = _ValueCodes()
    default_code = codes.code(store.default)
    read_level = store.level_codes
    values = read_level(depth, codes.code)
    for length in range(depth - 1, len(path) - 1, -1):
        own = read_level(length, codes.code)
        width = n - length
        child_ids = last_id_column(n, sender, length + 1)
        at = -1
        try:
            while True:
                at = child_ids.index(me, at + 1)
                values[at] = own[at // width]
        except ValueError:
            pass  # no further child slot of ``me``
        values = [
            _strict_majority(values[i : i + width], default_code)
            for i in range(0, len(values), width)
        ]
    return codes.values[values[path_index(n, path)]]


def _strict_majority(keys: list, fallback: Any) -> Any:
    """The key more than half of ``keys`` hold, else ``fallback``."""
    first = keys[0]
    total = len(keys)
    if keys.count(first) * 2 > total:
        return first
    best, best_count = Counter(keys).most_common(1)[0]
    return best if best_count * 2 > total else fallback


# -- wire form: encode -----------------------------------------------------


def encode_report(store: SuccinctEigStore, me: NodeId, level: int) -> RleReport | None:
    """Build the run-length report ``me`` broadcasts about level ``level``.

    Returns ``None`` when there is nothing to report (every path contains
    ``me`` — i.e. ``me`` is the sender), matching the dense formulation's
    skipped broadcast.  A fully uniform level emits a single run without
    enumerating paths; otherwise the level is read once
    (:meth:`SuccinctEigStore.level_codes`) and equal neighbours in the
    canonical filtered order are grouped into runs (levels are <= t,
    polynomially sized).
    """
    n, sender = store.n, store.sender
    stats = level_wire_stats(n, sender, level)
    count = stats.count_avoiding(me)
    if count == 0:
        return None
    value = store._level_uniform_value(level, me)
    if value is not _MISSING:
        return RleReport(n, sender, level, me, ((count, value),))
    codes = _ValueCodes()
    kept = [
        held
        for path, held in zip(
            paths_of_length(n, sender, level), store.level_codes(level, codes.code)
        )
        if me not in path
    ]
    runs = tuple(
        (sum(1 for _ in run), codes.values[held]) for held, run in groupby(kept)
    )
    return RleReport(n, sender, level, me, runs)


# -- wire form: decode / ingest ---------------------------------------------


#: Receiver-independent report verdicts (see :func:`_classify_rle`);
#: ``_RLE_OTHER`` marks batch entries left to the caller's per-payload filing.
_RLE_INVALID, _RLE_UNIFORM, _RLE_MULTI, _RLE_OTHER = 0, 1, 2, 3


def _classify_rle(
    report: RleReport,
    relayer: NodeId,
    n: int,
    sender: NodeId,
    level: int,
    count_avoiding,
) -> int:
    """Validity verdict for one run-length report — a pure function of
    the report and its relayer, independent of the receiving node, which
    is what lets the columnar ingest compute it once per report and
    share it across every consumer (``ChannelBatch.shared``).

    Validity: the report must describe ``level``, its run counts must
    cover exactly the paths of that level avoiding ``relayer``, and the
    shape fields must match the run's ``(n, sender)``.  The caller has
    already checked the level range.
    """
    if (
        report.level != level
        or report.n != n
        or report.sender != sender
        or report.exclude != relayer
        # Every valid path contains the sender, so a sender relay has
        # nothing to file.
        or relayer == sender
        or report.item_count != count_avoiding(relayer)
    ):
        return _RLE_INVALID
    if len(report.runs) == 1:
        return _RLE_UNIFORM
    return _RLE_MULTI


def ingest_rle(
    store: SuccinctEigStore, report: Any, relayer: NodeId, me: NodeId, round_: int
) -> None:
    """File one received run-length report; malformed reports are
    Byzantine noise and are dropped whole (missing -> default), mirroring
    the dense wire form's per-item validation.

    Validity: the report must describe level ``round_ - 1`` (a report
    relayed in round ``round_ - 1`` and received now) — see
    :func:`_classify_rle` for the full check.  Filing is
    receiver-independent (``me`` only matters to the dense-item ingest):
    a report is kept whole, by reference.
    """
    if not isinstance(report, RleReport):
        return
    n, sender = store.n, store.sender
    level = round_ - 1
    if not 1 <= level <= store.t:
        return
    count_avoiding = level_wire_stats(n, sender, level).count_avoiding
    verdict = _classify_rle(report, relayer, n, sender, level, count_avoiding)
    if verdict == _RLE_UNIFORM:
        # Unanimous report: one uniform entry covers the whole level.
        store.file_uniform(level + 1, relayer, report.runs[0][1])
    elif verdict == _RLE_MULTI:
        store.file_column(level + 1, relayer, report.runs)


def ingest_rle_batch(
    store: SuccinctEigStore,
    senders: list[NodeId],
    payloads: list[Any],
    targets: list[Any],
    me: NodeId,
    round_: int,
    shared: dict,
) -> "list[tuple[NodeId, Any]] | None":
    """Columnar ingest: file every run-length report in one channel batch
    that addresses ``me``, returning the addressed leftovers (or ``None``)
    for the caller's per-payload filing: the non-RLE payloads, and any
    report that follows a non-RLE payload of its own relayer.

    The batch arrays are one tick's :class:`~repro.sim.batch.ChannelBatch`
    columns (``targets[i]`` encoding the recipient mask: ``None`` = all
    but the sender, else an int with bit ``r`` set for each recipient
    ``r``, so ``me`` is addressed when ``targets[i] >> me & 1``).  The
    first consumer computes what is receiver-independent and memoises it
    in ``shared`` for the other ~n-1:

    * the :func:`_classify_rle` verdicts and uniform values, so a report
      is validated once per *tick*, not once per (report, consumer) pair;
    * when every entry went to everyone and is a uniform (or invalid)
      report — the failure-free synchronous tick — the filed result
      itself, one :class:`_SharedLevel`: a receiver whose level is still
      empty adopts it by reference instead of walking the entries.

    Filing semantics are exactly per-entry :func:`ingest_rle`, in array
    (= sender-ascending emission) order.
    """
    n, sender = store.n, store.sender
    level = round_ - 1
    in_range = 1 <= level <= store.t
    # Keyed by level so composition layers stepping the same batch from
    # different phase offsets could never share a stale verdict.
    pre = shared.get(("rle", level))
    if pre is None:
        kinds: list[int] = []
        values: list[Any] = []
        if in_range:
            count_avoiding = level_wire_stats(n, sender, level).count_avoiding
            # First-wins is per relayer in array order: a report behind a
            # leftover of its own relayer is left to the caller with it.
            behind: set[NodeId] = set()
            for entry_sender, payload in zip(senders, payloads):
                if isinstance(payload, RleReport) and entry_sender not in behind:
                    verdict = _classify_rle(
                        payload, entry_sender, n, sender, level, count_avoiding
                    )
                    kinds.append(verdict)
                    values.append(
                        payload.runs[0][1] if verdict == _RLE_UNIFORM else None
                    )
                else:
                    behind.add(entry_sender)
                    kinds.append(_RLE_OTHER)
                    values.append(None)
        else:
            # Out-of-range rounds drop RLE reports whole.
            for payload in payloads:
                kinds.append(
                    _RLE_INVALID if isinstance(payload, RleReport) else _RLE_OTHER
                )
                values.append(None)
        column = None
        if (
            in_range
            and {*kinds} <= {_RLE_INVALID, _RLE_UNIFORM}
            and targets.count(None) == len(targets)
        ):
            column = _SharedLevel(
                (q, v) for q, k, v in zip(senders, kinds, values) if k == _RLE_UNIFORM
            )
        shared[("rle", level)] = (kinds, values, column)
    else:
        kinds, values, column = pre
    if column is not None and not store.uniform.get(level + 1):
        store.uniform[level + 1] = column
        store.owner = me
        return None
    uniform_setdefault = store._private(level + 1).setdefault if in_range else None
    rest: list[tuple[NodeId, Any]] | None = None
    for i in range(len(senders)):
        target = targets[i]
        entry_sender = senders[i]
        if target is None:
            if entry_sender == me:
                continue
        elif not target >> me & 1:
            continue
        kind = kinds[i]
        if kind == _RLE_UNIFORM:
            uniform_setdefault(entry_sender, values[i])
        elif kind == _RLE_OTHER:
            if rest is None:
                rest = []
            rest.append((entry_sender, payloads[i]))
        elif kind == _RLE_MULTI:
            store.file_column(level + 1, entry_sender, payloads[i].runs)
    return rest


def ingest_dense_items(
    store: SuccinctEigStore, items: Any, relayer: NodeId, me: NodeId, round_: int
) -> None:
    """File a dense ``(path, value)`` item list (the textbook wire form —
    Byzantine nodes still speak it), with the per-item validation and
    ``setdefault`` semantics of a dict of paths."""
    n, sender = store.n, store.sender
    valid_prefixes = path_set(n, sender, round_ - 1)
    file_override = store.file_override
    for item in items:
        if not (isinstance(item, (tuple, list)) and len(item) == 2):
            continue
        raw_path, value = item
        if not isinstance(raw_path, (tuple, list)):
            continue
        path: Path = tuple(raw_path)
        try:
            valid = path in valid_prefixes
        except TypeError:
            continue  # unhashable elements: noise, not filed
        if valid and relayer not in path and me not in path:
            file_override(round_, path + (relayer,), value)
