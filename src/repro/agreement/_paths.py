"""Shared, process-level EIG path tables.

The EIG tree's path sets depend only on ``(n, sender, length)`` — they are
pure combinatorics, identical for every node and every protocol instance.
The seed implementation rebuilt the (exponentially large) path list per
node per round, which dominated oral-agreement wall-clock; this module
hoists the enumeration into one memoized table shared across all
:class:`~repro.agreement.oral.OralAgreementProtocol` instances in the
process.

Only degraded runs build path tables: the dense-item ingest's membership
set, a multi-run report's encode, the resolve sweep's last-id columns
and its per-relayer avoiding indices read them.  The per-level wire
sizes every report is accounted at are counted in closed form
(:func:`level_wire_stats`, O(n) per level, also memoized), so a
failure-free run never enumerates a path.

Determinism invariant: the enumeration order is the canonical order of the
seed code (extend each path by candidate node ids in ascending order), so
every node iterates paths identically and report payloads stay
bit-for-bit reproducible.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import perm
from typing import NamedTuple

from ..types import NodeId

Path = tuple[NodeId, ...]


@lru_cache(maxsize=None)
def paths_of_length(n: int, sender: NodeId, length: int) -> tuple[Path, ...]:
    """All structurally valid EIG paths of ``length`` in canonical order.

    A valid path is a sequence of distinct node ids from ``range(n)``
    starting at ``sender``.  Memoized per ``(n, sender, length)``; the
    returned tuple is shared — callers must not mutate derived state into
    it (tuples make that structural).
    """
    if length <= 1:
        return ((sender,),)
    return tuple(
        path + (node,)
        for path in paths_of_length(n, sender, length - 1)
        for node in range(n)
        if node not in path
    )


@lru_cache(maxsize=None)
def path_set(n: int, sender: NodeId, length: int) -> frozenset[Path]:
    """The same paths as :func:`paths_of_length`, as a membership set.

    Used to validate incoming report paths in one hash lookup instead of
    re-checking the structural invariants (distinctness, range, prefix)
    item by item.  Membership is dict-key equality, which intentionally
    matches the seed semantics for Byzantine near-miss paths (for example
    ``True`` compares equal to ``1``, exactly as it did as a tree key).
    """
    return frozenset(paths_of_length(n, sender, length))


@lru_cache(maxsize=None)
def last_id_column(n: int, sender: NodeId, length: int) -> "bytes | array[int]":
    """The last id of every path in ``paths_of_length(n, sender, length)``,
    in the same canonical order, as a packed read-only sequence of ints
    (``bytes`` while ids fit one byte, else a two-byte ``array``; both
    iterate as ints and support ``index(value, start)``).

    This is all the succinct engine needs of a level: the paths ending in
    relayer ``q`` appear in the canonical order of their parents (the
    ``length - 1`` paths avoiding ``q``), which is the order of ``q``'s
    report, so one pass over this column zips every relayer's report into
    level order.  Built from the ``length - 1`` table, so the exponential
    leaf level costs one packed column and never a tuple per path.
    Memoized per ``(n, sender, length)`` and shared — callers must not
    mutate it.

    :raises OverflowError: if ``n`` exceeds the two-byte id range.
    """
    if length <= 1:
        ids = [sender]
    else:
        ids = [
            node
            for path in paths_of_length(n, sender, length - 1)
            for node in range(n)
            if node not in path
        ]
    return bytes(ids) if n <= 256 else array("H", ids)


@lru_cache(maxsize=None)
def avoiding_index(n: int, sender: NodeId, length: int, relayer: NodeId) -> "array[int]":
    """The canonical index of every path in ``paths_of_length(n, sender,
    length)`` that avoids ``relayer``, in order, followed by the level's
    path count: entry ``k`` places the ``k``-th path of ``relayer``'s
    report about that level, and the last entry is where the level ends.

    The succinct engine reads a run column through it: a run ending at
    report position ``k`` hands over to the next run at level-``length``
    parent ``avoiding_index(...)[k]``.  Packed as two-byte indices while
    they fit, else four-byte.  Memoized per ``(n, sender, length,
    relayer)`` and shared — callers must not mutate it; the sweep builds
    one only for a relayer whose column holds more than one value.
    """
    paths = paths_of_length(n, sender, length)
    indices = [index for index, path in enumerate(paths) if relayer not in path]
    indices.append(len(paths))
    return array("H" if len(paths) < 1 << 16 else "I", indices)


def path_index(n: int, path: Path) -> int:
    """Position of a valid ``path`` in ``paths_of_length(n, path[0],
    len(path))``, computed from its ids alone.

    Level ``k + 1`` is generated from level ``k`` parent-major with child
    ids ascending, so a path's index is its parent's index times the fan-out
    ``n - k`` plus the rank of its last id among the ids not in the parent.
    """
    index = 0
    for k in range(1, len(path)):
        node = path[k]
        rank = node - sum(1 for prior in path[:k] if prior < node)
        index = index * (n - k) + rank
    return index


class LevelWireStats(NamedTuple):
    """Aggregate canonical-encoding statistics for one path level.

    Lets the succinct engine account a run-length report at its *dense
    equivalent* byte size in O(#runs), without materializing the dense
    item list or the level's paths (:func:`level_wire_stats` counts them
    in closed form): the encoding is additive (tag + varint length + item
    encodings), so the byte total of "every level-``length`` path not
    containing ``q``" is ``path_bytes - path_bytes_with[q]``.

    :ivar count: number of paths at this level.
    :ivar path_bytes: sum of ``byte_size(path)`` over all of them.
    :ivar count_with: per node id, how many paths contain it.
    :ivar path_bytes_with: per node id, the byte sum of paths containing it.
    """

    count: int
    path_bytes: int
    count_with: tuple[int, ...]
    path_bytes_with: tuple[int, ...]

    def count_avoiding(self, node: NodeId) -> int:
        """How many paths at this level do not contain ``node``."""
        return self.count - self.count_with[node]

    def path_bytes_avoiding(self, node: NodeId) -> int:
        """Byte sum of the paths at this level not containing ``node``."""
        return self.path_bytes - self.path_bytes_with[node]


def _perm(m: int, k: int) -> int:
    """Ordered choices of ``k`` of ``m`` items; 0 where none exist."""
    return perm(m, k) if m >= 0 and k >= 0 else 0


@lru_cache(maxsize=None)
def level_wire_stats(n: int, sender: NodeId, length: int) -> LevelWireStats:
    """Wire-size aggregates for ``paths_of_length(n, sender, length)``,
    counted in O(n) without enumerating a path.

    A level-``L`` path is the sender followed by an ordered choice of
    ``L - 1`` distinct other ids, and the canonical encoding is additive
    (container = tag + varint length + item encodings), so a path's size
    is ``header + sum(id_size)``.  Each non-sender id then lies on ``w1 =
    (L-1)·P(n-2, L-2)`` paths and each pair of them on ``w2 =
    (L-1)(L-2)·P(n-3, L-3)``, which gives every field from ``others``,
    the non-sender ids' size total.  An absurd ``length`` costs nothing:
    its counts are zero.
    """
    from ..crypto.encoding import byte_size, uvarint_size

    id_size = [byte_size(node) for node in range(n)]
    header = 1 + uvarint_size(length)
    k = length - 1
    count = _perm(n - 1, k)
    w1 = k * _perm(n - 2, k - 1)
    w2 = k * (k - 1) * _perm(n - 3, k - 2)
    others = sum(id_size) - id_size[sender]
    own = header + id_size[sender]
    path_bytes = count * own + w1 * others
    count_with = [w1] * n
    path_bytes_with = [w1 * (own + size) + w2 * (others - size) for size in id_size]
    count_with[sender] = count
    path_bytes_with[sender] = path_bytes
    return LevelWireStats(
        count=count,
        path_bytes=path_bytes,
        count_with=tuple(count_with),
        path_bytes_with=tuple(path_bytes_with),
    )


#: Every memoized table of this module; :func:`clear_path_tables` and
#: :func:`path_table_info` walk it (``tests/agreement/test_paths.py``
#: fails on a memo that is missing here).
_TABLES = (paths_of_length, path_set, level_wire_stats, last_id_column, avoiding_index)


def clear_path_tables() -> None:
    """Drop every memoized table (tests / long-lived processes)."""
    for table in _TABLES:
        table.cache_clear()


def path_table_info() -> dict[str, int]:
    """Cache diagnostics: ``entries`` counts the memoized tables of every
    kind, ``hits``/``misses`` are the path tables' own."""
    info = paths_of_length.cache_info()
    entries = sum(table.cache_info().currsize for table in _TABLES)
    return {"entries": entries, "hits": info.hits, "misses": info.misses}
