"""The textbook EIG tree, kept as the oracle ``src/`` is compared against.

Lamport–Shostak–Pease's OM(t) over a plain dict of paths: one entry per
received path, one ``(path, value)`` item per report, resolution by the
recursion as the paper writes it.  It shares no code with
:mod:`repro.agreement.eigtree` — no path tables, no level sweep, no
majority helper — which is its whole value: the whole-run properties in
``test_eigtree.py`` check the succinct store, the run-length wire form
and ``resolve_sweep`` against something that contains none of them.  It
must not be "improved".  :func:`reference_level_wire_stats` is the same
kind of oracle for the wire-size aggregates: it enumerates the paths the
closed form in ``repro.agreement._paths`` only counts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import chain, permutations
from typing import Any

from repro.agreement.problem import DEFAULT_VALUE
from repro.crypto.encoding import byte_size, uvarint_size
from repro.sim import Envelope, NodeContext, Protocol

OM_VALUE = "om-value"
OM_REPORT = "om-report"


@lru_cache(maxsize=None)
def reference_paths(n, sender, length):
    """Every path of ``length`` distinct ids starting at ``sender``, in
    the canonical (ascending-extension) order reports list them in."""
    paths = [(sender,)]
    for _ in range(length - 1):
        paths = [p + (node,) for p in paths for node in range(n) if node not in p]
    return tuple(paths)


def reference_level_wire_stats(n, sender, length):
    """``(count, path_bytes, count_with, path_bytes_with)`` of the
    level-``length`` paths, summed path by path: the enumeration that
    :func:`repro.agreement._paths.level_wire_stats` counts in closed form.
    A path's size is its tuple header plus its ids' sizes (the canonical
    encoding is additive); paths are bucketed by size so the per-id tally
    of each bucket is one ``Counter`` pass."""
    id_size = [byte_size(node) for node in range(n)]
    own = 1 + uvarint_size(length) + id_size[sender]
    by_size = defaultdict(list)
    others = [node for node in range(n) if node != sender]
    for tail in permutations(others, length - 1):
        by_size[own + sum(map(id_size.__getitem__, tail))].append(tail)
    count_with = [0] * n
    path_bytes_with = [0] * n
    count = total = 0
    for size, tails in by_size.items():
        count += len(tails)
        total += size * len(tails)
        for node, held in Counter(chain.from_iterable(tails)).items():
            count_with[node] += held
            path_bytes_with[node] += held * size
    count_with[sender] = count
    path_bytes_with[sender] = total
    return count, total, tuple(count_with), tuple(path_bytes_with)


def reference_majority(children, default):
    """Strict majority by ``repr``, written out independently of the
    engines' shared vote."""
    tally = {}
    for value in children:
        tally[repr(value)] = tally.get(repr(value), 0) + 1
    for value in children:
        if tally[repr(value)] * 2 > len(children):
            return value
    return default


def reference_resolve(tree, n, t, sender, default, me, path=None):
    """The seed recursion over a dense dict: the oracle that shares no
    code with the level sweep."""
    path = (sender,) if path is None else path
    if len(path) == t + 1:
        return tree.get(path, default)
    children = [
        tree.get(path, default)
        if node == me
        else reference_resolve(tree, n, t, sender, default, me, path + (node,))
        for node in range(n)
        if node not in path
    ]
    return reference_majority(children, default)


def file_items(tree, n, sender, me, relayer, items, round_):
    """File a received dense item list into ``tree``, validating item by
    item: an item is a pair whose path has ``round_ - 1`` distinct ids in
    range, starts at the sender and avoids both the relayer and the
    receiver; the first value filed for a path wins.  Anything else is
    Byzantine noise and is not filed."""
    for item in items:
        if not (isinstance(item, (tuple, list)) and len(item) == 2):
            continue
        raw_path, value = item
        if not isinstance(raw_path, (tuple, list)):
            continue
        path = tuple(raw_path)
        try:
            well_formed = (
                len(path) == round_ - 1
                and path[0] == sender
                and all(node in range(n) for node in path)
                and len(set(path)) == len(path)
            )
        except TypeError:  # unhashable ids
            continue
        if well_formed and relayer not in path and me not in path:
            tree.setdefault(path + (relayer,), value)


class ReferenceOralProtocol(Protocol):
    """One node of OM(t), speaking the dense wire form only: a run-length
    report is not a tagged tuple, so it is noise here."""

    def __init__(self, n, t, value=None, default=DEFAULT_VALUE, sender=0):
        self.n, self.t, self.value, self.default, self.sender = n, t, value, default, sender
        self.tree: dict[tuple, Any] = {}

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        n, t, sender, me, round_ = self.n, self.t, self.sender, ctx.node, ctx.round
        if round_ == 0:
            if me == sender:
                ctx.broadcast((OM_VALUE, self.value))
                self.tree[(sender,)] = self.value
            return
        for env in inbox:
            payload = env.payload
            if not (isinstance(payload, tuple) and len(payload) == 2):
                continue
            if round_ == 1 and env.sender == sender and payload[0] == OM_VALUE:
                self.tree[(sender,)] = payload[1]
            elif (
                round_ >= 2
                and payload[0] == OM_REPORT
                and isinstance(payload[1], (tuple, list))
            ):
                file_items(self.tree, n, sender, me, env.sender, payload[1], round_)
        if round_ <= t:
            items = tuple(
                (path, self.tree.get(path, self.default))
                for path in reference_paths(n, sender, round_)
                if me not in path
            )
            if items:
                ctx.broadcast((OM_REPORT, items))
        if round_ >= t + 1:
            if me == sender:
                ctx.decide(self.value)
            else:
                ctx.decide(reference_resolve(self.tree, n, t, sender, self.default, me))
            ctx.halt()


def make_reference_protocols(n, t, value, adversaries=None, default=DEFAULT_VALUE):
    """The per-node protocol list of one reference OM(t) run."""
    adversaries = adversaries or {}
    return [
        adversaries.get(
            node, ReferenceOralProtocol(n, t, value if node == 0 else None, default)
        )
        for node in range(n)
    ]
