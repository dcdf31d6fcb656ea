"""Per-node key directories and the *assignment* relation (Definition 1).

    "Definition 1 (Assignment): A node assigns a message {m}_S to a node
    P_i, if it has accepted T_i as belonging to P_i and T_i({m}_S) = true."

A :class:`KeyDirectory` is one node's record of which test predicates it
accepted for which peers.  Under *global* authentication all correct nodes
hold identical directories mapping each node to its genuine predicate.
Under *local* authentication the directories are whatever the key
distribution protocol produced — identical for correct peers (paper
Theorem 2 / property G2) but possibly divergent, multiple or empty for
faulty peers.  The directory therefore stores a *set* of accepted
predicates per node: a faulty node can get several distinct predicates
accepted by answering several challenges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.keys import TestPredicate
from ..crypto.signing import SignedMessage
from ..types import NodeId


@dataclass
class KeyDirectory:
    """One node's accepted ``node -> test predicates`` bindings.

    :ivar owner: the node this directory belongs to (diagnostics only; the
        assignment semantics do not depend on it).
    """

    owner: NodeId
    _accepted: dict[NodeId, tuple[TestPredicate, ...]] = field(default_factory=dict)

    def accept(self, node: NodeId, predicate: TestPredicate) -> None:
        """Record that ``predicate`` was accepted as belonging to ``node``.

        Idempotent per (node, predicate) pair: re-accepting the same
        predicate is a no-op, distinct predicates accumulate.
        """
        bucket = self._accepted.get(node, ())
        if predicate not in bucket:
            self._accepted[node] = bucket + (predicate,)

    def predicates_for(self, node: NodeId) -> tuple[TestPredicate, ...]:
        """All predicates accepted as belonging to ``node`` (maybe empty)."""
        return self._accepted.get(node, ())

    def verifies(self, node: NodeId, signed: SignedMessage) -> bool:
        """Would this directory assign ``signed`` to ``node``?

        Definition 1 restricted to a given node: true iff some accepted
        predicate for ``node`` validates the signature.
        """
        return any(signed.check(p) for p in self.predicates_for(node))

    def assign(self, signed: SignedMessage) -> list[NodeId]:
        """All nodes this directory assigns ``signed`` to (Definition 1).

        For honest key material this has at most one element.  Multiple
        elements arise only from Byzantine key sharing (two faulty nodes
        registering the same key), the situation the paper's property G3
        discussion is about.
        """
        return sorted(
            node
            for node in self._accepted
            if self.verifies(node, signed)
        )

    def binding_fingerprints(self) -> dict[NodeId, tuple[bytes, ...]]:
        """``node -> sorted predicate fingerprints``, for directory diffs."""
        return {
            node: tuple(sorted(p.fingerprint() for p in bucket))
            for node, bucket in sorted(self._accepted.items())
            if bucket
        }
