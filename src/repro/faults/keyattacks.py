"""Adversarial behaviours against the key distribution protocol.

These are the attacks the paper's section 3.2 reasons about:

* **key sharing** (:class:`SharedKeyAttack`) — "some faulty node gives its
  secret key to some other faulty node which uses this key to sign its
  messages": two faulty nodes register the *same* predicate, so signed
  messages are assigned to both.  G1/G2 untouched (only faulty subjects
  involved); strict G3 still holds (all correct nodes make the *same*
  multi-assignment).
* **cross claiming** (:class:`CrossClaimAttack`) — "cooperating faulty
  nodes may well distribute their test predicates in a mixed manner such
  that two correct nodes assign a message to different faulty nodes": the
  canonical G3 violation.
* **mixed predicates** (:class:`MixedPredicateAttack`) — "a faulty node
  distributes different test predicates to the correct nodes", creating
  "classes of nodes such that the faulty node can select the class of
  nodes which can assign the message at all".

All attack behaviours are coordinated through an :class:`AdversaryCoordination`
object — the standard single-adversary model, where all faulty nodes share
state (including secret keys) out of band.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..crypto import DEFAULT_SCHEME
from ..crypto.keys import KeyPair, get_scheme
from ..crypto.signing import sign_value
from ..auth.local import CHALLENGE, PREDICATE, RESPONSE, challenge_body
from ..sim import Envelope, NodeContext, Protocol
from ..types import NodeId


@dataclass
class AdversaryCoordination:
    """Shared adversary state: key material common to all faulty nodes.

    Keys are generated lazily on first request, from the rng of whichever
    coordinated node's ``setup`` runs first — deterministic because the
    runner initialises nodes in id order.
    """

    scheme: str = DEFAULT_SCHEME
    _keypairs: dict[str, KeyPair] = field(default_factory=dict)

    def keypair(self, label: str, rng: random.Random) -> KeyPair:
        """The shared keypair registered under ``label`` (lazily created)."""
        if label not in self._keypairs:
            self._keypairs[label] = get_scheme(self.scheme).generate_keypair(rng)
        return self._keypairs[label]

    def known_keypairs(self) -> dict[str, KeyPair]:
        """All keypairs generated so far, by label (for test assertions)."""
        return dict(self._keypairs)


class _KeyAttackBase(Protocol):
    """Common plumbing: participate in the 3-round schedule, answer
    challenges according to a per-challenger predicate choice."""

    def __init__(self, coordination: AdversaryCoordination) -> None:
        self.coordination = coordination

    # Subclasses override: which predicate does this node claim toward
    # ``peer``?  Returning None means claim nothing toward that peer.
    def _claimed_keypair(
        self, ctx: NodeContext, peer: NodeId
    ) -> KeyPair | None:
        raise NotImplementedError

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.round == 0:
            for peer in ctx.others():
                keypair = self._claimed_keypair(ctx, peer)
                if keypair is not None:
                    ctx.send(peer, (PREDICATE, keypair.predicate))
        elif ctx.round == 2:
            self._answer(ctx, inbox)
        elif ctx.round >= 3:
            ctx.halt()

    def _answer(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Answer each challenge with the key the challenger was shown.

        The adversary holds every coordinated secret, so it signs whatever
        challenge it likes — S1 is respected (it *knows* those keys), which
        is exactly why these attacks succeed at the directory level and
        must be caught later, at chain-verification time (Theorem 4).
        """
        for env in inbox:
            payload = env.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == CHALLENGE
            ):
                continue
            challenger, challenged, nonce = payload[1], payload[2], payload[3]
            keypair = self._claimed_keypair(ctx, env.sender)
            if keypair is None or challenged != ctx.node:
                continue
            signed = sign_value(
                keypair.secret, challenge_body(challenger, challenged, nonce)
            )
            ctx.send(env.sender, (RESPONSE, signed))


class SharedKeyAttack(_KeyAttackBase):
    """Two (or more) faulty nodes register one shared key.

    Every node running this behaviour with the same coordination object
    and ``label`` claims the same predicate to everyone and answers all
    challenges with the shared secret.  Result: all correct directories
    bind that predicate to *all* the sharing nodes — Definition 1 yields a
    multi-assignment, consistently across correct observers.
    """

    def __init__(
        self, coordination: AdversaryCoordination, label: str = "shared"
    ) -> None:
        super().__init__(coordination)
        self._label = label

    def _claimed_keypair(self, ctx: NodeContext, peer: NodeId) -> KeyPair:
        return self.coordination.keypair(self._label, ctx.rng)


class CrossClaimAttack(_KeyAttackBase):
    """Coordinated pair distributing two keys in a crossed pattern.

    Toward peers in ``group_one`` this node claims key ``first_label``;
    toward everyone else, key ``second_label``.  Instantiating the partner
    with the labels swapped produces the paper's G3 violation: a message
    signed under ``first_label``'s key is assigned to this node by group
    one and to the partner by group two.
    """

    def __init__(
        self,
        coordination: AdversaryCoordination,
        group_one: set[NodeId],
        first_label: str = "x",
        second_label: str = "y",
    ) -> None:
        super().__init__(coordination)
        self._group_one = set(group_one)
        self._first = first_label
        self._second = second_label

    def _claimed_keypair(self, ctx: NodeContext, peer: NodeId) -> KeyPair:
        label = self._first if peer in self._group_one else self._second
        return self.coordination.keypair(label, ctx.rng)


class MixedPredicateAttack(CrossClaimAttack):
    """Single faulty node distributing different predicates to different
    correct nodes ("classes of nodes").

    Structurally a :class:`CrossClaimAttack` without a partner: group one
    accepts key A for this node, everyone else accepts key B, and a
    message signed with A is *unassignable* outside group one.
    """
