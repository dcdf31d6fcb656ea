"""Named chain signatures and their verification discipline.

Chain signatures are the mechanism behind authenticated agreement
protocols: a message signed by a sequence of nodes, each signing the signed
message of its predecessor.  The paper (its section 4) adds one requirement
that makes them safe under *local* authentication:

    "a message which has been signed before is always signed together with
    the name of the node it is assigned to"

so a chain has the shape::

    {P_{k-1}, { ... {P_0, {m}_{S_0}}_{S_1} ... }}_{S_k}

Reading outside-in: the outermost signature is assigned to the *immediate
sender* (known by network property N2); its body names the node the inner
message is assigned to; and so on down to the innermost ``{m}_{S_0}``.

Paper Theorem 4 shows that with this discipline, after the key distribution
protocol **all correct nodes assign every submessage to the same node, or
at least one of them discovers a failure** — which is exactly the property
that lets globally-authenticated Failure Discovery protocols run unchanged
under local authentication.  :func:`verify_chain` implements the checking
side of that theorem; its verdict distinguishes *why* a chain was rejected
so protocols can report precise discovery reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ChainStructureError
from ..types import NodeId
from .keys import SecretKey
from .signing import SignedMessage, sign_value

if TYPE_CHECKING:  # circular at runtime: auth imports crypto
    from ..auth.directory import KeyDirectory

# Body tags providing domain separation between leaf and link layers.
LEAF_TAG = "chain-leaf"
LINK_TAG = "chain-link"


def sign_leaf(secret: SecretKey, value: Any) -> SignedMessage:
    """Create the innermost ``{m}_{S_0}`` of a chain."""
    return sign_value(secret, (LEAF_TAG, value))


def extend_chain(
    secret: SecretKey, inner_assigned: NodeId, inner: SignedMessage
) -> SignedMessage:
    """Sign ``inner`` together with the name of the node it is assigned to.

    This is the paper's "signed together with the name of the node it is
    assigned to": the new layer is ``{P_inner, inner}_S``.

    :param secret: the extending node's secret key.
    :param inner_assigned: the node the extender assigned ``inner`` to
        (for the first extension, the leaf signer; afterwards, the previous
        extender).
    :param inner: the already chain-signed message.
    """
    return sign_value(secret, (LINK_TAG, int(inner_assigned), inner))


def is_leaf(signed: SignedMessage) -> bool:
    """True if ``signed`` is a structurally valid chain leaf."""
    body = signed.body
    return (
        isinstance(body, tuple)
        and len(body) == 2
        and body[0] == LEAF_TAG
    )


def is_link(signed: SignedMessage) -> bool:
    """True if ``signed`` is a structurally valid chain link."""
    body = signed.body
    return (
        isinstance(body, tuple)
        and len(body) == 3
        and body[0] == LINK_TAG
        and isinstance(body[1], int)
        and isinstance(body[2], SignedMessage)
    )


def leaf_value(signed: SignedMessage) -> Any:
    """The payload ``m`` of a chain leaf.

    :raises ChainStructureError: if ``signed`` is not a leaf.
    """
    if not is_leaf(signed):
        raise ChainStructureError("not a chain leaf")
    return signed.body[1]


def link_parts(signed: SignedMessage) -> tuple[NodeId, SignedMessage]:
    """The ``(named inner signer, inner message)`` of a chain link.

    :raises ChainStructureError: if ``signed`` is not a link.
    """
    if not is_link(signed):
        raise ChainStructureError("not a chain link")
    return signed.body[1], signed.body[2]


_LAYERS_CACHE_ATTR = "_repro_chain_layers"


def submessages(signed: SignedMessage) -> list[SignedMessage]:
    """All layers of a chain, outermost first, innermost (leaf) last.

    These are the paper's "submessages": for
    ``{P_1, {P_0, {m}_{S_0}}_{S_1}}_{S_2}`` it returns the whole message,
    then ``{P_0, {m}_{S_0}}_{S_1}``, then ``{m}_{S_0}``.

    The decomposition is structural and the message immutable, so the
    layer tuple is memoized per instance — chains get re-verified at every
    relay hop, and only the first check walks the nesting.

    :raises ChainStructureError: on malformed nesting.
    """
    cached = getattr(signed, _LAYERS_CACHE_ATTR, None)
    if cached is not None:
        return list(cached)
    layers = [signed]
    current = signed
    while is_link(current):
        _, current = link_parts(current)
        layers.append(current)
        if len(layers) > 1_000_000:
            raise ChainStructureError("chain nesting too deep")
    if not is_leaf(current):
        raise ChainStructureError("chain does not terminate in a leaf")
    object.__setattr__(signed, _LAYERS_CACHE_ATTR, tuple(layers))
    return layers


def chain_depth(signed: SignedMessage) -> int:
    """Number of signatures on the chain (leaf counts as one)."""
    return len(submessages(signed))


@dataclass(frozen=True)
class ChainVerdict:
    """Outcome of verifying a chain against a node's key directory.

    :ivar ok: True iff every layer verified and the naming discipline held.
    :ivar value: the leaf payload ``m`` when ``ok`` (or when the structure
        was readable even if a signature failed), else ``None``.
    :ivar assignments: ``(node, submessage)`` pairs, outermost first — the
        assignments (paper Definition 1) this verifier made.  Meaningful
        only when ``ok``.
    :ivar reason: human-readable rejection reason when not ``ok``.
    """

    ok: bool
    value: Any
    assignments: tuple[tuple[NodeId, SignedMessage], ...]
    reason: str | None = None

    def signers(self) -> tuple[NodeId, ...]:
        """Assigned signer ids, outermost first."""
        return tuple(node for node, _ in self.assignments)


def _reject(reason: str, value: Any = None) -> ChainVerdict:
    return ChainVerdict(ok=False, value=value, assignments=(), reason=reason)


def verify_chain(
    signed: SignedMessage,
    outer_signer: NodeId,
    directory: "KeyDirectory",
    expected_depth: int | None = None,
    expected_signers: tuple[NodeId, ...] | None = None,
) -> ChainVerdict:
    """Check "the signatures of the message and the submessages" (Fig. 2).

    Walks the chain outside-in.  The outermost layer must be assignable to
    ``outer_signer`` — in protocol use this is the *immediate sender*,
    which network property N2 makes unforgeable.  Each link's body then
    names the node its inner message must be assigned to, implementing the
    paper's rule that a verifier "not only assigns the complete message ...
    but also the submessages to the respective given nodes".

    Any of the following yields a rejection verdict (→ failure discovery):

    * malformed structure (not a leaf-terminated chain);
    * a signer for which the verifier accepted no test predicate;
    * a signature the accepted predicate rejects;
    * a repeated signer in the chain (each node signs at most once in the
      paper's protocols);
    * a depth or signer-sequence mismatch against the protocol's
      expectation, when the caller supplies one.

    :param signed: the chain-signed message.
    :param outer_signer: node to assign the outermost signature to (N2).
    :param directory: the verifier's accepted predicates.
    :param expected_depth: exact chain depth required by the protocol
        position, if known.
    :param expected_signers: exact outermost-first signer sequence required
        by the protocol position, if known.
    """
    try:
        layers = submessages(signed)
    except ChainStructureError as exc:
        return _reject(f"malformed chain: {exc}")

    value = leaf_value(layers[-1])

    if expected_depth is not None and len(layers) != expected_depth:
        return _reject(
            f"chain depth {len(layers)} != expected {expected_depth}", value
        )

    assignments: list[tuple[NodeId, SignedMessage]] = []
    assigned_to = outer_signer
    seen: set[NodeId] = set()
    for layer in layers:
        if assigned_to in seen:
            return _reject(f"node {assigned_to} signed twice in chain", value)
        seen.add(assigned_to)
        if not directory.predicates_for(assigned_to):
            return _reject(f"no accepted test predicate for node {assigned_to}", value)
        if not directory.verifies(assigned_to, layer):
            return _reject(f"signature of node {assigned_to} does not verify", value)
        assignments.append((assigned_to, layer))
        if is_link(layer):
            assigned_to, _ = link_parts(layer)

    if expected_signers is not None:
        actual = tuple(node for node, _ in assignments)
        if actual != tuple(expected_signers):
            return _reject(
                f"chain signers {actual} != expected {tuple(expected_signers)}", value
            )

    return ChainVerdict(
        ok=True, value=value, assignments=tuple(assignments), reason=None
    )
