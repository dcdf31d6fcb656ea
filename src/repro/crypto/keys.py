"""Keys, test predicates and the signature-scheme registry.

The paper's signature axioms (its section 2):

S1. A node can produce a signed message ``{m}_S`` if and only if it knows
    the secret key ``S`` and the message ``m``.
S2. For each secret key ``S_i`` there exists a public *test predicate*
    ``T_i`` with ``T_i({m}_S) == true  <=>  S == S_i``.
S3. The secret key ``S_i`` cannot be extracted from a signed message or
    from the test predicate.

We model the test predicate as a first-class value (:class:`TestPredicate`)
that travels on the wire during the key distribution protocol, exactly as
the paper casts "public key" into "test predicate" for notational reasons.

Crucially — and this is the paper's departure from the usual authenticated
model — *nothing* here assumes test predicates are distributed
authentically.  A predicate is just a value; binding predicates to nodes is
the job of :mod:`repro.auth`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any

from ..errors import UnknownSchemeError
from . import encoding


@dataclass(frozen=True)
class SecretKey:
    """A secret signing key ``S_i`` (axiom S1).

    ``material`` is scheme-specific and opaque to everything outside the
    scheme implementation.  Secret keys are deliberately *not* registered
    with the wire codec: the key distribution protocol never transmits
    them, and the proof of paper Theorem 2 relies on exactly that.
    """

    scheme: str
    material: Any = field(repr=False)

    def sign(self, message: bytes) -> bytes:
        """Sign ``message``, returning the raw signature bytes."""
        return get_scheme(self.scheme).sign(self, message)

    def __getstate__(self) -> dict[str, Any]:
        return {"scheme": self.scheme, "material": self.material}

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "scheme", state["scheme"])
        object.__setattr__(self, "material", state["material"])
        # A secret crossing a process boundary — a kernel snapshot being
        # resumed, a sweep point fanned out to a worker — must bring its
        # scheme's process-local state along, or verification silently
        # flips to "reject" in the new process and a resumed run diverges
        # from the straight one.  Schemes with such state (the simulated
        # HMAC scheme's secret registry) re-register here.
        try:
            get_scheme(self.scheme).observe_unpickled_secret(self)
        except UnknownSchemeError:
            pass


@dataclass(frozen=True)
class TestPredicate:
    """A public test predicate ``T_i`` (axiom S2).

    Calling the predicate on ``(message, signature)`` returns whether the
    signature was produced with the matching secret key.  Predicates are
    value objects: equality and hashing go through the canonical encoding
    of the public material, so two nodes can compare the predicates they
    received byte-for-byte — which is all the key distribution protocol
    ever needs.
    """

    scheme: str
    material: Any

    # The class name matches pytest's collection pattern by coincidence;
    # this marker keeps test collectors away from a library type.
    __test__ = False

    def __call__(self, message: bytes, signature: bytes) -> bool:
        """Evaluate ``T_i({m}_S)``: True iff ``signature`` is valid for
        ``message`` under this predicate's key (axiom S2)."""
        try:
            scheme = get_scheme(self.scheme)
        except UnknownSchemeError:
            return False
        return scheme.verify(self, message, signature)

    def fingerprint(self) -> bytes:
        """A 16-byte digest identifying this predicate's public material."""
        return hashlib.sha256(encoding.encode(self._wire_payload())).digest()[:16]

    def _wire_payload(self) -> Any:
        return (self.scheme, self.material)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestPredicate):
            return NotImplemented
        return self._wire_payload() == other._wire_payload()

    def __hash__(self) -> int:
        # Hashing encodes the material; predicates key the hot
        # signature-verification memo, so the hash itself is memoized.
        cached = getattr(self, "_repro_hash", None)
        if cached is None:
            cached = hash((self.scheme, encoding.encode(self.material)))
            object.__setattr__(self, "_repro_hash", cached)
        return cached

    def __getstate__(self) -> dict[str, Any]:
        # Strip cache stashes (hash, wire bytes) for canonical pickles.
        return {"scheme": self.scheme, "material": self.material}

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "scheme", state["scheme"])
        object.__setattr__(self, "material", state["material"])


@dataclass(frozen=True)
class KeyPair:
    """A node's ``(S_i, T_i)`` pair as generated in paper Fig. 1, line 1."""

    secret: SecretKey
    predicate: TestPredicate


class SignatureScheme:
    """Interface every signature scheme implements.

    Concrete schemes (:mod:`repro.crypto.rsa`, :mod:`repro.crypto.schnorr`,
    :mod:`repro.crypto.simulated`) register themselves under a stable name
    via :func:`register_scheme`.
    """

    #: Stable registry name; subclasses override.
    name: str = ""

    def generate_keypair(self, rng: random.Random) -> KeyPair:
        """Generate a fresh ``(S, T)`` pair from the given randomness."""
        raise NotImplementedError

    def sign(self, secret: SecretKey, message: bytes) -> bytes:
        """Produce ``{m}_S`` (the signature part)."""
        raise NotImplementedError

    def verify(self, predicate: TestPredicate, message: bytes, signature: bytes) -> bool:
        """Evaluate the test predicate.  Must never raise on garbage input."""
        raise NotImplementedError

    def observe_unpickled_secret(self, secret: SecretKey) -> None:
        """Called when one of this scheme's secret keys is unpickled.

        Default: nothing — real schemes are stateless beyond the key
        material itself.  Schemes with process-local state that
        verification depends on (the simulated HMAC scheme's secret
        registry) override this to rebuild it, so kernel snapshots and
        process-pool sweep points stay verifiable across processes.
        """


_SCHEMES: dict[str, SignatureScheme] = {}


def register_scheme(scheme: SignatureScheme) -> SignatureScheme:
    """Add ``scheme`` to the global registry (idempotent per name)."""
    _SCHEMES[scheme.name] = scheme
    return scheme


def get_scheme(name: str) -> SignatureScheme:
    """Look up a registered scheme.

    :raises UnknownSchemeError: for names never registered.
    """
    try:
        return _SCHEMES[name]
    except KeyError:
        raise UnknownSchemeError(
            f"unknown signature scheme {name!r}; known: {sorted(_SCHEMES)}"
        ) from None


def available_schemes() -> list[str]:
    """Names of all registered schemes, sorted."""
    return sorted(_SCHEMES)


# Test predicates travel on the wire (paper Fig. 1 line 2: "send T_i to all
# other nodes"), so they get a codec.  Secret keys intentionally do not.
encoding.register_codec(
    TestPredicate,
    "repro.TestPredicate",
    lambda p: p._wire_payload(),
    lambda payload: TestPredicate(scheme=payload[0], material=payload[1]),
)
