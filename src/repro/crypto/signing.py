"""The signed-message value ``{m}_S`` and helpers to create and check it.

A :class:`SignedMessage` bundles a structured body with the raw signature
over the body's canonical encoding.  It is the unit the paper writes as
``{m}_S``: test predicates consume it whole (``T_i({m}_S)``), and chain
signatures nest it (:mod:`repro.crypto.chain`).

Hot-path caching
----------------
Signed messages are re-encoded and re-verified many times per run (every
relay hop re-checks every layer of a chain), so two caches sit here:

* ``body_bytes()`` is computed once per instance and stashed on the frozen
  dataclass via ``object.__setattr__`` — sound because bodies are wire
  values, immutable by library discipline;
* verification verdicts are memoized process-wide, keyed by
  ``(predicate, body bytes, signature)``.  Signature schemes are pure
  functions of exactly that triple (axiom S2), so a cached verdict can
  never diverge from a fresh one within a process.

A message's wire size is a sum over its body bytes (the codec's ``size``
hook), so a send charges it without encoding it; only a real encode, such
as nesting it in a chain, stashes its full wire bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import encoding
from .keys import SecretKey, TestPredicate

_BODY_CACHE_ATTR = "_repro_body_bytes"

# (predicate, body bytes, signature) -> verdict.  Bounded to one run's working
# set (an entry pins a decoded predicate + body bytes): cleared when full.
_VERIFY_CACHE: dict[tuple[TestPredicate, bytes, bytes], bool] = {}
_VERIFY_CACHE_MAX = 1 << 12


def cached_verify(predicate: TestPredicate, body: bytes, signature: bytes) -> bool:
    """Evaluate ``predicate(body, signature)`` through the process memo."""
    key = (predicate, body, signature)
    verdict = _VERIFY_CACHE.get(key)
    if verdict is None:
        verdict = predicate(body, signature)
        if len(_VERIFY_CACHE) >= _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.clear()
        _VERIFY_CACHE[key] = verdict
    return verdict


def clear_verify_cache() -> None:
    """Drop all memoized verification verdicts (tests / scheme changes)."""
    _VERIFY_CACHE.clear()


@dataclass(frozen=True)
class SignedMessage:
    """``{body}_S``: a body value plus a signature over its encoding.

    Immutable and wire-encodable.  Equality is structural, which lets
    protocol code deduplicate identical signed messages (used by the
    signed-messages agreement protocol's relay filter).
    """

    body: Any
    signature: bytes

    def body_bytes(self) -> bytes:
        """Canonical encoding of the body — the exact bytes that were signed.

        Memoized per instance; the body is immutable wire data, so the
        first encoding is also the last.
        """
        cached = getattr(self, _BODY_CACHE_ATTR, None)
        if cached is None:
            cached = encoding.encode(self.body)
            object.__setattr__(self, _BODY_CACHE_ATTR, cached)
        return cached

    def check(self, predicate: TestPredicate) -> bool:
        """Evaluate the test predicate on this message: ``T({m}_S)``."""
        return cached_verify(predicate, self.body_bytes(), self.signature)

    def __getstate__(self) -> dict[str, Any]:
        # Strip cache stashes so pickles are canonical: a message that was
        # verified and one that was not serialize byte-identically.
        return {"body": self.body, "signature": self.signature}

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "body", state["body"])
        object.__setattr__(self, "signature", state["signature"])


def sign_value(secret: SecretKey, body: Any) -> SignedMessage:
    """Produce ``{body}_S`` — sign the canonical encoding of ``body``."""
    body_bytes = encoding.encode(body)
    signature = secret.sign(body_bytes)
    signed = SignedMessage(body=body, signature=signature)
    # Seed the body memo only: the wire size is a sum over it (see
    # ``_wire_size``), so the full wire encoding waits for a real encode.
    object.__setattr__(signed, _BODY_CACHE_ATTR, body_bytes)
    return signed


def garble_signature(signed: SignedMessage) -> SignedMessage:
    """Return a copy with a corrupted signature (first byte flipped).

    Fault-injection helper: models a Byzantine node forwarding a message
    whose signature no longer verifies.  An empty signature becomes a
    single null byte so the result is always distinct from the input.
    """
    if signed.signature:
        corrupted = bytes([signed.signature[0] ^ 0xFF]) + signed.signature[1:]
    else:
        corrupted = b"\x00"
    garbled = SignedMessage(body=signed.body, signature=corrupted)
    cached = getattr(signed, _BODY_CACHE_ATTR, None)
    if cached is not None:
        # Same body, same canonical bytes — but a distinct signature, so the
        # garbled copy gets its own (failing) verification-cache entries.
        object.__setattr__(garbled, _BODY_CACHE_ATTR, cached)
    return garbled


_WIRE_NAME = "repro.SignedMessage"
# ``{body}_S`` encodes as an object header (tag, name length, name), a
# two-item sequence header (tag, count), then the body's and the
# signature's encodings: the encoding is additive, so with the body bytes
# in hand the exact wire size is a sum.
_WIRE_HEADER_SIZE = 1 + 1 + len(_WIRE_NAME) + 1 + 1


def _wire_size(signed: SignedMessage) -> int:
    """``len(encoding.encode(signed))``, without encoding or stashing it."""
    body = getattr(signed, _BODY_CACHE_ATTR, None) or signed.body_bytes()
    return _WIRE_HEADER_SIZE + len(body) + encoding.byte_size(signed.signature)


encoding.register_codec(
    SignedMessage,
    _WIRE_NAME,
    lambda s: (s.body, s.signature),
    lambda payload: SignedMessage(body=payload[0], signature=payload[1]),
    size=_wire_size,
)
