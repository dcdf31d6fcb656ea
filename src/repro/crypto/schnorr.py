"""Schnorr signatures over a prime-order subgroup (the DSA family).

The paper cites the Digital Signature Standard as its second example of a
scheme satisfying axioms S1-S3.  We implement the Schnorr variant of that
family: identical algebraic setting (prime-order subgroup of ``Z_p^*``),
simpler and easier to verify correct.

* parameters: primes ``p, q`` with ``q | p - 1``, generator ``g`` of the
  order-``q`` subgroup;
* keys: secret ``x`` uniform in ``[1, q)``, public ``y = g^x mod p``;
* signing (deterministic, RFC-6979 flavoured): nonce
  ``k = H(x || m) mod q``, commitment ``r = g^k mod p``, challenge
  ``e = H(r || m) mod q``, response ``s = (k + x*e) mod q``;
* verification: recompute ``r' = g^s * y^(-e) mod p`` and check
  ``H(r' || m) mod q == e``.

All nodes in a run share one group parameter set.  That is faithful to
deployed DSA (domain parameters are common) and does not weaken the model:
the per-node secret is ``x``, and possession of ``x`` is exactly what the
challenge-response of the key distribution protocol demonstrates.

Group generation is deterministic from a fixed seed and cached, so repeated
runs and tests do not pay the parameter-search cost.

Every base is fixed (``g`` is a constant, a run has ``n`` public keys), so no
exponentiation calls ``pow``.  Powers of ``g`` come from one
:class:`~repro.crypto.numtheory.FixedBaseTable` per scheme (a per-byte table,
built on first use: no squaring, at most 20 multiplications at q = 160 bits);
``y^-1`` gets one small :class:`~repro.crypto.numtheory.FixedBaseComb` per
public key, memoised by value because every recipient decodes its own
predicate object.
"""

from __future__ import annotations

import hashlib
import random
from functools import cache, cached_property

from ..errors import KeyGenerationError, SigningError
from .keys import KeyPair, SecretKey, SignatureScheme, TestPredicate, register_scheme
from .numtheory import FixedBaseComb, FixedBaseTable, generate_schnorr_group, modinv

# A key's comb: 2^6 entries (6.5 KB, ~one verify to build) pay off from its
# second verify.
_KEY_TEETH = 6
# (p, y) -> comb for y^-1 mod p.  Bounded: cleared wholesale when full, so it
# holds a few runs' keys (the largest gated run has n = 128), never a process's.
_KEY_COMBS: dict[tuple[int, int], FixedBaseComb] = {}
_KEY_COMBS_MAX = 256


@cache
def default_group(p_bits: int = 512, q_bits: int = 160) -> tuple[int, int, int]:
    """The library-wide Schnorr group for the given sizes (cached).

    Generated from a fixed seed so every process derives identical
    parameters — the moral equivalent of published DSA domain parameters.
    """
    rng = random.Random(f"repro-schnorr-group-{p_bits}-{q_bits}")
    return generate_schnorr_group(p_bits, q_bits, rng)


def _inverse_key_comb(p: int, q: int, y: int) -> FixedBaseComb:
    comb = _KEY_COMBS.get((p, y))
    if comb is None:
        if len(_KEY_COMBS) >= _KEY_COMBS_MAX:
            _KEY_COMBS.clear()
        comb = _KEY_COMBS[p, y] = FixedBaseComb(modinv(y, p), p, q.bit_length(), _KEY_TEETH)
    return comb


def _hash_to_int(*parts: bytes) -> int:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big")


class SchnorrScheme(SignatureScheme):
    """Schnorr signatures over the library's shared subgroup."""

    def __init__(
        self, p_bits: int = 512, q_bits: int = 160, name: str = "schnorr-512"
    ) -> None:
        self.name = name
        self._p_bits = p_bits
        self._q_bits = q_bits

    @property
    def group(self) -> tuple[int, int, int]:
        """The ``(p, q, g)`` domain parameters (generated lazily)."""
        return default_group(self._p_bits, self._q_bits)

    @cached_property
    def _g_table(self) -> FixedBaseTable:
        p, q, g = self.group
        return FixedBaseTable(g, p, q.bit_length())

    def generate_keypair(self, rng: random.Random) -> KeyPair:
        _, q, _ = self.group
        x = rng.randrange(1, q)
        y = self._g_table.pow(x)
        secret = SecretKey(scheme=self.name, material=x)
        predicate = TestPredicate(scheme=self.name, material=y)
        return KeyPair(secret=secret, predicate=predicate)

    def sign(self, secret: SecretKey, message: bytes) -> bytes:
        if secret.scheme != self.name:
            raise SigningError(
                f"secret key for scheme {secret.scheme!r} given to {self.name!r}"
            )
        p, q, _ = self.group
        x = secret.material
        x_bytes = x.to_bytes((q.bit_length() + 7) // 8, "big")
        k = _hash_to_int(b"nonce", x_bytes, message) % q
        if k == 0:  # one-in-2^160 corner; renonce deterministically
            k = 1
        r = self._g_table.pow(k)
        e = _hash_to_int(b"chal", r.to_bytes((p.bit_length() + 7) // 8, "big"), message) % q
        s = (k + x * e) % q
        size = (q.bit_length() + 7) // 8
        return e.to_bytes(size, "big") + s.to_bytes(size, "big")

    def verify(self, predicate: TestPredicate, message: bytes, signature: bytes) -> bool:
        try:
            p, q, _ = self.group
            y = predicate.material
            if not isinstance(y, int) or not 1 < y < p:
                return False
            size = (q.bit_length() + 7) // 8
            if len(signature) != 2 * size:
                return False
            e = int.from_bytes(signature[:size], "big")
            s = int.from_bytes(signature[size:], "big")
            if not (0 <= e < q and 0 <= s < q):
                return False
            r = self._g_table.pow(s) * _inverse_key_comb(p, q, y).pow(e) % p
            e_check = (
                _hash_to_int(b"chal", r.to_bytes((p.bit_length() + 7) // 8, "big"), message)
                % q
            )
            return e_check == e
        except (TypeError, ValueError, KeyGenerationError):  # malformed input only
            return False


#: Default Schnorr instance, registered at import time.
SCHNORR_512 = register_scheme(SchnorrScheme())
