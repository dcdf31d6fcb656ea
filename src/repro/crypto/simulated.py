"""A fast HMAC-based *simulation* signature scheme.

Real public-key signing dominates wall-clock time in large parameter
sweeps.  For benchmarks whose subject is *message complexity* — where the
cryptography only needs to be functionally correct, not adversary-proof —
this scheme provides microsecond signing with the same interface.

Construction
------------
* secret key: 32 random bytes ``k``;
* test predicate material: ``sha256(k)`` — a commitment to ``k`` that does
  not reveal it (so axiom S3 holds for the predicate *value* itself);
* signature: ``HMAC-SHA256(k, m)``;
* verification: the predicate's commitment is looked up in a process-local
  registry populated at key-generation time, yielding ``k``, and the HMAC
  is recomputed.

Threat-model caveat (read before using in security experiments)
---------------------------------------------------------------
Verification requires the verifier's *process* to know ``k`` via the
registry.  Inside one simulation process this is invisible: honest protocol
code and the fault behaviours in :mod:`repro.faults` never touch the
registry, so S1-S3 hold *against every adversary this library implements*.
A hypothetical adversary with process-memory access could forge, which is
why the adversarial key-distribution experiments (E6) default to the real
schemes.
"""

from __future__ import annotations

import hashlib
import hmac
import random

from ..errors import SigningError
from .keys import KeyPair, SecretKey, SignatureScheme, TestPredicate, register_scheme

# commitment (predicate material) -> secret bytes.  Process-local trust base.
_SECRET_REGISTRY: dict[bytes, bytes] = {}


class SimulatedScheme(SignatureScheme):
    """HMAC-based scheme for honest-path benchmarking (see module docs)."""

    name = "simulated-hmac"

    def generate_keypair(self, rng: random.Random) -> KeyPair:
        k = rng.getrandbits(256).to_bytes(32, "big")
        commitment = hashlib.sha256(k).digest()
        _SECRET_REGISTRY[commitment] = k
        secret = SecretKey(scheme=self.name, material=k)
        predicate = TestPredicate(scheme=self.name, material=commitment)
        return KeyPair(secret=secret, predicate=predicate)

    def sign(self, secret: SecretKey, message: bytes) -> bytes:
        if secret.scheme != self.name:
            raise SigningError(
                f"secret key for scheme {secret.scheme!r} given to {self.name!r}"
            )
        # hmac.digest is the one-shot C fast path (no HMAC object setup).
        return hmac.digest(secret.material, message, "sha256")

    def verify(self, predicate: TestPredicate, message: bytes, signature: bytes) -> bool:
        material = predicate.material
        if not isinstance(material, bytes):
            return False
        k = _SECRET_REGISTRY.get(material)
        if k is None:
            # Unknown commitment: the "public key" was fabricated without
            # key generation, so no secret exists and S2 says reject.
            return False
        expected = hmac.digest(k, message, "sha256")
        return hmac.compare_digest(expected, signature)

    def observe_unpickled_secret(self, secret: SecretKey) -> None:
        # The trust base is process-local; a secret arriving by pickle
        # (kernel snapshot resume, sweep worker fan-out) re-registers its
        # commitment so the in-flight signatures it produced still verify.
        material = secret.material
        if isinstance(material, (bytes, bytearray)):
            k = bytes(material)
            _SECRET_REGISTRY.setdefault(hashlib.sha256(k).digest(), k)


#: Default simulated instance, registered at import time.
SIMULATED = register_scheme(SimulatedScheme())
