"""Textbook RSA signatures (hash-then-sign), built from first principles.

The paper cites RSA (Rivest-Shamir-Adleman, CACM 1978) as an example of a
scheme satisfying its axioms S1-S3 "with a sufficiently high probability".
This module implements the classical construction:

* key generation: two random primes ``p, q``; modulus ``N = p*q``; public
  exponent ``e = 65537``; secret exponent ``d = e^-1 mod lcm(p-1, q-1)``;
* signing: ``sig = H(m)^d mod N`` with ``H`` = SHA-256 interpreted as an
  integer (full-domain-hash style, adequate for a research substrate);
* verification: ``sig^e mod N == H(m) mod N``.

Signing uses the CRT speed-up (sign modulo ``p`` and ``q`` separately and
recombine), which roughly quadruples throughput — relevant because the
benchmarks sign thousands of chain links.

Default modulus size is 512 bits: large enough that the axioms hold against
the adversaries *this library* implements, small enough that key generation
for a 64-node network takes well under a second.
"""

from __future__ import annotations

import hashlib
import math
import random

from ..errors import KeyGenerationError, SigningError
from .keys import KeyPair, SecretKey, SignatureScheme, TestPredicate, register_scheme
from .numtheory import generate_prime, modinv

_PUBLIC_EXPONENT = 65537


def _digest_int(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


class RsaScheme(SignatureScheme):
    """RSA hash-and-sign over a ``modulus_bits``-bit modulus."""

    def __init__(self, modulus_bits: int = 512, name: str = "rsa-512") -> None:
        if modulus_bits < 64:
            raise KeyGenerationError(
                f"RSA modulus must be >= 64 bits, got {modulus_bits}"
            )
        self.name = name
        self.modulus_bits = modulus_bits

    def generate_keypair(self, rng: random.Random) -> KeyPair:
        """Generate an RSA key pair from seeded randomness.

        Retries on the (rare) draws where ``e`` divides ``lambda(N)`` or the
        primes collide.
        """
        half = self.modulus_bits // 2
        for _ in range(64):
            p = generate_prime(half, rng)
            q = generate_prime(self.modulus_bits - half, rng)
            if p == q:
                continue
            lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
            if lam % _PUBLIC_EXPONENT == 0:
                continue
            n = p * q
            d = modinv(_PUBLIC_EXPONENT, lam)
            secret = SecretKey(
                scheme=self.name,
                # CRT precomputation: d mod p-1, d mod q-1, q^-1 mod p.
                material=(n, d, p, q, d % (p - 1), d % (q - 1), modinv(q, p)),
            )
            predicate = TestPredicate(scheme=self.name, material=(n, _PUBLIC_EXPONENT))
            return KeyPair(secret=secret, predicate=predicate)
        raise KeyGenerationError("RSA key generation failed repeatedly")

    def sign(self, secret: SecretKey, message: bytes) -> bytes:
        if secret.scheme != self.name:
            raise SigningError(
                f"secret key for scheme {secret.scheme!r} given to {self.name!r}"
            )
        n, _d, p, q, d_p, d_q, q_inv = secret.material
        h = _digest_int(message) % n
        # CRT: s_p = h^dP mod p, s_q = h^dQ mod q, recombine.
        s_p = pow(h % p, d_p, p)
        s_q = pow(h % q, d_q, q)
        t = (q_inv * (s_p - s_q)) % p
        signature = (s_q + t * q) % n
        return signature.to_bytes((n.bit_length() + 7) // 8, "big")

    def verify(self, predicate: TestPredicate, message: bytes, signature: bytes) -> bool:
        try:
            n, e = predicate.material
            if not isinstance(n, int) or not isinstance(e, int) or n <= 1:
                return False
            sig_int = int.from_bytes(signature, "big")
            if not 0 <= sig_int < n:
                return False
            return pow(sig_int, e, n) == _digest_int(message) % n
        except (TypeError, ValueError):
            return False


#: Default RSA instance, registered at import time.
RSA_512 = register_scheme(RsaScheme(modulus_bits=512, name="rsa-512"))
