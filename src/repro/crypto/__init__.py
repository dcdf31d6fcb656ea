"""Cryptographic substrate: canonical encoding, signature schemes, chains.

The paper assumes a signature scheme with axioms S1-S3 (see
:mod:`repro.crypto.keys`) and names RSA and DSA as instantiations.  This
package provides both families from first principles plus a fast simulation
scheme, a canonical wire encoding so structured values can be signed
consistently across nodes, and the named chain signatures of the paper's
section 4.
"""

from .chain import (
    ChainVerdict,
    chain_depth,
    extend_chain,
    is_leaf,
    is_link,
    leaf_value,
    link_parts,
    sign_leaf,
    submessages,
    verify_chain,
)
from .encoding import byte_size, decode, encode, register_codec
from .keys import (
    KeyPair,
    SecretKey,
    SignatureScheme,
    TestPredicate,
    available_schemes,
    get_scheme,
    register_scheme,
)
from .rsa import RSA_512, RsaScheme
from .schnorr import SCHNORR_512, SchnorrScheme
from .signing import SignedMessage, garble_signature, sign_value
from .simulated import SIMULATED, SimulatedScheme

#: Scheme used by default throughout the library.  Schnorr rather than RSA
#: because its keygen cost is a single modular exponentiation (RSA keygen
#: must search for primes per node), which matters when sweeping network
#: sizes; and rather than the HMAC scheme because it genuinely satisfies
#: S1-S3 (see the caveat in :mod:`repro.crypto.simulated`).
DEFAULT_SCHEME = SCHNORR_512.name

__all__ = [
    "ChainVerdict",
    "DEFAULT_SCHEME",
    "KeyPair",
    "RSA_512",
    "RsaScheme",
    "SCHNORR_512",
    "SIMULATED",
    "SchnorrScheme",
    "SecretKey",
    "SignatureScheme",
    "SignedMessage",
    "SimulatedScheme",
    "TestPredicate",
    "available_schemes",
    "byte_size",
    "chain_depth",
    "decode",
    "encode",
    "extend_chain",
    "garble_signature",
    "get_scheme",
    "is_leaf",
    "is_link",
    "leaf_value",
    "link_parts",
    "register_codec",
    "register_scheme",
    "sign_leaf",
    "sign_value",
    "submessages",
    "verify_chain",
]
