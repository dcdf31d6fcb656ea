"""Golden vectors: key material and signature bytes pinned per ``(seed, message)``.

``golden_signatures.json`` was captured on the commit before the fixed-base
comb replaced builtin ``pow`` in the Schnorr scheme (PR 15).  Signatures are
wire bytes, so a kernel that shifts one shifts every committed ``bytes``
count; this pins them directly instead of through a scenario total.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.crypto import get_scheme, numtheory

VECTORS = json.loads((Path(__file__).parent / "golden_signatures.json").read_text())


def _plain(material):
    """JSON has no tuples: compare key material as nested lists."""
    return list(material) if isinstance(material, tuple) else material


@pytest.mark.parametrize("vector", VECTORS, ids=lambda v: f"{v['scheme']}-{v['seed']}")
def test_keypair_and_signature_are_pinned(vector):
    scheme = get_scheme(vector["scheme"])
    message = bytes.fromhex(vector["message"])
    keypair = scheme.generate_keypair(random.Random(vector["seed"]))
    assert _plain(keypair.secret.material) == vector["secret"]
    assert _plain(keypair.predicate.material) == vector["public"]
    signature = scheme.sign(keypair.secret, message)
    assert signature.hex() == vector["signature"]
    assert scheme.verify(keypair.predicate, message, signature)


@pytest.mark.parametrize("kernel", [numtheory.FixedBaseTable, numtheory.FixedBaseComb])
def test_kernel_fault_is_not_a_silent_reject(monkeypatch, kernel):
    """``verify`` answers False for malformed input only: a fault inside
    either exponentiation kernel (the table for ``g^s``, a key's comb for
    ``y^-e``) must surface, not read as a bad signature (which would show up
    three layers higher as a missed F-property)."""
    scheme = get_scheme("schnorr-512")
    keypair = scheme.generate_keypair(random.Random("kernel-fault"))
    signature = scheme.sign(keypair.secret, b"m")

    def broken(self, exponent):
        raise ArithmeticError("kernel bug")

    monkeypatch.setattr(kernel, "pow", broken)
    with pytest.raises(ArithmeticError):
        scheme.verify(keypair.predicate, b"m", signature)
