"""Signature schemes: axioms S1-S3, cross-scheme behaviour, registry."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.crypto import (
    available_schemes,
    encode,
    get_scheme,
    sign_value,
)
from repro.crypto.keys import TestPredicate
from repro.crypto.signing import garble_signature
from repro.crypto.simulated import SimulatedScheme, forge_signature
from repro.errors import SigningError, UnknownSchemeError

ALL_SCHEMES = ["rsa-512", "schnorr-512", "simulated-hmac"]


@pytest.fixture(scope="module")
def keypairs():
    """Two keypairs per scheme, deterministic."""
    result = {}
    for name in ALL_SCHEMES:
        scheme = get_scheme(name)
        rng = random.Random(f"test-{name}")
        result[name] = (scheme.generate_keypair(rng), scheme.generate_keypair(rng))
    return result


class TestAxiomS2:
    """T_i({m}_S) = true  <=>  S = S_i."""

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_own_signature_verifies(self, keypairs, name):
        kp, _ = keypairs[name]
        message = b"the failure discovery problem"
        sig = kp.secret.sign(message)
        assert kp.predicate(message, sig)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_foreign_signature_rejected(self, keypairs, name):
        kp_a, kp_b = keypairs[name]
        message = b"some message"
        sig = kp_a.secret.sign(message)
        assert not kp_b.predicate(message, sig)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_signature_bound_to_message(self, keypairs, name):
        kp, _ = keypairs[name]
        sig = kp.secret.sign(b"message one")
        assert not kp.predicate(b"message two", sig)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_garbled_signature_rejected(self, keypairs, name):
        kp, _ = keypairs[name]
        signed = sign_value(kp.secret, ("payload", 7))
        assert signed.check(kp.predicate)
        assert not garble_signature(signed).check(kp.predicate)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    @given(payload=st.binary(max_size=96))
    @settings(max_examples=50, deadline=None)
    def test_random_blobs_never_verify(self, keypairs, name, payload):
        kp, _ = keypairs[name]
        assert not kp.predicate(b"target message", payload)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_empty_signature_rejected(self, keypairs, name):
        kp, _ = keypairs[name]
        assert not kp.predicate(b"m", b"")


class TestPredicateRobustness:
    """Predicates may arrive from Byzantine nodes: verification must never
    raise, whatever the material looks like."""

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    @pytest.mark.parametrize(
        "material",
        [None, 0, -1, "junk", b"junk", (1,), (1, 2, 3, 4), ("a", "b")],
    )
    def test_malformed_material_verifies_false(self, name, material):
        predicate = TestPredicate(scheme=name, material=material)
        assert predicate(b"m", b"s") is False

    def test_unknown_scheme_verifies_false(self):
        predicate = TestPredicate(scheme="no-such-scheme", material=b"x")
        assert predicate(b"m", b"s") is False

    def test_fabricated_hmac_commitment_rejected(self):
        # A commitment never produced by keygen has no secret behind it.
        predicate = TestPredicate(scheme="simulated-hmac", material=b"\x00" * 32)
        assert predicate(b"m", b"\x00" * 32) is False


class TestDeterminismAndDistinctness:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_keygen_deterministic_per_seed(self, name):
        scheme = get_scheme(name)
        a = scheme.generate_keypair(random.Random(99))
        b = scheme.generate_keypair(random.Random(99))
        assert a.predicate == b.predicate

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_distinct_seeds_distinct_predicates(self, name):
        scheme = get_scheme(name)
        a = scheme.generate_keypair(random.Random(1))
        b = scheme.generate_keypair(random.Random(2))
        assert a.predicate != b.predicate
        assert a.predicate.fingerprint() != b.predicate.fingerprint()

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_predicate_survives_wire_round_trip(self, keypairs, name):
        from repro.crypto import decode

        kp, _ = keypairs[name]
        recovered = decode(encode(kp.predicate))
        assert recovered == kp.predicate
        signed = sign_value(kp.secret, "x")
        assert signed.check(recovered)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_fingerprint_stable(self, keypairs, name):
        kp, _ = keypairs[name]
        assert kp.predicate.fingerprint() == kp.predicate.fingerprint()
        assert len(kp.predicate.fingerprint()) == 16


class TestSchemeMismatch:
    def test_signing_with_wrong_scheme_raises(self, keypairs):
        rsa_kp, _ = keypairs["rsa-512"]
        schnorr = get_scheme("schnorr-512")
        with pytest.raises(SigningError):
            schnorr.sign(rsa_kp.secret, b"m")

    def test_cross_scheme_verification_is_false(self, keypairs):
        rsa_kp, _ = keypairs["rsa-512"]
        schnorr_kp, _ = keypairs["schnorr-512"]
        signed = sign_value(rsa_kp.secret, "v")
        assert not signed.check(schnorr_kp.predicate)


class TestRegistry:
    def test_all_expected_schemes_registered(self):
        for name in ALL_SCHEMES:
            assert name in available_schemes()

    def test_unknown_scheme_raises(self):
        with pytest.raises(UnknownSchemeError):
            get_scheme("md5-madness")


class TestSimulatedForgeHelper:
    def test_forge_produces_valid_signature(self):
        scheme = get_scheme(SimulatedScheme.name)
        kp = scheme.generate_keypair(random.Random(5))
        forged = forge_signature(kp.predicate, b"never signed")
        assert forged is not None
        assert kp.predicate(b"never signed", forged)

    def test_forge_unavailable_for_real_schemes(self):
        scheme = get_scheme("schnorr-512")
        kp = scheme.generate_keypair(random.Random(5))
        assert forge_signature(kp.predicate, b"m") is None


def test_generator_table_is_built_on_first_schnorr_use_only():
    """The ``g`` table (~0.5 MiB, ~10 ms) is built lazily: importing the
    harness and running a count-scheme key distribution, as every workload
    but the real-signature one does, must not build it."""
    code = (
        "import random\n"
        "import repro.harness\n"
        "from repro.harness.workloads import COUNT_SCHEME, keydist_point\n"
        "from repro.crypto.schnorr import SCHNORR_512\n"
        "keydist_point(4, scheme=COUNT_SCHEME)\n"
        "assert '_g_table' not in SCHNORR_512.__dict__, 'built eagerly'\n"
        "SCHNORR_512.generate_keypair(random.Random(0))\n"
        "assert '_g_table' in SCHNORR_512.__dict__\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
