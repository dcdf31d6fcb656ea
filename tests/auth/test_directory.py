"""KeyDirectory: the assignment relation of paper Definition 1."""

from __future__ import annotations

import random

import pytest

from repro.auth import KeyDirectory
from repro.crypto import get_scheme, sign_value


@pytest.fixture(scope="module")
def keypairs():
    scheme = get_scheme("schnorr-512")
    return {i: scheme.generate_keypair(random.Random(f"dir-{i}")) for i in range(4)}


class TestAcceptance:
    def test_accept_and_lookup(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(1, keypairs[1].predicate)
        assert directory.predicates_for(1) == (keypairs[1].predicate,)

    def test_unknown_node_has_no_predicates(self):
        directory = KeyDirectory(owner=0)
        assert directory.predicates_for(9) == ()

    def test_accept_is_idempotent_per_pair(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(1, keypairs[1].predicate)
        directory.accept(1, keypairs[1].predicate)
        assert len(directory.predicates_for(1)) == 1

    def test_multiple_predicates_accumulate(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(1, keypairs[1].predicate)
        directory.accept(1, keypairs[2].predicate)
        assert len(directory.predicates_for(1)) == 2

    def test_nodes_listing(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(2, keypairs[2].predicate)
        directory.accept(0, keypairs[0].predicate)
        assert list(directory.binding_fingerprints()) == [0, 2]


class TestAssignment:
    def test_assign_finds_the_signer(self, keypairs):
        directory = KeyDirectory(owner=0)
        for node, kp in keypairs.items():
            directory.accept(node, kp.predicate)
        signed = sign_value(keypairs[2].secret, "m")
        assert directory.assign(signed) == [2]

    def test_assign_unknown_key_is_empty(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(0, keypairs[0].predicate)
        signed = sign_value(keypairs[3].secret, "m")
        assert directory.assign(signed) == []

    def test_shared_key_multi_assignment(self, keypairs):
        """Definition 1 permits multiple assignees when faulty nodes share
        a key — the G1 case the paper describes."""
        directory = KeyDirectory(owner=0)
        directory.accept(1, keypairs[1].predicate)
        directory.accept(2, keypairs[1].predicate)  # key sharing
        signed = sign_value(keypairs[1].secret, "m")
        assert directory.assign(signed) == [1, 2]

    def test_verifies_is_per_node(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(1, keypairs[1].predicate)
        signed = sign_value(keypairs[1].secret, "m")
        assert directory.verifies(1, signed)
        assert not directory.verifies(2, signed)

    def test_verifies_tries_all_accepted_predicates(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(1, keypairs[2].predicate)
        directory.accept(1, keypairs[1].predicate)
        signed = sign_value(keypairs[1].secret, "m")
        assert directory.verifies(1, signed)


class TestComparison:
    def test_agreement_per_node(self, keypairs):
        a = KeyDirectory(owner=0)
        b = KeyDirectory(owner=1)
        a.accept(2, keypairs[2].predicate)
        b.accept(2, keypairs[2].predicate)
        assert a.binding_fingerprints()[2] == b.binding_fingerprints()[2]
        b.accept(2, keypairs[3].predicate)
        assert a.binding_fingerprints()[2] != b.binding_fingerprints()[2]

    def test_binding_fingerprints_shape(self, keypairs):
        directory = KeyDirectory(owner=0)
        directory.accept(1, keypairs[1].predicate)
        bindings = directory.binding_fingerprints()
        assert set(bindings) == {1}
        assert bindings[1] == (keypairs[1].predicate.fingerprint(),)
