"""Caching layers in crypto: verification memo, encodings, chain layers.

The caching invariant under test everywhere: a cached answer must be
indistinguishable from a cold one — for genuine signatures, garbled
signatures, forged predicates, and repeated checks in any order.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.crypto import encoding
from repro.crypto.chain import extend_chain, sign_leaf, submessages
from repro.crypto.keys import TestPredicate
from repro.crypto.signing import (
    SignedMessage,
    cached_verify,
    clear_verify_cache,
    garble_signature,
    sign_value,
)


@pytest.fixture
def keypair(scheme):
    return scheme.generate_keypair(random.Random("verify-cache"))


class TestCachedVerification:
    def test_matches_uncached_on_genuine_and_garbled(self, keypair):
        clear_verify_cache()
        signed = sign_value(keypair.secret, ("msg", 1))
        garbled = garble_signature(signed)
        for _ in range(3):  # repeats exercise the memo hits
            assert signed.check(keypair.predicate) is True
            assert garbled.check(keypair.predicate) is False
            # Direct (uncached) predicate evaluation must agree.
            assert keypair.predicate(signed.body_bytes(), signed.signature)
            assert not keypair.predicate(garbled.body_bytes(), garbled.signature)

    def test_garbled_copy_is_cached_independently(self, keypair):
        clear_verify_cache()
        signed = sign_value(keypair.secret, "payload")
        garbled = garble_signature(signed)
        # Same body bytes, different signatures: distinct cache entries.
        assert signed.body_bytes() == garbled.body_bytes()
        assert signed.signature != garbled.signature
        assert cached_verify(keypair.predicate, signed.body_bytes(), signed.signature)
        assert not cached_verify(
            keypair.predicate, garbled.body_bytes(), garbled.signature
        )

    def test_fabricated_predicate_rejected_cached_and_cold(self, keypair):
        clear_verify_cache()
        fake = TestPredicate(scheme=keypair.predicate.scheme, material=b"\x00" * 32)
        signed = sign_value(keypair.secret, "x")
        assert signed.check(fake) is False
        assert signed.check(fake) is False  # memo hit

    def test_distinct_predicates_do_not_collide(self, scheme):
        clear_verify_cache()
        kp_a = scheme.generate_keypair(random.Random("cache-a"))
        kp_b = scheme.generate_keypair(random.Random("cache-b"))
        signed = sign_value(kp_a.secret, "hello")
        assert signed.check(kp_a.predicate)
        assert not signed.check(kp_b.predicate)


class TestBodyBytesMemo:
    def test_matches_fresh_encoding(self, keypair):
        signed = sign_value(keypair.secret, ("a", 1, b"z"))
        assert signed.body_bytes() == encoding.encode(("a", 1, b"z"))
        # Constructed (not signed) instances compute on demand.
        rebuilt = SignedMessage(body=("a", 1, b"z"), signature=signed.signature)
        assert rebuilt.body_bytes() == signed.body_bytes()

    def test_wire_stash_waits_for_an_encode(self, keypair):
        """sign_value stashes the body bytes only: sizing the message for a
        send leaves it without wire bytes, and the first encode stashes
        exactly what a stash-less copy encodes to."""
        signed = sign_value(keypair.secret, ("body", 2))
        assert not hasattr(signed, encoding.WIRE_CACHE_ATTR)
        encoding.byte_size(signed)
        assert not hasattr(signed, encoding.WIRE_CACHE_ATTR)
        wire = encoding.encode(signed)
        assert getattr(signed, encoding.WIRE_CACHE_ATTR) == wire
        cold = encoding.encode(
            SignedMessage(body=("body", 2), signature=signed.signature)
        )
        assert wire == cold
        assert encoding.decode(wire) == signed

    def test_pickles_are_canonical(self, keypair):
        """Cache stashes never leak into serialized form."""
        signed = sign_value(keypair.secret, "m")
        signed.body_bytes()
        encoding.encode(signed)  # populate wire cache too
        fresh = SignedMessage(body="m", signature=signed.signature)
        assert pickle.dumps(signed) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(signed)) == signed

    def test_predicate_pickles_are_canonical(self, keypair):
        predicate = keypair.predicate
        hash(predicate)  # populate the hash memo
        encoding.encode(predicate)  # and the wire cache
        restored = pickle.loads(pickle.dumps(predicate))
        assert restored == predicate
        assert pickle.dumps(restored) == pickle.dumps(predicate)


class TestChainLayerMemo:
    def test_submessages_memo_matches_fresh_walk(self, keypair, scheme):
        other = scheme.generate_keypair(random.Random("verify-cache-2"))
        leaf = sign_leaf(keypair.secret, "v")
        chain = extend_chain(other.secret, 0, leaf)
        first = submessages(chain)
        second = submessages(chain)  # memo hit
        assert first == second
        assert second[-1] == leaf
        # The memo returns a fresh list each call (callers may mutate).
        assert first is not second
