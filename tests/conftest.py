"""Shared fixtures for the test suite.

Key-material fixtures are module-scoped where safe: key generation is the
only genuinely expensive operation in the suite, and the objects are
immutable (KeyPair) or rebuilt per test where mutation matters
(directories are cheap to copy from keypairs).
"""

from __future__ import annotations

import random

import pytest

from repro.auth import KeyDirectory, run_key_distribution, trusted_dealer_setup
from repro.crypto import DEFAULT_SCHEME, get_scheme


def pytest_configure(config):
    """Any ``RuntimeWarning`` a test does not expect (``pytest.warns``)
    fails it: a silently degraded path must not come back unnoticed."""
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture(scope="session")
def scheme():
    """The default signature scheme object."""
    return get_scheme(DEFAULT_SCHEME)


@pytest.fixture(scope="session")
def keypair_factory(scheme):
    """Deterministic keypair factory: ``factory(tag)`` is stable per tag."""

    cache: dict[str, object] = {}

    def factory(tag: str = "default"):
        if tag not in cache:
            cache[tag] = scheme.generate_keypair(random.Random(f"kp-{tag}"))
        return cache[tag]

    return factory


@pytest.fixture(scope="session")
def dealer_setup_8():
    """Globally authentic keys for an 8-node network (session-cached)."""
    return trusted_dealer_setup(8, seed="dealer-8")


@pytest.fixture(scope="session")
def local_setup_8():
    """Honest local-authentication state for an 8-node network."""
    return run_key_distribution(8, seed="local-8")


def fresh_directory(owner: int, keypairs: dict) -> KeyDirectory:
    """A directory binding every node to its genuine predicate."""
    directory = KeyDirectory(owner=owner)
    for node, keypair in keypairs.items():
        directory.accept(node, keypair.predicate)
    return directory
