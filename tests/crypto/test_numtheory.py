"""Number theory: primality, prime generation, inverses, groups."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import numtheory
from repro.errors import KeyGenerationError

KNOWN_PRIMES = [
    2, 3, 5, 7, 11, 13, 101, 257, 65537,
    2_147_483_647,            # Mersenne 2^31 - 1
    1_000_000_007,
    (1 << 127) - 1,           # Mersenne 2^127 - 1
]

KNOWN_COMPOSITES = [
    1, 4, 6, 9, 100, 65536,
    561, 1105, 1729, 2465, 6601,          # Carmichael numbers
    3215031751,                            # strong pseudoprime to 2,3,5,7
    (1 << 127) - 3,
]


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes_pass(self, p):
        assert numtheory.is_probable_prime(p)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_known_composites_fail(self, c):
        assert not numtheory.is_probable_prime(c)

    def test_negative_and_zero(self):
        assert not numtheory.is_probable_prime(0)
        assert not numtheory.is_probable_prime(-7)

    @given(st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=200)
    def test_agrees_with_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1)) and n >= 2
        assert numtheory.is_probable_prime(n) == by_trial

    @given(
        st.sampled_from(KNOWN_PRIMES[4:]),
        st.sampled_from(KNOWN_PRIMES[4:]),
    )
    def test_products_of_primes_are_composite(self, p, q):
        assert not numtheory.is_probable_prime(p * q)


class TestPrimeGeneration:
    @pytest.mark.parametrize("bits", [8, 16, 64, 128, 256])
    def test_generated_primes_have_exact_bit_length(self, bits):
        prime = numtheory.generate_prime(bits, random.Random(1))
        assert prime.bit_length() == bits
        assert numtheory.is_probable_prime(prime)

    def test_generation_is_deterministic_per_seed(self):
        a = numtheory.generate_prime(64, random.Random(42))
        b = numtheory.generate_prime(64, random.Random(42))
        assert a == b

    def test_different_seeds_differ(self):
        a = numtheory.generate_prime(64, random.Random(1))
        b = numtheory.generate_prime(64, random.Random(2))
        assert a != b

    def test_tiny_bit_length_rejected(self):
        with pytest.raises(KeyGenerationError):
            numtheory.generate_prime(4, random.Random(0))


class TestModularArithmetic:
    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_modinv_against_prime_modulus(self, a):
        p = 1_000_000_007
        inv = numtheory.modinv(a, p)
        assert (a * inv) % p == 1
        assert 0 <= inv < p

    def test_modinv_nonexistent_raises(self):
        with pytest.raises(KeyGenerationError):
            numtheory.modinv(6, 9)

    def test_modinv_of_negative(self):
        p = 101
        inv = numtheory.modinv(-3, p)
        assert (-3 * inv) % p == 1

    def test_modinv_at_key_size(self):
        p = (1 << 521) - 1  # Mersenne prime
        a = random.Random("modinv").randrange(2, p)
        assert a * numtheory.modinv(a, p) % p == 1


class TestFixedBaseComb:
    """The fixed-base kernel agrees with builtin ``pow`` on its whole domain."""

    @given(
        base=st.integers(min_value=0, max_value=1 << 80),
        modulus=st.integers(min_value=2, max_value=1 << 80),
        bits=st.integers(min_value=1, max_value=96),
        teeth=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_builtin_pow(self, base, modulus, bits, teeth, data):
        comb = numtheory.FixedBaseComb(base, modulus, bits, teeth)
        top = (1 << bits) - 1
        drawn = data.draw(st.lists(st.integers(min_value=0, max_value=top), max_size=4))
        for exponent in [0, 1, top, *drawn]:
            assert comb.pow(exponent) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("teeth", range(1, 9))
    def test_at_scheme_sizes(self, teeth):
        rng = random.Random(f"comb-{teeth}")
        p = (1 << 521) - 1
        base = rng.randrange(2, p)
        comb = numtheory.FixedBaseComb(base, p, 160, teeth)
        for exponent in (0, 1, (1 << 160) - 1, rng.getrandbits(160), rng.getrandbits(17)):
            assert comb.pow(exponent) == pow(base, exponent, p)

    @pytest.mark.parametrize("exponent", [-1, -(1 << 40), 1 << 12, (1 << 12) + 5, 1 << 200])
    def test_out_of_range_exponent_raises(self, exponent):
        # Dropping the high bits would return a plausible wrong power.
        comb = numtheory.FixedBaseComb(3, 1_000_000_007, 12, 4)
        with pytest.raises(ValueError):
            comb.pow(exponent)


class TestFixedBaseTable:
    """The per-byte table agrees with builtin ``pow`` on its whole domain."""

    @given(
        base=st.integers(min_value=0, max_value=1 << 80),
        modulus=st.integers(min_value=2, max_value=1 << 80),
        bits=st.integers(min_value=1, max_value=96),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_builtin_pow(self, base, modulus, bits, data):
        table = numtheory.FixedBaseTable(base, modulus, bits)
        top = (1 << bits) - 1
        drawn = data.draw(st.lists(st.integers(min_value=0, max_value=top), max_size=4))
        for exponent in [0, 1, top, *drawn]:
            assert table.pow(exponent) == pow(base, exponent, modulus)

    def test_at_scheme_sizes(self):
        rng = random.Random("table-512-160")
        p = numtheory.generate_prime(512, rng)
        base = rng.randrange(2, p)
        table = numtheory.FixedBaseTable(base, p, 160)
        top = (1 << 160) - 1
        for exponent in (0, 1, 255, 256, top, rng.getrandbits(160), rng.getrandbits(17)):
            assert table.pow(exponent) == pow(base, exponent, p)

    @pytest.mark.parametrize("exponent", [-1, -(1 << 40), 1 << 12, (1 << 12) + 5, 1 << 200])
    def test_out_of_range_exponent_raises(self, exponent):
        # 12 bits fill two byte rows: 2**12 still fits them, and must not pass.
        table = numtheory.FixedBaseTable(3, 1_000_000_007, 12)
        with pytest.raises(ValueError):
            table.pow(exponent)


class TestSchnorrGroup:
    def test_group_structure(self):
        p, q, g = numtheory.generate_schnorr_group(128, 64, random.Random(7))
        assert p.bit_length() == 128
        assert q.bit_length() == 64
        assert numtheory.is_probable_prime(p)
        assert numtheory.is_probable_prime(q)
        assert (p - 1) % q == 0
        assert pow(g, q, p) == 1       # g has order dividing q
        assert g != 1                   # and is not trivial

    def test_generator_has_order_exactly_q(self):
        p, q, g = numtheory.generate_schnorr_group(128, 64, random.Random(8))
        # q prime: order divides q and is not 1, hence exactly q.
        assert pow(g, q, p) == 1 and g != 1

    def test_rejects_q_not_smaller_than_p(self):
        with pytest.raises(KeyGenerationError):
            numtheory.generate_schnorr_group(64, 64, random.Random(0))
