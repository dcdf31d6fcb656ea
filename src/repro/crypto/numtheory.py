"""Number-theoretic primitives for the from-scratch signature schemes.

The paper cites RSA and DSA as example schemes satisfying its signature
axioms S1-S3.  We implement both from first principles (no external crypto
libraries are available offline), which requires primality testing, prime
generation, modular inverses and subgroup parameter generation.

Security disclaimer: key sizes default to research-grade small parameters
(512-bit moduli) so that simulations with dozens of nodes stay fast.  This
is a *reproduction substrate*, not a production cryptosystem.
"""

from __future__ import annotations

import random

from ..errors import KeyGenerationError

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
)

# Deterministic Miller-Rabin witness sets.  Testing against these bases is
# a *proof* of primality for n below the stated bounds (Sinclair/Jaeschke).
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461  # ~3.3e23


def _miller_rabin_round(n: int, base: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime' for this base."""
    if base % n == 0:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng: random.Random | None = None, rounds: int = 24) -> bool:
    """Miller-Rabin primality test.

    Deterministic (a proof, not a probability) for ``n`` below ~3.3e23;
    above that, ``rounds`` random bases give error probability at most
    ``4**-rounds``.

    :param n: the candidate.
    :param rng: randomness source for witness selection; a fresh unseeded
        ``random.Random`` is used if omitted.
    :param rounds: number of random witnesses for large ``n``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_BOUND:
        return all(_miller_rabin_round(n, base) for base in _DETERMINISTIC_BASES)
    if rng is None:
        rng = random.Random()
    for _ in range(rounds):
        base = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, base):
            return False
    return True


def generate_prime(bits: int, rng: random.Random, max_attempts: int = 100_000) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    :param bits: bit length, at least 8.
    :param rng: seeded randomness source (reproducibility contract: the
        same rng state always yields the same prime).
    :raises KeyGenerationError: if no prime is found within the attempt
        budget (astronomically unlikely for sane ``bits``).
    """
    if bits < 8:
        raise KeyGenerationError(f"prime bit length must be >= 8, got {bits}")
    for _ in range(max_attempts):
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force exact bit length and oddness
        if is_probable_prime(candidate, rng):
            return candidate
    raise KeyGenerationError(f"no {bits}-bit prime found in {max_attempts} attempts")


def modinv(a: int, modulus: int) -> int:
    """Modular inverse of ``a`` modulo ``modulus``.

    :raises KeyGenerationError: if the inverse does not exist.
    """
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise KeyGenerationError(f"{a} is not invertible modulo {modulus}") from None


class FixedBaseComb:
    """Lim-Lee comb: ``base**e % modulus`` for one fixed ``base``.

    A ``bits``-bit exponent is cut into ``teeth`` blocks of ``width`` bits and
    ``_table[j]`` holds the product of ``base**(2**(i*width))`` over the set
    bits ``i`` of ``j``, so a power costs ``width`` squarings and ``width``
    table multiplications (``~2*bits/teeth``) where ``pow`` needs ``~1.2*bits``.
    Its ``2**teeth`` entries are cheap enough to build per public key; a base
    that is one constant per process takes :class:`FixedBaseTable` instead.
    """

    def __init__(self, base: int, modulus: int, bits: int, teeth: int) -> None:
        self._modulus, self._bits = modulus, bits
        self._width = width = -(-bits // teeth)
        self._format = f"0{width * teeth}b"
        powers = [base % modulus]
        for _ in range(teeth - 1):
            powers.append(pow(powers[-1], 1 << width, modulus))
        self._table = table = [1] * (1 << teeth)
        for j in range(1, len(table)):
            low = j & -j
            table[j] = table[j ^ low] * powers[low.bit_length() - 1] % modulus

    def pow(self, exponent: int) -> int:
        """``base**exponent % modulus``; ``ValueError`` outside ``[0, 2**bits)``."""
        if exponent < 0 or exponent >> self._bits:  # never truncate silently
            raise ValueError(f"exponent outside [0, 2**{self._bits})")
        width, modulus, table = self._width, self._modulus, self._table
        columns = format(exponent, self._format)  # column k = one bit per block
        acc = 1
        for k in range(width):
            acc = acc * acc % modulus * table[int(columns[k::width], 2)] % modulus
        return acc


class FixedBaseTable:
    """Per-byte windowing (Brickell-Gordon-McCurley-Wilson): ``base**e % modulus``
    for one fixed ``base`` with no squaring at all.

    ``_rows[i][d]`` is ``base**(d * 256**i)``, so a power is one table
    multiplication per non-zero byte of the exponent (at most ``ceil(bits/8)``).
    Each of the ``ceil(bits/8)`` rows costs 256 entries and 255 multiplications
    to build, which only a base that is one constant per process (a group
    generator) repays; a per-key base keeps the smaller :class:`FixedBaseComb`.
    """

    def __init__(self, base: int, modulus: int, bits: int) -> None:
        self._modulus, self._bits = modulus, bits
        self._rows: list[list[int]] = []
        step = base % modulus  # base**(256**i)
        for _ in range(-(-bits // 8)):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * step % modulus)
            self._rows.append(row)
            step = row[-1] * step % modulus

    def pow(self, exponent: int) -> int:
        """``base**exponent % modulus``: one multiplication per non-zero
        exponent byte; ``ValueError`` outside ``[0, 2**bits)``."""
        if exponent < 0 or exponent >> self._bits:  # never truncate silently
            raise ValueError(f"exponent outside [0, 2**{self._bits})")
        modulus, rows = self._modulus, self._rows
        acc = 1
        for row, digit in zip(rows, exponent.to_bytes(len(rows), "little")):
            if digit:
                acc = acc * row[digit] % modulus
        return acc


def generate_schnorr_group(
    p_bits: int, q_bits: int, rng: random.Random, max_attempts: int = 100_000
) -> tuple[int, int, int]:
    """Generate Schnorr/DSA-style group parameters ``(p, q, g)``.

    ``q`` is a ``q_bits`` prime, ``p = q*k + 1`` is a ``p_bits`` prime, and
    ``g`` generates the order-``q`` subgroup of ``Z_p^*``.

    :raises KeyGenerationError: if parameters cannot be found in budget.
    """
    if q_bits >= p_bits:
        raise KeyGenerationError(f"need q_bits < p_bits, got {q_bits} >= {p_bits}")
    q = generate_prime(q_bits, rng)
    for _ in range(max_attempts):
        k = rng.getrandbits(p_bits - q_bits)
        k |= 1 << (p_bits - q_bits - 1)
        k &= ~1  # even k keeps p odd
        p = q * k + 1
        if p.bit_length() != p_bits or not is_probable_prime(p, rng):
            continue
        # Any h with h^((p-1)/q) != 1 yields a generator of the q-subgroup.
        for _ in range(64):
            h = rng.randrange(2, p - 1)
            g = pow(h, (p - 1) // q, p)
            if g != 1:
                return p, q, g
    raise KeyGenerationError(
        f"no Schnorr group with p_bits={p_bits}, q_bits={q_bits} found"
    )
