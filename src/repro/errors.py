"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything originating here with a single ``except`` clause.  Each
subsystem has its own subtree; protocol implementations never let foreign
exceptions (``KeyError``, ``ValueError`` from stdlib internals) escape to the
simulator loop.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment, protocol or scheme was configured inconsistently.

    Examples: ``n < 2`` nodes, a fault budget ``t`` that exceeds ``n``,
    a sender id outside ``range(n)``, or an unknown signature scheme name.
    """


class EncodingError(ReproError):
    """Canonical encoding or decoding of a wire value failed."""


class DecodingError(EncodingError):
    """The byte stream is not a valid canonical encoding."""


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class KeyGenerationError(CryptoError):
    """Key material could not be generated (e.g. no prime found)."""


class SigningError(CryptoError):
    """A message could not be signed with the given secret key."""


class UnknownSchemeError(CryptoError):
    """A signature scheme name is not present in the scheme registry."""


class ChainStructureError(CryptoError):
    """A chain-signed message is structurally malformed.

    Raised when parsing, not when verification merely *fails*; a failing
    verification is an expected outcome and is reported through a verdict
    object rather than an exception.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class ProtocolViolationError(SimulationError):
    """A protocol implementation broke the simulator's contract.

    For instance sending messages after halting, or addressing a node id
    outside the network.  This indicates a bug in protocol code, *not* a
    simulated Byzantine fault: Byzantine behaviour is expressed through the
    :mod:`repro.faults` behaviours, which stay within the contract.
    """
