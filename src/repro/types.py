"""Shared primitive types and model-level helpers.

The paper's model of computation (its section 2) is a fully interconnected
synchronous network of ``n`` nodes.  Nodes are identified by integers
``0 .. n-1`` throughout this library, matching the paper's ``P_0 .. P_{n-1}``
as normalised from the scanned text (OCR drops or garbles the subscripts).
"""

from __future__ import annotations

from .errors import ConfigurationError

# A node identifier.  Plain ``int`` by design: ids index arrays and range()
# everywhere in the simulator, and a wrapper class would buy nothing.
NodeId = int

# A round number, starting at 0 for the first communication step of a run.
Round = int


def validate_node_count(n: int) -> None:
    """Validate a network size.

    The paper's model needs at least two nodes (there must be a sender and a
    receiver for any message to exist).

    :raises ConfigurationError: if ``n`` is not an ``int >= 2``.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigurationError(f"node count must be an int, got {n!r}")
    if n < 2:
        raise ConfigurationError(f"node count must be >= 2, got {n}")


def validate_fault_budget(t: int, n: int) -> None:
    """Validate a fault budget ``t`` for a network of ``n`` nodes.

    Local authentication itself tolerates an *arbitrary* number of faults
    (that is the paper's point), but the Failure Discovery chain protocol of
    paper Fig. 2 is parameterised by the number of tolerated faults ``t``
    and needs the chain ``P_1 .. P_t`` plus the sender to fit in the
    network: ``0 <= t <= n - 2``.
    """
    validate_node_count(n)
    if not isinstance(t, int) or isinstance(t, bool):
        raise ConfigurationError(f"fault budget must be an int, got {t!r}")
    if not 0 <= t <= n - 2:
        raise ConfigurationError(
            f"fault budget t={t} must satisfy 0 <= t <= n-2 (n={n})"
        )


def default_fault_budget(n: int) -> int:
    """The conventional Byzantine budget ``t = floor((n - 1) / 3)``.

    The paper's protocols do not require ``n > 3t`` (signed protocols
    tolerate any ``t < n - 1``), but the classical constant-fraction budget
    is what its O(n*t) = O(n^2) comparison assumes, so sweeps default to it.
    """
    validate_node_count(n)
    return (n - 1) // 3
