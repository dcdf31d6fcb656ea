"""Amortization of the key distribution cost over repeated FD runs.

The paper's bottom line (Summary): the one-time 3·n·(n−1)-message key
distribution buys every subsequent Failure Discovery run down from
O(n·t) messages to n−1.  This module turns that into curves and a
crossover point — the series behind experiment E4.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..types import validate_fault_budget
from . import complexity


@dataclass(frozen=True)
class AmortizationPoint:
    """Cumulative totals after ``runs`` FD instances."""

    runs: int
    local_auth_total: int       # keydist once + runs * (n-1)
    nonauth_total: int          # runs * (t+1)(n-1)

    @property
    def local_wins(self) -> bool:
        return self.local_auth_total < self.nonauth_total


@dataclass(frozen=True)
class AmortizationCurve:
    """The two cumulative cost curves and their crossover."""

    n: int
    t: int
    points: tuple[AmortizationPoint, ...]

    def crossover(self) -> int | None:
        """First run count where local authentication is strictly cheaper,
        or None if it never happens within the computed range."""
        for point in self.points:
            if point.local_wins:
                return point.runs
        return None


def amortization_curve(n: int, t: int, max_runs: int) -> AmortizationCurve:
    """Cumulative message cost curves for ``1 .. max_runs`` FD instances.

    :param n: network size.
    :param t: fault budget (must be >= 1 for a crossover to exist).
    :param max_runs: last run count to include.
    """
    validate_fault_budget(t, n)
    if max_runs < 1:
        raise ValueError(f"max_runs must be >= 1, got {max_runs}")
    points = tuple(
        AmortizationPoint(
            runs=runs,
            local_auth_total=complexity.amortized_messages_local(n, t, runs),
            nonauth_total=complexity.amortized_messages_nonauth(n, t, runs),
        )
        for runs in range(1, max_runs + 1)
    )
    return AmortizationCurve(n=n, t=t, points=points)
