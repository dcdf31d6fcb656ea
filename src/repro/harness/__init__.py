"""Experiment harness: scenario runner, attack catalogue, sweeps."""

from .parallel import sweep_prefix_shared
from .runner import (
    GLOBAL,
    LOCAL,
    ScenarioOutcome,
    run_ba_scenario,
    run_fd_scenario,
    setup_authentication,
)
from .scenarios import AttackScenario, attack_catalogue
from .session import AmortizedSession, LedgerEntry
from .sweep import (
    SweepPoint,
    grid,
    set_default_workers,
    sizes_with_budgets,
    standard_sizes,
    sweep,
)
from .workloads import available_workloads, get_workload

__all__ = [
    "available_workloads",
    "get_workload",
    "AmortizedSession",
    "AttackScenario",
    "GLOBAL",
    "LedgerEntry",
    "LOCAL",
    "ScenarioOutcome",
    "SweepPoint",
    "attack_catalogue",
    "grid",
    "run_ba_scenario",
    "run_fd_scenario",
    "set_default_workers",
    "setup_authentication",
    "sizes_with_budgets",
    "standard_sizes",
    "sweep",
    "sweep_prefix_shared",
]
