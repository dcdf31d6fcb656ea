"""Analytic layer: closed-form complexity, amortization, report rendering."""

from .amortization import (
    AmortizationCurve,
    AmortizationPoint,
    amortization_curve,
)
from .complexity import (
    amortized_messages_local,
    amortized_messages_nonauth,
    crossover_runs,
    extension_messages,
    fd_auth_messages,
    fd_auth_rounds,
    fd_nonauth_messages,
    fd_nonauth_rounds,
    keydist_messages,
    keydist_rounds,
    om_collapsed_reports,
    om_envelopes,
    om_reports,
    sm_messages,
    smallrange_messages,
)
from .experiments import ExperimentTable, run_all as run_all_experiments
from .reporting import check_mark, render_table

__all__ = [
    "AmortizationCurve",
    "AmortizationPoint",
    "amortization_curve",
    "amortized_messages_local",
    "amortized_messages_nonauth",
    "check_mark",
    "crossover_runs",
    "ExperimentTable",
    "run_all_experiments",
    "extension_messages",
    "fd_auth_messages",
    "fd_auth_rounds",
    "fd_nonauth_messages",
    "fd_nonauth_rounds",
    "keydist_messages",
    "keydist_rounds",
    "om_collapsed_reports",
    "om_envelopes",
    "om_reports",
    "render_table",
    "sm_messages",
    "smallrange_messages",
]
