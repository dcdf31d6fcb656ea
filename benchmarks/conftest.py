"""Shared benchmark infrastructure.

Every benchmark prints a paper-style table (claim vs measured) through
``report`` — a helper that bypasses pytest's capture so the tables appear
in ``pytest benchmarks/`` output.  README's "Experiment index" maps each
experiment to its file and, where one exists, to the
:mod:`repro.analysis.experiments` table the test prints: those tests
print that table at the suite's sizes and assert its verdict, so a claim
is gated in the one place ``repro-fd report`` also reads.

The suites measure counts, never time: wall-clock, throughput and memory
belong to ``benchmarks/e2e/``.  Every workload defaults to the HMAC
simulation scheme, because message/round/byte *counts* are
scheme-independent (benchmark E10 verifies exactly that).

Parallel sweeps
---------------
``pytest benchmarks/ --sweep-workers=N`` fans every sweep out over N
worker processes via :func:`repro.harness.sweep.sweep`, the one sweep
executor — the ``psweep`` fixture's and the experiment tables' alike.
The default (1) runs serially; either way the results are identical —
every point carries its own seed, so parallelism is an executor choice,
not a semantics choice.  Sweeps dispatch by *registered workload name* (see
:mod:`repro.harness.workloads`), so the jobs are always picklable: a
parallel run never hits the pickling error an unpicklable job raises.
"""

from __future__ import annotations

import pytest

from repro.harness import set_default_workers, sweep


def pytest_addoption(parser):
    parser.addoption(
        "--sweep-workers",
        action="store",
        type=int,
        default=1,
        help="worker processes for benchmark sweeps (1 = serial, "
        "0 = one per CPU)",
    )


@pytest.fixture(autouse=True)
def sweep_workers(request):
    """Install the configured worker count as the sweep default for one
    benchmark test.  Per test, not per session: ``sweep`` follows the
    default, so a session-long install would also pool the ``tests/``
    sweeps that run later in the same session."""
    workers = request.config.getoption("--sweep-workers")
    set_default_workers(None if workers == 0 else workers)
    yield workers
    set_default_workers(1)


@pytest.fixture
def psweep(sweep_workers):
    """Run a (possibly parallel) sweep: ``psweep(points, fn)``.

    ``fn`` is a registered workload name (preferred) or a picklable
    module-level point function (see :mod:`repro.harness.workloads`);
    results come back in point order regardless of the worker count.
    """
    return sweep


@pytest.fixture
def report(capsys):
    """Print ``text`` past pytest's capture (once per call, framed)."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print
