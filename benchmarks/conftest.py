"""Shared benchmark infrastructure.

Every benchmark prints a paper-style table (claim vs measured) through
``report`` — a helper that bypasses pytest's capture so the tables appear
in ``pytest benchmarks/ --benchmark-only`` output, which EXPERIMENTS.md
quotes verbatim.

Protocol sweeps default to the HMAC simulation scheme: the measured
quantities are message/round/byte *counts*, which are scheme-independent
(benchmark E10 verifies exactly that), and the simulation scheme keeps the
n=64 sweeps fast.

Parallel sweeps
---------------
``pytest benchmarks/ --sweep-workers=N`` fans *every* E1–E11 sweep out
over N worker processes via :func:`repro.harness.parallel.sweep_parallel`.
The default (1) runs serially; either way the results are identical —
every point carries its own seed, so parallelism is an executor choice,
not a semantics choice.  Sweeps go through the ``psweep`` fixture and
dispatch by *registered workload name* (see
:mod:`repro.harness.workloads`), so the jobs are always picklable and a
parallel run can never silently degrade to the serial fallback.
"""

from __future__ import annotations

import pytest

from repro.harness import set_default_workers, sweep_parallel

# The scheme count-measuring sweeps use (see module docstring); the bench
# files import it from here under this name.
from repro.harness.workloads import COUNT_SCHEME as SWEEP_SCHEME


def pytest_addoption(parser):
    parser.addoption(
        "--sweep-workers",
        action="store",
        type=int,
        default=1,
        help="worker processes for benchmark sweeps (1 = serial, "
        "0 = one per CPU)",
    )


@pytest.fixture(scope="session", autouse=True)
def sweep_workers(request):
    """Install the configured worker count as the sweep default."""
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

    def _run(points, fn):
        return sweep_parallel(points, fn)

    return _run


@pytest.fixture
def report(capsys):
    """Print ``text`` past pytest's capture (once per call, framed)."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print


def once(benchmark, fn):
    """Run a sweep exactly once under the benchmark fixture.

    The sweep tests measure *counts*, not time; wrapping them in a
    single-round pedantic benchmark keeps them part of the
    ``--benchmark-only`` run (so every experiment table is regenerated by
    the one command EXPERIMENTS.md documents) while recording a coarse
    wall-clock for the whole sweep as a bonus.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
