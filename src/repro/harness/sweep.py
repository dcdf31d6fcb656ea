"""Parameter sweeps: the loops behind every benchmark series, and their
one executor.

A sweep is a list of parameter points and a function applied to each,
with results collected in point order so benchmark output is stable
across runs.  Points are embarrassingly parallel: every point carries its
own parameters *and its own seed*, so points share no state and their
results are independent of execution order.  :func:`sweep` runs them
serially by default and over a
:class:`~concurrent.futures.ProcessPoolExecutor` when given (or
configured with, see :func:`set_default_workers`) more than one worker,
keeping two contracts either way:

* **order** — results come back in point order (``executor.map`` keeps
  input order regardless of completion order);
* **determinism** — each point's result is a pure function of its params,
  so a pooled sweep is value-identical to a serial one.
  ``tests/harness/test_parallel.py`` enforces this.

With more than one worker and more than one point, the jobs cross the
process boundary: an unpicklable callable or parameter (a lambda, a
closure, an adversary spec with in-process overrides) raises the pool's
pickling error and no job runs.  A registered workload *name* (see
:mod:`repro.harness.workloads`) is always picklable, which is why the
benchmark suites dispatch by name.  A single worker or point, and a host
where process pools cannot start (a sandbox without semaphore support),
run in-process.  Parallelism is an executor choice, never a semantics
choice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Sequence

from ..types import default_fault_budget
from .workloads import get_workload

#: Process-wide default worker count; ``None`` means "one per CPU".
#: Configured by the benchmark suite's ``--sweep-workers`` option.
_DEFAULT_WORKERS: int | None = 1


@dataclass(frozen=True)
class SweepPoint:
    """One parameter point and its measurement."""

    params: dict[str, Any]
    result: Any


def grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes, in axis-order-major sequence.

    >>> grid(n=[4, 8], seed=[0, 1])
    [{'n': 4, 'seed': 0}, {'n': 4, 'seed': 1}, {'n': 8, 'seed': 0}, {'n': 8, 'seed': 1}]
    """
    names = list(axes)
    return [
        dict(zip(names, combo)) for combo in product(*(axes[name] for name in names))
    ]


def set_default_workers(workers: int | None) -> None:
    """Set the worker count :func:`sweep` uses when not given one.

    ``1`` (the initial default) means serial; ``None`` means one worker
    per CPU.
    """
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = workers


def _apply(item: tuple[str | Callable[..., Any], dict[str, Any]]) -> Any:
    """Worker-side shim: unpack one (fn-or-name, params) job."""
    fn, params = item
    return get_workload(fn)(**params)


def sweep(
    points: Iterable[dict[str, Any]],
    fn: str | Callable[..., Any],
    workers: int | None = None,
) -> list[SweepPoint]:
    """Apply ``fn(**params)`` to every point, collecting results in order.

    :param points: parameter dicts; seeds must travel inside the points
        (anything the point function needs beyond its params would break
        the determinism contract).
    :param fn: a registered workload name (preferred — always picklable)
        or a callable, picklable if the sweep is pooled.
    :param workers: process count; ``None`` defers to the configured
        default (see :func:`set_default_workers`), which itself defaults
        to serial.
    :raises pickle.PicklingError: (or the interpreter's equivalent) with
        two or more workers and points, when ``fn`` or a point cannot be
        pickled.
    """
    pts = [dict(p) for p in points]
    if workers is None:
        workers = _DEFAULT_WORKERS
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(pts))
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, socket and
        # subprocess, which a serial sweep never needs.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_apply, [(fn, p) for p in pts]))
            return [SweepPoint(params=p, result=r) for p, r in zip(pts, results)]
        except (OSError, BrokenProcessPool):
            # No process support (sandbox) or a worker died: the serial path
            # computes the identical answer, just slower.
            pass
    fn = get_workload(fn)
    return [SweepPoint(params=p, result=fn(**p)) for p in pts]


def standard_sizes(small: bool = False) -> list[int]:
    """Network sizes used across the experiment suite.

    :param small: trimmed list for quick runs / CI.
    """
    return [4, 8, 16] if small else [4, 8, 16, 32, 64]


def sizes_with_budgets(sizes: Iterable[int]) -> list[tuple[int, int]]:
    """``(n, t)`` pairs with the conventional budget ``t = (n-1)//3``."""
    return [(n, default_fault_budget(n)) for n in sizes]
