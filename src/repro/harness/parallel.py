"""Process-parallel sweep execution.

Benchmark sweeps are embarrassingly parallel: every point carries its own
parameters *and its own seed*, so points share no state and their results
are independent of execution order.  :func:`sweep_parallel` exploits that
with a :class:`~concurrent.futures.ProcessPoolExecutor`, while preserving
the serial sweep's two contracts exactly:

* **order** — results come back in point order (``executor.map`` keeps
  input order regardless of completion order);
* **determinism** — each point's result is a pure function of its params
  (seeds travel with the points), so a parallel sweep is value-identical
  to a serial one.  ``tests/harness/test_parallel.py`` enforces this.

Registry dispatch: a workload *name* (see
:mod:`repro.harness.workloads`) is the preferred ``fn`` — the name is
what gets pickled.  The E1–E11 suites all dispatch by name.

Every executor here maps its jobs through one pool map.  With more than
one worker and more than one job, the jobs cross the process boundary:
an unpicklable callable or parameter (a lambda, a closure, an adversary
spec with in-process overrides) raises the pool's pickling error and no
job runs.  A single worker or job, and a host where process pools cannot
start (a sandbox without semaphore support), run the jobs in-process
through :func:`~repro.harness.sweep.sweep`.  Parallelism is an executor
choice, never a semantics choice.

Instance sharding
-----------------
:func:`run_mux_shards` is the second executor in this module: where
``sweep_parallel`` fans out *independent parameter points*, the mux
shard executor fans out *the K instances of one logical run*
(:mod:`repro.sim.multiplex`).  It partitions the instance ids into
contiguous shards, runs ``fn(instances=shard, **params)`` per shard
through the same pool map, and merges the per-instance results.  Causal
independence of the instances (per-instance wire tags + namespaced rng
streams) makes every shard's per-instance decisions and counts
bit-for-bit identical to the unsharded run, so merging is a disjoint
dict union; the sharding property tests enforce that equivalence under
random Byzantine behaviour.
"""

from __future__ import annotations

import inspect
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import ConfigurationError
from ..sim import KernelSnapshot
from .sweep import SweepPoint, sweep

#: Process-wide default worker count; ``None`` means "one per CPU".
#: Configured by the benchmark suite's ``--sweep-workers`` option.
_DEFAULT_WORKERS: int | None = 1


def set_default_workers(workers: int | None) -> None:
    """Set the worker count the executors use when not given one.

    ``1`` (the initial default) means serial; ``None`` means one worker
    per CPU.
    """
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = workers


def default_workers() -> int | None:
    """The currently configured default worker count."""
    return _DEFAULT_WORKERS


def _workers(workers: int | None) -> int:
    """An explicit worker count, else the configured default, else one
    per CPU."""
    if workers is None:
        workers = _DEFAULT_WORKERS
    if workers is None:
        workers = os.cpu_count() or 1
    return workers


def _apply(item: tuple[str | Callable[..., Any], dict[str, Any]]) -> Any:
    """Worker-side shim: unpack one (fn-or-name, params) job."""
    fn, params = item
    if isinstance(fn, str):
        from .workloads import resolve_workload

        fn = resolve_workload(fn)
    return fn(**params)


def _map(
    fn: str | Callable[..., Any], jobs: list[dict[str, Any]], workers: int | None
) -> list[Any]:
    """``fn(**job)`` for every job, in job order.

    Pooled when more than one worker and job are at hand; a pickling
    failure there propagates.  In-process otherwise, and where no pool
    can start.
    """
    workers = min(_workers(workers), len(jobs))
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_apply, [(fn, job) for job in jobs]))
        except (OSError, PermissionError, BrokenProcessPool):
            # No process support (sandbox) or a worker died: the serial path
            # computes the identical answer, just slower.
            pass
    return [point.result for point in sweep(jobs, fn)]


def sweep_parallel(
    points: Iterable[dict[str, Any]],
    fn: str | Callable[..., Any],
    workers: int | None = None,
) -> list[SweepPoint]:
    """Apply ``fn(**params)`` to every point across worker processes.

    Drop-in replacement for :func:`~repro.harness.sweep.sweep`: same
    signature plus ``workers``, same result order, same values.

    :param points: parameter dicts; seeds must travel inside the points
        (anything the point function needs beyond its params would break
        the determinism contract).
    :param fn: a registered workload name (preferred — always picklable)
        or a picklable callable.
    :param workers: process count; ``None`` defers to the configured
        default (see :func:`set_default_workers`), which itself defaults
        to serial.
    :raises pickle.PicklingError: (or the interpreter's equivalent) with
        two or more workers, when ``fn`` or a point cannot be pickled.
    """
    pts = [dict(p) for p in points]
    return [
        SweepPoint(params=p, result=r) for p, r in zip(pts, _map(fn, pts, workers))
    ]


def sweep_prefix_shared(
    points: Iterable[dict[str, Any]],
    fn: str | Callable[..., Any],
    *,
    prefix: dict[str, Any],
    prefix_ticks: int,
    workers: int | None = None,
    on_snapshot: Callable[[KernelSnapshot], None] | None = None,
) -> list[SweepPoint]:
    """Warm-started sweep: run the shared prefix once, fork it per point.

    Sweeps whose points differ only in parameters the protocols declare
    *tunable* (:attr:`repro.sim.node.Protocol.tunable` — e.g. the
    timeout-FD deadline, never read before it fires) share an identical
    execution prefix: every fork's straight run passes through the exact
    same kernel state at the checkpoint tick.  This executor exploits
    that — it runs ``fn(**prefix, checkpoint_at=prefix_ticks)`` once in
    the parent process, takes the returned
    :class:`~repro.sim.snapshot.KernelSnapshot`, and fans the points out
    with ``resume_from=snapshot`` through the same pool map as
    :func:`sweep_parallel` (snapshots are plain bytes, so forks cross the
    process pool unchanged).  Each fork resumes the shared state, retunes
    its swept parameters (:func:`~repro.sim.snapshot.retune_protocols`),
    and runs only the suffix.  Results are bit-for-bit identical to the
    straight sweep — the resume property tests and the benchmark count
    gates enforce it.

    The *caller* owns the validity contract: the prefix params must pin
    every tuned axis wide enough that no protocol acts on it before
    ``prefix_ticks`` (e.g. a prefix ``timeout`` beyond the checkpoint
    tick), and each point must repeat the scenario-identity params
    (``n``, ``t``, ``seed``, delivery, adversary) verbatim — the resume
    path fail-fasts on any mismatch with the snapshot's fingerprint.

    :param points: parameter dicts for the forks, straight-sweep form
        (the executor adds ``resume_from`` to each job; the returned
        :class:`SweepPoint` params are the caller's points).
    :param fn: registered workload name or callable; must accept both
        ``checkpoint_at`` and ``resume_from`` keyword parameters.
    :param prefix: params for the shared-prefix run.
    :param prefix_ticks: tick to checkpoint the prefix at; the prefix
        run must still be live there (the scenario runner raises
        otherwise).
    :param workers: fan-out process count, as in :func:`sweep_parallel`.
    :param on_snapshot: observer called once with the shared prefix
        snapshot before the fan-out — how the benchmark suite records
        the snapshot size without a second prefix run.
    :raises ConfigurationError: non-positive ``prefix_ticks``, a
        workload without the checkpoint/resume parameters, or a prefix
        run that returned a result instead of a snapshot.
    """
    if prefix_ticks < 1:
        raise ConfigurationError(
            f"prefix_ticks must be a positive tick count, got {prefix_ticks}"
        )
    resolved = fn
    if isinstance(resolved, str):
        from .workloads import resolve_workload

        resolved = resolve_workload(resolved)
    accepted = inspect.signature(resolved).parameters
    missing = [k for k in ("checkpoint_at", "resume_from") if k not in accepted]
    if missing:
        name = getattr(resolved, "__qualname__", None) or repr(resolved)
        raise ConfigurationError(
            f"workload {name!r} does not accept {missing} — only workloads "
            "with checkpoint/resume support can run prefix-shared sweeps"
        )
    snapshot = resolved(**prefix, checkpoint_at=prefix_ticks)
    if not isinstance(snapshot, KernelSnapshot):
        raise ConfigurationError(
            f"prefix run returned {type(snapshot).__name__}, not a "
            "KernelSnapshot — the workload must return the checkpoint "
            "when called with checkpoint_at"
        )
    if on_snapshot is not None:
        on_snapshot(snapshot)
    pts = [dict(p) for p in points]
    results = _map(fn, [{**p, "resume_from": snapshot} for p in pts], workers)
    return [SweepPoint(params=p, result=r) for p, r in zip(pts, results)]


def shard_instances(
    instances: Sequence[int], shards: int
) -> list[tuple[int, ...]]:
    """Partition instance ids into contiguous, near-equal shards.

    Deterministic: ids keep their given order, sizes differ by at most
    one, earlier shards take the remainder.  At most ``len(instances)``
    shards are produced (never an empty shard).
    """
    ids = list(instances)
    if not ids:
        return []
    shards = max(1, min(shards, len(ids)))
    base, extra = divmod(len(ids), shards)
    out: list[tuple[int, ...]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(tuple(ids[start : start + size]))
        start += size
    return out


def run_mux_shards(
    fn: str | Callable[..., Mapping[int, Any]],
    params: dict[str, Any],
    instances: Sequence[int],
    workers: int | None = None,
) -> dict[int, Any]:
    """Pipelined instance-shard executor for multiplexed runs.

    Splits ``instances`` into up to ``workers`` contiguous shards and
    evaluates ``fn(instances=shard, **params)`` for each — the function
    must run its shard as a self-contained simulation (all n nodes, the
    shard's instances only) and return a per-instance mapping, e.g. the
    ``akd-shard`` workload returning
    :class:`~repro.sim.multiplex.InstanceAggregate` objects.  Results
    merge by disjoint union in instance-id order; because instance
    streams are causally independent, the merged map is bit-for-bit the
    unsharded run's (the property tests enforce this).

    :param fn: registered workload name (preferred) or picklable callable.
    :param params: the run's parameters, shards included verbatim in each
        job (seed travels here — the determinism contract).
    :param workers: shard/process count; ``None`` defers to the
        configured default (see :func:`set_default_workers`).
    :raises ValueError: if a shard result claims an instance outside its
        shard or two shards claim the same instance.
    """
    from ..sim.multiplex import merge_instance_aggregates

    shards = shard_instances(instances, max(1, _workers(workers)))
    results = _map(fn, [{**params, "instances": shard} for shard in shards], workers)
    for shard, result in zip(shards, results):
        foreign = set(result) - set(shard)
        if foreign:
            raise ValueError(
                f"shard {shard} returned foreign instances {sorted(foreign)}"
            )
    return merge_instance_aggregates(results)
