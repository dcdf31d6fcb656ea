"""Warm-started sweeps: run a shared execution prefix once, fork it per
point.

The forks fan out through :func:`~repro.harness.sweep.sweep`, the one
sweep executor, so they run serially or pooled exactly as a plain sweep
of the same points would (snapshots are plain bytes, so forks cross the
process pool unchanged).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError
from ..sim import KernelSnapshot
from .sweep import SweepPoint, sweep
from .workloads import get_workload


def sweep_prefix_shared(
    points: Iterable[dict[str, Any]],
    fn: str | Callable[..., Any],
    *,
    prefix: dict[str, Any],
    prefix_ticks: int,
    workers: int | None = None,
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
    with ``resume_from=snapshot`` through
    :func:`~repro.harness.sweep.sweep`.  Each fork resumes the shared
    state, retunes its swept parameters
    (:func:`~repro.sim.snapshot.retune_protocols`), and runs only the
    suffix.  Results are bit-for-bit identical to the
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
    :param workers: fan-out process count, as in
        :func:`~repro.harness.sweep.sweep`.
    :raises ConfigurationError: non-positive ``prefix_ticks``, a
        workload without the checkpoint/resume parameters, or a prefix
        run that returned a result instead of a snapshot.
    """
    if prefix_ticks < 1:
        raise ConfigurationError(
            f"prefix_ticks must be a positive tick count, got {prefix_ticks}"
        )
    resolved = get_workload(fn)
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
    pts = [dict(p) for p in points]
    forks = sweep([{**p, "resume_from": snapshot} for p in pts], fn, workers)
    return [SweepPoint(params=p, result=fork.result) for p, fork in zip(pts, forks)]

