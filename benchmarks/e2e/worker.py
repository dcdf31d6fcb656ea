"""One workload in one process: set-up, warm-up, timed operations, trace.

``run.py`` starts this module in a fresh interpreter per measurement
(``python -m e2e.worker``), so set-up cost, peak memory and the
process-wide caches of one workload never leak into another; the tier-1
smoke test calls :func:`measure` in-process at ``tiny`` scale.  Closed
loop, one operation at a time, one thread.

The phases of one process:

1. **set-up** — interpreter start, ``import repro.harness``, then one
   *warm-up* operation on the ledger's seed, which fills the structural
   caches (EIG path tables, codec memos) and is checked against
   ``BENCH_8.json``.  ``ready_at`` marks its end.
2. **timed operations** (tracing off) — repeat ``i`` runs on its own
   master seed derived from ``(--seed, workload, i)``.  A repeated seed
   would let ``crypto.signing.cached_verify`` answer from its process-wide
   memo: the paper's pipeline reads 0.50 s that way and 1.05 s on fresh
   seeds.
3. **traced operations** (``trace=True`` only) — on fresh seeds of their
   own for the same reason, after a *fixed* number of untraced ones so the
   memo state, and with it every count, repeats exactly; then one untraced
   twin of the first traced operation, whose counts must be equal —
   observation must not change the run.
"""

from __future__ import annotations

import time

_ENTERED = time.perf_counter()

import repro.harness  # timed: part of every workload's set-up

IMPORT_S = time.perf_counter() - _ENTERED

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from typing import Any

from . import oracle, trace
from .workloads import BY_NAME, Outcome, Workload, straight_sweep

#: Fewest timed operations a measurement may rest on.
MIN_OPS = 7
#: Untraced operations before the first traced one (fixed, see module doc).
UNTRACED_BEFORE_TRACE = 3
#: ``ru_maxrss`` is KiB on Linux.
_KIB_PER_MIB = 1024


class _Run:
    """The operations attempted so far and what went wrong with them."""

    def __init__(self, workload: Workload, scale: str, seed: int) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.params = workload.params(scale)
        self.attempted = 0
        self.failures: list[str] = []

    def operate(
        self,
        label: str,
        master_seed: Any,
        operation=None,
        tracer: trace.Tracer | None = None,
    ) -> tuple[Outcome | None, float]:
        """Run one operation (as ``tracer``'s root span, if given);
        return its outcome (``None`` if it raised or failed the
        seed-independent checks) and its duration."""
        operation = operation or self.workload.operation
        self.attempted += 1
        gc.collect()  # every operation starts from a collected heap
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = operation(master_seed, **self.params)
            else:
                outcome = tracer.call(operation, master_seed, **self.params)
        except Exception:
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if self.check(label, oracle.check_outcome(self.workload, self.scale, outcome)):
            return outcome, elapsed
        return None, elapsed

    def check(self, label: str, problems: list[str]) -> bool:
        """Record ``problems`` against the operation ``label``."""
        self.failures += [f"{label}: {problem}" for problem in problems]
        return not problems


def measure(
    name: str,
    *,
    seed: int = 0,
    scale: str = "full",
    seconds: float = 10.0,
    repeats: int | None = None,
    traced: bool = False,
    setup_only: bool = False,
    entered: float | None = None,
) -> dict[str, Any]:
    """Measure one workload in this process.

    :param seconds: how long the timed (or, with ``traced``, the traced)
        operations are repeated; at least :data:`MIN_OPS` timed ones run
        regardless.
    :param repeats: run exactly this many timed operations and one traced
        one instead (the smoke test's ``R = 1``).
    :param traced: measure the per-layer metrics instead of the
        end-to-end ones.
    :param setup_only: stop after the warm-up — one more sample of
        ``setup_s`` for the parent's median.
    :param entered: when this process began the set-up
        (``time.perf_counter()``); defaults to now.
    """
    entered = time.perf_counter() if entered is None else entered
    workload = BY_NAME[name]
    run = _Run(workload, scale, seed)
    report: dict[str, Any] = {"workload": name, "scale": scale, "seed": seed}

    warm_up, _ = run.operate("warm-up", run.params["n"])
    if warm_up is not None:
        run.check("warm-up", oracle.check_ledger(workload, scale, warm_up))
    report["ready_at"] = time.perf_counter()
    report["setup_s"] = report["ready_at"] - entered

    if not setup_only:
        fixed = repeats if repeats is not None else (UNTRACED_BEFORE_TRACE if traced else None)
        outcomes, run_s = _timed_operations(run, seconds, fixed)
        if run_s:
            report["end_to_end"] = _end_to_end(outcomes, run_s)
        if traced and run_s:
            budget = None if repeats is not None else seconds
            report.update(_traced_operations(run, budget, statistics.median(run_s)))
        elif outcomes and name == "warm-sweep":
            # Resume must equal a straight run: sweep repeat 0's points
            # again from tick zero (after the timing, so its cost and
            # memory stay out of every metric).
            straight, _ = run.operate(
                "straight sweep", oracle.op_seed(seed, name, 0), straight_sweep
            )
            if straight is not None:
                run.check(
                    "straight sweep",
                    oracle.same_counts("warm sweep", straight.counts, outcomes[0].counts),
                )

    report["attempted"] = run.attempted
    report["failed"] = len({failure.partition(":")[0] for failure in run.failures})
    report["failures"] = run.failures
    return report


def _timed_operations(
    run: _Run, seconds: float, fixed: int | None
) -> tuple[list[Outcome], list[float]]:
    """Timed repeats, tracing off: ``fixed`` of them, or for ``seconds``
    (and at least :data:`MIN_OPS`)."""
    outcomes: list[Outcome] = []
    run_s: list[float] = []
    began = time.perf_counter()

    def wanted(repeat: int) -> bool:
        if fixed is not None:
            return repeat < fixed
        return repeat < MIN_OPS or time.perf_counter() - began < seconds

    repeat = 0
    while wanted(repeat):
        label = f"repeat {repeat}"
        outcome, elapsed = run.operate(
            label, oracle.op_seed(run.seed, run.workload.name, repeat)
        )
        if outcome is not None and run.check(
            label, oracle.check_pinned(run.workload, run.scale, run.seed, repeat, outcome)
        ):
            outcomes.append(outcome)
            run_s.append(elapsed)
        repeat += 1
    return outcomes, run_s


def _end_to_end(outcomes: list[Outcome], run_s: list[float]) -> dict[str, Any]:
    quartiles = statistics.quantiles(run_s, n=4) if len(run_s) > 1 else [run_s[0]] * 3
    return {
        "run_s_p50": statistics.median(run_s),
        "run_s_iqr": quartiles[2] - quartiles[0],
        "samples": len(run_s),
        "envelopes_per_s": statistics.median(
            outcome.counts["messages"] / elapsed for outcome, elapsed in zip(outcomes, run_s)
        ),
        # Read before any post-timing check can raise it.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _KIB_PER_MIB,
        "counts": [outcome.counts for outcome in outcomes],
    }


def _traced_operations(
    run: _Run, seconds: float | None, untraced_p50: float
) -> dict[str, Any]:
    """Traced repeats for ``seconds`` (one when ``None``): counts from the
    first, times as medians over all of them."""
    name = run.workload.name
    first: Outcome | None = None
    first_dump: dict[str, Any] = {}
    samples: list[dict[str, float]] = []
    traced_s: list[float] = []
    began = time.perf_counter()
    index = 0
    while index == 0 or (seconds is not None and time.perf_counter() - began < seconds):
        label = f"traced {index}"
        master_seed = oracle.op_seed(run.seed, name, f"trace{index}")
        with trace.installed(run_id=f"{name}/{run.seed}/{index}") as tracer:
            outcome, _ = run.operate(label, master_seed, tracer=tracer)
        if outcome is not None:
            samples.append(tracer.metrics())
            traced_s.append(tracer.root_seconds())
            if first is None:
                first, first_dump = outcome, tracer.dump()
        index += 1
    if first is None:
        return {}

    twin, _ = run.operate("untraced twin", oracle.op_seed(run.seed, name, "trace0"))
    if twin is not None:
        run.check(
            "traced 0",
            oracle.same_counts("untraced twin", first.counts, twin.counts),
        )

    layers: dict[str, float] = {
        metric: (
            statistics.median(sample[metric] for sample in samples)
            if trace.is_time(metric)
            else samples[0][metric]
        )
        for metric in samples[0]
    }
    layers["harness.import_s"] = IMPORT_S
    layers["trace.overhead_x"] = statistics.median(traced_s) / untraced_p50
    if layers["sim.multiplex.engine_fallbacks"]:
        run.check("traced 0", ["a mux fell back from the engine it was configured with"])
    return {
        "per_layer": layers,
        "traced_s": statistics.median(traced_s),
        "traced_samples": len(traced_s),
        "prediction_misses": [
            f"{metric} = {layers[metric]} (predicted 0)"
            for metric, workloads in trace.ZERO_ON.items()
            if name in workloads and layers[metric]
        ],
        "trace": first_dump,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    report = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=args.traced,
        setup_only=args.setup_only,
        entered=_ENTERED,
    )
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
