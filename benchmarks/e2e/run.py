#!/usr/bin/env python
"""End-to-end benchmark of the simulator: one command, every metric by name.

Usage (from the repository root)::

    python benchmarks/e2e/run.py                       # all workloads, both modes
    python benchmarks/e2e/run.py --workload fd-flood   # one workload
    python benchmarks/e2e/run.py --seed 7 --out e2e.json --trace-out spans.json
    python benchmarks/e2e/run.py --selfcheck           # A/A: two sets of runs must agree
    python benchmarks/e2e/run.py --probes              # bare per-call timings (not gated)
    python benchmarks/e2e/run.py --repin               # rewrite expected.json (new workload only)

and, as ``BENCHMARK.json`` declares it, one measurement per invocation::

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

whose last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).

Every measurement runs in fresh worker processes (:mod:`e2e.worker`), one
at a time: closed loop, single-threaded, no pools — the box has two
cores, and the numbers should measure the program, not the scheduler.
For the same reason the run pins itself (and so its workers) to the
highest-numbered CPU it may use: on this box 20-operation medians of
``keydist-sync`` wander by 11 % on CPU 0, which also serves the
interrupts, and by 2 % on CPU 1.  ``setup_s`` is the median over
:data:`SETUP_SAMPLES` fresh processes of the time from spawn to the end
of the warm-up operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark is the package ``e2e`` (its parent directory on the path)
# and measures ``repro`` from the source tree beside it.
_IMPORT_PATH = [str(HERE.parent), str(ROOT / "src")]
for _path in _IMPORT_PATH:
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2e import trace  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402

MANIFEST = ROOT / "BENCHMARK.json"

#: Fresh processes whose set-up time is sampled per end-to-end measurement.
SETUP_SAMPLES = 3
#: A measurement whose workers take longer than this in total is killed
#: and fails (the driver allows one invocation 180 s).
MEASUREMENT_TIMEOUT_S = 170

#: End-to-end metrics in printing order -> unit.  ``failed_ops_share`` is
#: printed by name too, but it is zero on a correct run, so the manifest
#: carries it as the ``attempted`` / ``failed`` pair instead of a bounded
#: metric.
END_TO_END = {
    "run_s_p50": "s",
    "envelopes_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def _worker_env() -> dict[str, str]:
    """This process's environment with the benchmark and ``src/`` importable."""
    inherited = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(_IMPORT_PATH + ([inherited] if inherited else [])),
    )


def _spawn(
    name: str, args: argparse.Namespace, deadline: float, *extra: str
) -> tuple[dict[str, Any], float]:
    """One worker process, killed at ``deadline`` (``time.monotonic()``);
    returns its report and its spawn-to-ready time."""
    command = [
        sys.executable, "-m", "e2e.worker",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    spawned = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise SystemExit(f"worker for {name!r} exited with code {done.returncode}")
    report = json.loads(done.stdout.splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the worker's
    # reading and ours are on one axis.
    return report, report["ready_at"] - spawned


def measure(name: str, args: argparse.Namespace, traced: bool) -> dict[str, Any]:
    """One measurement of one workload.

    Returns ``metrics`` (the end-to-end values, or with ``traced`` the
    per-layer ones; ``None`` when no operation could be measured), the
    fate of the operations summed over every process that took part, and
    what the worker reported beside the metrics under ``detail``.
    """
    deadline = time.monotonic() + MEASUREMENT_TIMEOUT_S
    if args.scale == "tiny":
        from e2e import worker

        reports = [
            worker.measure(name, seed=args.seed, scale="tiny", repeats=1, traced=traced)
        ]
        setup_s = reports[0]["setup_s"]
    elif traced:
        reports, setup_s = [_spawn(name, args, deadline, "--traced")[0]], None
    else:
        runs = [
            _spawn(name, args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES - 1)
        ]
        runs.append(_spawn(name, args, deadline))
        reports = [report for report, _ in runs]
        setup_s = statistics.median(ready for _, ready in runs)
    detail = reports[-1]
    if traced:
        metrics = detail.get("per_layer")
    else:
        metrics = detail.get("end_to_end")
        if metrics is not None:
            metrics["setup_s"] = setup_s
    failed = sum(report["failed"] for report in reports)
    return {
        "metrics": metrics,
        "correct": metrics is not None and failed == 0,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": failed,
        "failures": [failure for report in reports for failure in report["failures"]],
        "detail": detail,
    }


def contract_line(result: dict[str, Any], traced: bool) -> str:
    """The last line of a single measurement, as ``BENCHMARK.json`` promises."""
    units = {k: unit for k, (unit, _) in trace.PER_LAYER.items()} if traced else END_TO_END
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


# -- printing ---------------------------------------------------------------


def print_failures(result: dict[str, Any]) -> None:
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def print_end_to_end(name: str, result: dict[str, Any]) -> None:
    print(f"\n== {name}: end to end (tracing off) ==")
    metrics = result["metrics"]
    if metrics is not None:
        notes = {
            "run_s_p50": f"samples={metrics['samples']}  run_s_iqr={metrics['run_s_iqr']:.4f} s",
            "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
        }
        for metric, unit in END_TO_END.items():
            print(f"  {metric:<18}{metrics[metric]:>14.4f} {unit:<6}{notes.get(metric, '')}")
    share = result["failed"] / result["attempted"]
    print(
        f"  {'failed_ops_share':<18}{share:>14.4f} {'ratio':<6}"
        f"{result['failed']} of {result['attempted']} operations"
    )
    print_failures(result)


def print_per_layer(name: str, result: dict[str, Any]) -> None:
    print(f"\n== {name}: per layer (traced) ==")
    metrics, detail = result["metrics"], result["detail"]
    if metrics is not None:
        traced_s = detail["traced_s"]
        print(
            f"  traced operation {traced_s:.4f} s (median of {detail['traced_samples']}); "
            f"unattributed {metrics['trace.unattributed_s'] / traced_s:.1%}"
        )
        for metric, (unit, _) in trace.PER_LAYER.items():
            value = metrics[metric]
            shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>16}"
            share = (
                f"  {value / traced_s:6.1%} of the operation"
                if metric.endswith(".self_s")
                else ""
            )
            print(f"  {metric:<36}{shown} {unit}{share}")
        for miss in detail["prediction_misses"]:
            print(f"  PREDICTION MISSED {miss}")
    print_failures(result)


# -- modes ------------------------------------------------------------------

#: workload -> {"end_to_end": measurement, "per_layer": measurement}
Results = dict[str, dict[str, dict[str, Any]]]


def run_all(args: argparse.Namespace, names: list[str]) -> Results:
    """Both measurements of every named workload, printed as they finish."""
    results: Results = {}
    for name in names:
        end_to_end = measure(name, args, traced=False)
        print_end_to_end(name, end_to_end)
        per_layer = measure(name, args, traced=True)
        print_per_layer(name, per_layer)
        results[name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    return results


def all_correct(results: Results) -> bool:
    return all(
        measurement["correct"] for result in results.values() for measurement in result.values()
    )


def write_outputs(args: argparse.Namespace, results: Results) -> None:
    """``--trace-out``: the traced operations' spans and entry-point
    tables; ``--out``: every metric and every failure."""
    if args.trace_out:
        spans = {
            name: result["per_layer"]["detail"].get("trace") for name, result in results.items()
        }
        Path(args.trace_out).write_text(json.dumps(spans, indent=1) + "\n")
        print(f"wrote {args.trace_out}")
    if args.out:
        report = {
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {
                name: {
                    mode: {key: value for key, value in measurement.items() if key != "detail"}
                    for mode, measurement in result.items()
                }
                for name, result in results.items()
            },
        }
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


def selfcheck(args: argparse.Namespace, names: list[str]) -> bool:
    """A/A: run everything twice and hold the benchmark to its own bounds.

    Fails when an end-to-end metric differs by more than its bound, when
    any count (per repeat, or per layer) differs at all, or when any
    operation failed.  Per-layer times have no bound and are only shown.
    """
    bounds = {m["name"]: m["bound"] for m in json.loads(MANIFEST.read_text())["end_to_end"]}
    first, second = run_all(args, names), run_all(args, names)
    ok = all_correct(first) and all_correct(second)
    print("\n== A/A: second set relative to first ==")
    for name in names:
        if any(m["metrics"] is None for r in (first, second) for m in r[name].values()):
            continue  # already counted as incorrect above
        before, after = (r[name]["end_to_end"]["metrics"] for r in (first, second))
        for metric in END_TO_END:
            change = after[metric] / before[metric] - 1
            within = abs(change) <= bounds[metric]
            ok &= within
            print(
                f"  {name:<13}{metric:<36}{change:>+9.2%}  bound {bounds[metric]:.0%}"
                f"{'' if within else '  OUTSIDE'}"
            )
        shared = min(before["samples"], after["samples"])
        if before["counts"][:shared] != after["counts"][:shared]:
            ok = False
            print(f"  {name:<13}per-repeat counts DIFFER")
        before, after = (r[name]["per_layer"]["metrics"] for r in (first, second))
        for metric in trace.PER_LAYER:
            if trace.is_time(metric):
                if before[metric]:
                    change = after[metric] / before[metric] - 1
                    print(f"  {name:<13}{metric:<36}{change:>+9.2%}  (no bound)")
            elif before[metric] != after[metric]:
                ok = False
                print(f"  {name:<13}{metric:<36}{before[metric]} != {after[metric]}  DIFFERS")
    print("A/A", "passed" if ok else "FAILED")
    return ok


def probes() -> bool:
    """The isolated per-call timings, in a fresh process of their own."""
    done = subprocess.run(
        [sys.executable, "-m", "e2e.probes"],
        cwd=ROOT, env=_worker_env(), timeout=MEASUREMENT_TIMEOUT_S,
    )
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [workload.name for workload in WORKLOADS]
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="derives every operation's seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long each measurement repeats its operations (default: the manifest's)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="one measurement only: 0 = end to end, 1 = per layer; last line is JSON",
    )
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: n <= 8, one repeat, in-process (the smoke test)")
    parser.add_argument("--out", help="write every metric as JSON")
    parser.add_argument("--trace-out", help="write the traced operations' spans as JSON")
    parser.add_argument("--selfcheck", action="store_true", help="A/A: run twice and compare")
    parser.add_argument("--probes", action="store_true", help="bare per-call timings")
    parser.add_argument("--repin", action="store_true", help="rewrite expected.json (~4 min)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(MANIFEST.read_text())["run_seconds"])
    selected = [args.workload] if args.workload else names
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # see the module docstring

    if args.repin:
        from e2e import oracle

        oracle.repin()
        return 0
    if args.probes:
        return 0 if probes() else 1
    if args.selfcheck:
        return 0 if selfcheck(args, selected) else 1
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        traced = bool(args.trace)
        result = measure(args.workload, args, traced)
        (print_per_layer if traced else print_end_to_end)(args.workload, result)
        if result["metrics"] is None:
            return 1  # nothing was measured: no result line
        print(contract_line(result, traced))
        return 0
    results = run_all(args, selected)
    write_outputs(args, results)
    return 0 if all_correct(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
