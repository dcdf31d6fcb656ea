#!/usr/bin/env python
"""Benchmark gate: check a fresh run against ``BENCH_9.json``, read-only.

Runs the trimmed (``standard_sizes(small=True)``) regression suite from
``benchmarks/regress.py`` and compares it against the committed
``BENCH_9.json``.  A fresh small run more than ``--threshold`` (default
20%) slower than the committed small numbers on any experiment — or with
any count changed — exits non-zero: the loud failure CI wants.  A gate
run never touches the baseline file; ``--refresh`` is the explicit
request to rewrite it with the fresh measurements (refused on a red
gate, so a regression cannot become the new baseline by accident).

Usage::

    PYTHONPATH=src python scripts/bench_check.py                  # gate (read-only)
    PYTHONPATH=src python scripts/bench_check.py --refresh        # gate, then rewrite
    PYTHONPATH=src python scripts/bench_check.py --quick          # pre-PR smoke
    PYTHONPATH=src python scripts/bench_check.py --full           # also full sizes
    PYTHONPATH=src python scripts/bench_check.py --memory         # also memory gate
    PYTHONPATH=src python scripts/bench_check.py --profile akd_n64_t3
    PYTHONPATH=src python scripts/bench_check.py --compare /path/to/other/src

``--quick`` is the smoke mode ``scripts/check.sh`` runs before every PR:
the small-n suite once (``--repeats 1``), gating only the *count*
determinism contract — counts must match the committed baseline exactly —
while skipping the wall-clock threshold (single-shot timings are noise)
and the memory probes.  It answers "did I change observable
behaviour?" in a couple of seconds; the full gate stays the
pre-merge answer to "did I slow anything down?".  Alongside the counts
gate it prints the baseline-vs-fresh wall time per experiment — advisory
only (single shots), but enough to spot an accidental 10x on the spot.

``--profile EXPERIMENT`` runs one named experiment (from either suite
section) once under :mod:`cProfile` and prints the top 20 functions by
cumulative time — the first stop when a bench number moves and you want
to know *where* before reaching for heavier tooling.

``--memory`` measures tracemalloc peaks for the EIG memory probes (the
succinct engine's headline win is *memory*: the dense engine's per-node
path dicts are exponential in t) and gates them against the committed
baseline with ``--memory-threshold`` — so the succinct-tree memory
reduction is regression-guarded, not just the wall-clock.

``--compare`` measures the same workloads against another source tree
(for example a prior-PR worktree) in a subprocess and records the
per-experiment speedups under ``speedup_vs_baseline_src``.  Historical
note: ``BENCH_1.json`` (PR 1) captured the seed-vs-PR1 numbers,
``BENCH_2.json`` (PR 2) added the extended n=128 grid, ``BENCH_3.json``
(PRs 3/4) added the agreement-based key-distribution mux points and the
event-kernel delivery points, ``BENCH_4.json`` (PR 5) added the E13
unreliable-delivery points (timeout FD under loss, partition-heal
convergence — drop counts gated alongside message counts),
``BENCH_5.json`` (PR 6) added the E14 arms-race points (adaptive FD on
the cells where the static horizon is wrong, the adaptive adversary
driving the static FD, partition equivocation); ``BENCH_6.json`` (PR 7)
recorded the columnar mux engine's wall-clock on an unchanged
experiment set — the akd grid points dropped ~10x and ``akd_n128_t3``
left ``HEAVY_EXPERIMENTS``; ``BENCH_7.json`` (PR 8)
adds the arrival-columned grid: mux points under lossy-jittered
and bounded-jitter calendars (small and n=64/128), with n=128
columnar-vs-``*_object`` engine pairs whose wall-clock ratio the
``--full`` gate enforces (``--min-engine-ratio``, default 3x) and
whose counts must agree bit-for-bit, plus E13/E14 grid cells promoted
past their historical n=32 pin; ``BENCH_8.json`` (PR 10, still read
by the end-to-end benchmark's oracle) adds the warm-started sweep
twins: timeout-axis sweeps run prefix-shared via kernel checkpoint/resume
(``repro.harness.sweep_prefix_shared``) next to ``*_straight``
cold-re-run twins, with the straight/warm wall-clock ratio enforced by
the ``--full`` gate (``--min-warm-ratio``, default 1.3x — 2x until PR 18
made a tick of simulation about twice as cheap while a restore costs
what it did, so both twins got faster and the ratio fell from 2.1-3.0x
to 1.6-2.2x) and the twins'
counts required to agree bit-for-bit; the live gate file is
``BENCH_9.json`` (PR 12), which records the columnar EIG store's
frontier — ``kernel_oral_bounded2_n64_t3`` and the degraded t=2 mux
point ``akd_loss_n32_t2``.  Experiment names are stable across files, so
shared counts are directly comparable (every BENCH_6 count was verified
bit-identical when BENCH_7 was established, every BENCH_7 count when
BENCH_8 was, and every BENCH_8 count when BENCH_9 was — ``--full`` now
gates the full section's counts the same way).

Wall-clock baselines are machine-relative: after moving to new hardware,
regenerate the baseline before trusting the gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import regress  # noqa: E402  (benchmarks/regress.py)


def compare_runs(
    baseline: dict, fresh: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Per-experiment deltas.  Returns (report lines, regression lines)."""
    lines: list[str] = []
    regressions: list[str] = []
    base_experiments = baseline.get("experiments", {})
    for name, entry in fresh.get("experiments", {}).items():
        base = base_experiments.get(name)
        if base is None:
            lines.append(f"  {name}: new experiment (no baseline)")
            continue
        old, new = base["seconds"], entry["seconds"]
        delta = (new - old) / old if old > 0 else 0.0
        line = f"  {name}: {old:.5f}s -> {new:.5f}s ({delta:+.1%})"
        if base.get("counts") != entry.get("counts"):
            regressions.append(
                f"  {name}: COUNTS CHANGED {base.get('counts')} -> "
                f"{entry.get('counts')} (determinism contract broken?)"
            )
        if delta > threshold:
            regressions.append(line + "  REGRESSION")
        lines.append(line)
    return lines, regressions


def engine_ratios(report: dict) -> dict[str, float]:
    """Object-twin seconds / columnar seconds, per engine pair.

    An experiment named ``X_object`` forces the object (reference) mux
    engine on the same workload as its columnar twin ``X``; the ratio
    is the columnar engine's measured speedup on that point.  Counts of
    the two are gated for equality separately — this only reads time.
    """
    experiments = report.get("experiments", {})
    suffix = "_object"
    ratios: dict[str, float] = {}
    for name, entry in experiments.items():
        if not name.endswith(suffix):
            continue
        twin = experiments.get(name[: -len(suffix)])
        if twin and twin["seconds"] > 0:
            ratios[name[: -len(suffix)]] = round(
                entry["seconds"] / twin["seconds"], 2
            )
    return ratios


def warm_ratios(report: dict) -> dict[str, float]:
    """Straight-twin seconds / warm seconds, per warm-sweep pair.

    An experiment named ``X_straight`` re-runs the same parameter sweep
    as its warm-started twin ``X`` from tick zero; the ratio is the
    prefix-shared executor's measured speedup on that sweep.  As with
    the engine pairs, the twins' counts are gated for equality
    separately — this only reads time.
    """
    experiments = report.get("experiments", {})
    suffix = "_straight"
    ratios: dict[str, float] = {}
    for name, entry in experiments.items():
        if not name.endswith(suffix):
            continue
        twin = experiments.get(name[: -len(suffix)])
        if twin and twin["seconds"] > 0:
            ratios[name[: -len(suffix)]] = round(
                entry["seconds"] / twin["seconds"], 2
            )
    return ratios


def memory_probes() -> dict[str, Callable[[], Any]]:
    """The tracemalloc-gated workloads.

    The oral probes are the point of the gate: succinct-engine peaks must
    stay flat as the grid grows.  The dense probe documents the engine
    gap at a size the dense engine can still afford (its n=32/t=3 peak is
    already ~two orders of magnitude above the succinct engine's;
    PERFORMANCE.md tabulates the comparison).
    """
    from repro.harness.workloads import oral_point

    return {
        "oral_succinct_n32_t3": lambda: oral_point(32, 3, seed=1),
        "oral_succinct_n64_t3": lambda: oral_point(64, 3, seed=1),
        "oral_succinct_n128_t3": lambda: oral_point(128, 3, seed=1),
        "oral_dense_n16_t4": lambda: oral_point(16, 4, seed=1, engine="dense"),
    }


def measure_memory() -> dict[str, int]:
    """Peak tracemalloc KiB per probe, caches cleared for reproducibility."""
    from repro.agreement._paths import clear_path_tables

    peaks: dict[str, int] = {}
    for name, fn in memory_probes().items():
        clear_path_tables()
        gc.collect()
        tracemalloc.start()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[name] = round(peak / 1024)
    clear_path_tables()
    return peaks


def compare_memory(
    baseline: dict[str, int], fresh: dict[str, int], threshold: float
) -> tuple[list[str], list[str]]:
    """Per-probe peak deltas.  Returns (report lines, regression lines)."""
    lines: list[str] = []
    regressions: list[str] = []
    for name, peak in fresh.items():
        base = baseline.get(name)
        if base is None:
            lines.append(f"  {name}: {peak} KiB (new probe, no baseline)")
            continue
        delta = (peak - base) / base if base > 0 else 0.0
        line = f"  {name}: {base} KiB -> {peak} KiB ({delta:+.1%})"
        if delta > threshold:
            regressions.append(line + "  MEMORY REGRESSION")
        lines.append(line)
    return lines, regressions


def profile_experiment(name: str) -> int:
    """Run one named experiment under cProfile; print top-20 cumulative.

    Searches the small section first, then the full one (names are
    unique within each; grid points live in full).  Returns an exit
    status: 2 when the name is unknown, listing what exists.
    """
    import cProfile
    import pstats

    for small in (True, False):
        for exp_name, fn in regress.experiments(small):
            if exp_name == name:
                section = "small" if small else "full"
                print(f"== cProfile: {name} ({section} suite, one run) ==")
                profiler = cProfile.Profile()
                profiler.enable()
                counts = fn()
                profiler.disable()
                pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
                print(f"counts: {counts}")
                return 0
    known = sorted(
        {exp_name for small in (True, False) for exp_name, _ in regress.experiments(small)}
    )
    print(f"unknown experiment {name!r}; known: {', '.join(known)}", file=sys.stderr)
    return 2


def measure_other_src(src_path: str, small: bool, repeats: int) -> dict:
    """Run the same suite against another source tree, out of process."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    env = dict(os.environ)
    env["PYTHONPATH"] = src_path
    cmd = [
        sys.executable,
        str(REPO_ROOT / "benchmarks" / "regress.py"),
        "--out",
        out_path,
        "--repeats",
        str(repeats),
    ]
    if small:
        cmd.append("--small")
    subprocess.run(cmd, check=True, env=env, cwd=str(REPO_ROOT))
    try:
        return json.loads(Path(out_path).read_text())
    finally:
        os.unlink(out_path)


def speedups(baseline: dict, current: dict) -> dict[str, float]:
    """baseline seconds / current seconds, per shared experiment."""
    result: dict[str, float] = {}
    for name, entry in current.get("experiments", {}).items():
        base = baseline.get("experiments", {}).get(name)
        if base and entry["seconds"] > 0:
            result[name] = round(base["seconds"] / entry["seconds"], 2)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_9.json"),
        help="baseline path (read; written only with --refresh)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="after a green gate, rewrite the baseline with the fresh "
        "measurements (without it the baseline is never touched)",
    )
    parser.add_argument("--threshold", type=float, default=0.20)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="pre-PR smoke: small suite once, gate counts only, no "
        "memory probes",
    )
    parser.add_argument(
        "--quick-out",
        default=str(REPO_ROOT / "bench_quick_fresh.json"),
        metavar="PATH",
        help="where --quick writes the freshly measured small suite "
        "(pass/fail alike) so CI can attach it as an artifact when the "
        "counts gate trips; the committed baseline is never touched",
    )
    parser.add_argument(
        "--full", action="store_true", help="also run the full-size section"
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also gate tracemalloc peaks for the EIG memory probes",
    )
    parser.add_argument(
        "--min-engine-ratio",
        type=float,
        default=3.0,
        metavar="X",
        help="--full gate: minimum object/columnar wall-clock ratio on "
        "each *_object engine pair (the columnar engine must stay at "
        "least this much faster than the reference path)",
    )
    parser.add_argument(
        "--min-warm-ratio",
        type=float,
        default=1.3,
        metavar="X",
        help="--full gate: minimum straight/warm wall-clock ratio on "
        "each *_straight warm-sweep pair (the prefix-shared executor "
        "must stay at least this much faster than cold re-runs)",
    )
    parser.add_argument(
        "--memory-threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="allowed fractional peak-memory growth before failing",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="SRC",
        help="source tree to measure as the speedup baseline (subprocess)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="EXPERIMENT",
        help="cProfile one named experiment (top 20 by cumulative time) "
        "and exit; no gating",
    )
    args = parser.parse_args(argv)

    if args.profile:
        return profile_experiment(args.profile)

    out_path = Path(args.out)
    committed = json.loads(out_path.read_text()) if out_path.exists() else {}

    if args.quick:
        if args.refresh:
            parser.error("--quick measures once and gates counts only; "
                         "refresh from a full gate run")
        print("== bench_check --quick: small-n smoke (counts gate only) ==")
        fresh_small = regress.run_suite(small=True, repeats=1)
        for name, entry in fresh_small["experiments"].items():
            engine = f"  [{entry['engine']}]" if "engine" in entry else ""
            snap = (
                f"  [snapshot {entry['snapshot_bytes']}B]"
                if "snapshot_bytes" in entry
                else ""
            )
            print(
                f"  {name}: {entry['seconds']:.5f}s  "
                f"{entry['counts']}{engine}{snap}"
            )
        quick_out = Path(args.quick_out)
        quick_out.write_text(
            json.dumps({"small": fresh_small}, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote fresh measurements to {quick_out}")
        status = 0
        if committed.get("small"):
            # Infinite threshold: only the counts-changed branch can fire.
            # The timing lines are advisory (single-shot runs are noise)
            # but put baseline-vs-fresh seconds side by side so a gross
            # slowdown is visible right in the smoke output.
            lines, regressions = compare_runs(
                committed["small"], fresh_small, float("inf")
            )
            print("== wall time vs committed baseline (advisory, 1 run) ==")
            print("\n".join(lines))
            if regressions:
                print("== FAIL: counts diverged from baseline ==", file=sys.stderr)
                print("\n".join(regressions), file=sys.stderr)
                status = 1
            else:
                print("== counts match committed baseline ==")
        else:
            print("== no committed baseline; smoke ran clean ==")
        return status

    print("== bench_check: trimmed (small=True) suite ==")
    fresh_small = regress.run_suite(small=True, repeats=args.repeats)
    for name, entry in fresh_small["experiments"].items():
        print(f"  {name}: {entry['seconds']:.5f}s")

    status = 0
    if committed.get("small"):
        lines, regressions = compare_runs(
            committed["small"], fresh_small, args.threshold
        )
        print(f"== comparison against committed {out_path.name} (small) ==")
        print("\n".join(lines))
        if regressions:
            print(
                f"== FAIL: regression beyond {args.threshold:.0%} threshold ==",
                file=sys.stderr,
            )
            print("\n".join(regressions), file=sys.stderr)
            status = 1
    else:
        print("== no committed small baseline; establishing one ==")

    merged = dict(committed)
    merged["small"] = fresh_small

    if args.full:
        print("== full-size suite ==")
        merged["full"] = regress.run_suite(small=False, repeats=args.repeats)
        for name, entry in merged["full"]["experiments"].items():
            engine = f"  [{entry['engine']}]" if "engine" in entry else ""
            snap = (
                f"  [snapshot {entry['snapshot_bytes']}B]"
                if "snapshot_bytes" in entry
                else ""
            )
            print(f"  {name}: {entry['seconds']:.5f}s{engine}{snap}")
        if committed.get("full"):
            # Counts only: full-size wall-clock is recorded, not gated.
            _, moved = compare_runs(committed["full"], merged["full"], float("inf"))
            if moved:
                print("== FAIL: full-size counts diverged ==", file=sys.stderr)
                print("\n".join(moved), file=sys.stderr)
                status = 1
            else:
                print(f"== full-size counts match committed {out_path.name} ==")
        ratios = engine_ratios(merged["full"])
        if ratios:
            print("== columnar-vs-object engine pairs ==")
            failed_pairs = []
            for name, ratio in sorted(ratios.items()):
                print(f"  {name}: columnar {ratio:.2f}x faster than object")
                if ratio < args.min_engine_ratio:
                    failed_pairs.append(f"  {name}: {ratio:.2f}x")
            if failed_pairs:
                print(
                    f"== FAIL: engine pair(s) below the "
                    f"{args.min_engine_ratio:.1f}x columnar floor ==",
                    file=sys.stderr,
                )
                print("\n".join(failed_pairs), file=sys.stderr)
                status = 1
        warm = warm_ratios(merged["full"])
        if warm:
            print("== warm-vs-straight sweep pairs ==")
            failed_warm = []
            for name, ratio in sorted(warm.items()):
                print(f"  {name}: warm-started {ratio:.2f}x faster than straight")
                if ratio < args.min_warm_ratio:
                    failed_warm.append(f"  {name}: {ratio:.2f}x")
            if failed_warm:
                print(
                    f"== FAIL: warm-sweep pair(s) below the "
                    f"{args.min_warm_ratio:.1f}x prefix-sharing floor ==",
                    file=sys.stderr,
                )
                print("\n".join(failed_warm), file=sys.stderr)
                status = 1

    if args.memory:
        print("== memory probes (tracemalloc peaks) ==")
        fresh_memory = measure_memory()
        for name, peak in fresh_memory.items():
            print(f"  {name}: {peak} KiB")
        if committed.get("memory"):
            lines, regressions = compare_memory(
                committed["memory"], fresh_memory, args.memory_threshold
            )
            print(f"== memory comparison against committed {out_path.name} ==")
            print("\n".join(lines))
            if regressions:
                print(
                    f"== FAIL: memory regression beyond "
                    f"{args.memory_threshold:.0%} threshold ==",
                    file=sys.stderr,
                )
                print("\n".join(regressions), file=sys.stderr)
                status = 1
        else:
            print("== no committed memory baseline; establishing one ==")
        merged["memory"] = fresh_memory

    if args.compare:
        print(f"== measuring baseline source tree: {args.compare} ==")
        merged["baseline_src_small"] = measure_other_src(
            args.compare, small=True, repeats=args.repeats
        )
        merged["speedup_vs_baseline_src"] = {
            "small": speedups(merged["baseline_src_small"], fresh_small)
        }
        if args.full:
            merged["baseline_src_full"] = measure_other_src(
                args.compare, small=False, repeats=args.repeats
            )
            merged["speedup_vs_baseline_src"]["full"] = speedups(
                merged["baseline_src_full"], merged["full"]
            )
        print(json.dumps(merged["speedup_vs_baseline_src"], indent=1))

    if not args.refresh:
        print(f"{out_path.name} left untouched (read-only gate; --refresh rewrites it)")
    elif status == 0 or not out_path.exists():
        out_path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out_path}")
    else:
        print(f"not rewriting {out_path} on regression", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
