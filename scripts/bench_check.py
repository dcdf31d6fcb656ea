#!/usr/bin/env python
"""Counts gate: check a fresh ledger run against ``BENCH_9.json``, read-only.

``benchmarks/regress.py`` is the ledger — named grid points, each a pure
function of ``(params, master seed)`` — and ``BENCH_9.json`` holds the
counts every point must reproduce bit-for-bit.  Two runs exist::

    python scripts/bench_check.py --quick     # small section, ~1 s
    python scripts/bench_check.py             # whole ledger, ~25 s
    python scripts/bench_check.py --refresh   # whole ledger, then rewrite

``--quick`` is what ``scripts/check.sh`` and CI run on every PR (CI also
under two ``PYTHONHASHSEED`` values, and the whole ledger once).  The
whole ledger adds the full-size section (the n=128 grid) and the
tracemalloc probes of the succinct EIG tree, whose peaks may grow by at
most :data:`MEMORY_THRESHOLD`.

The gate fails (exit 1) when a count differs from the baseline, when a
baseline point is missing from the fresh run, or when a memory probe
grows past its threshold.  A point the baseline does not know is reported
and passes.  A gate run never touches the baseline; ``--refresh`` rewrites
it from a green whole-ledger run only, so a point leaves the ledger by
deleting its baseline entry in the same commit, never by vanishing.  Both
runs write what they measured to ``--quick-out`` for CI to attach.

No time is measured here (each point prints its elapsed seconds, nothing
stores or compares them): timing and memory claims belong to
``benchmarks/e2e/run.py`` and ``scripts/ab_pairs.py``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import regress  # noqa: E402  (benchmarks/regress.py)

#: Allowed fractional growth of a memory probe's tracemalloc peak.
MEMORY_THRESHOLD = 0.25


def compare_counts(baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """One section against its baseline: (informational lines, failures)."""
    notes: list[str] = []
    failures: list[str] = []
    base_experiments = baseline.get("experiments", {})
    fresh_experiments = fresh.get("experiments", {})
    for name in base_experiments:
        if name not in fresh_experiments:
            failures.append(
                f"  {name}: MISSING from the fresh run (a point leaves the "
                "ledger by deleting its baseline entry, not by vanishing)"
            )
    for name, entry in fresh_experiments.items():
        base = base_experiments.get(name)
        if base is None:
            notes.append(f"  {name}: new experiment (no baseline)")
        elif base.get("counts") != entry.get("counts"):
            failures.append(
                f"  {name}: COUNTS CHANGED {base.get('counts')} -> "
                f"{entry.get('counts')} (determinism contract broken?)"
            )
    return notes, failures


def memory_probes() -> dict[str, Callable[[], Any]]:
    """The tracemalloc-gated workloads: the succinct EIG tree's peaks must
    stay flat as the oral grid grows (PERFORMANCE.md tabulates them
    against the dict-of-paths formulation's), n concurrent OM(t)
    instances must build no path table, a lossy run's batch records
    must keep no per-subset recipient container, and a run's metrics
    must hold no sent payload (the akd and key-distribution probes).
    Each probe is a picklable call, so it can run in a process of its
    own."""
    from repro.harness.workloads import akd_point, keydist_point, oral_point

    return {
        "oral_succinct_n32_t3": partial(oral_point, 32, 3, seed=1),
        "oral_succinct_n64_t3": partial(oral_point, 64, 3, seed=1),
        "oral_succinct_n128_t3": partial(oral_point, 128, 3, seed=1),
        "akd_succinct_n32_t3": partial(akd_point, 32, 3, seed=1),
        "akd_loss_n32_t1": partial(akd_point, 32, 1, seed=1, delivery="loss:0.05:2"),
        "keydist_n64": partial(keydist_point, 64, seed=1),
    }


#: One probe in a fresh interpreter: unpickling the probe imports what it
#: calls before tracing starts, and nothing an earlier probe cached (path
#: tables, memos, lazily imported modules) is there to lower the peak.
_PROBE = """
import gc, pickle, sys, tracemalloc
probe = pickle.loads(sys.stdin.buffer.read())
gc.collect()
tracemalloc.start()
probe()
print(tracemalloc.get_traced_memory()[1])
"""


def measure_memory() -> dict[str, int]:
    """Peak tracemalloc KiB per probe, each probe in its own interpreter,
    so a reading does not depend on the probes run before it."""
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    peaks: dict[str, int] = {}
    for name, probe in memory_probes().items():
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE], input=pickle.dumps(probe),
            stdout=subprocess.PIPE, env=env, check=True,
        )
        peaks[name] = round(int(proc.stdout) / 1024)
    return peaks


def compare_memory(
    baseline: dict[str, int], fresh: dict[str, int]
) -> tuple[list[str], list[str]]:
    """Per-probe peak deltas: (report lines, failures)."""
    lines: list[str] = []
    failures = [
        f"  {name}: MISSING from the fresh run" for name in baseline if name not in fresh
    ]
    for name, peak in fresh.items():
        base = baseline.get(name)
        if base is None:
            lines.append(f"  {name}: {peak} KiB (new probe, no baseline)")
            continue
        delta = (peak - base) / base if base > 0 else 0.0
        line = f"  {name}: {base} KiB -> {peak} KiB ({delta:+.1%})"
        if delta > MEMORY_THRESHOLD:
            failures.append(line + "  MEMORY REGRESSION")
        lines.append(line)
    return lines, failures


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
        help="after a green whole-ledger run, rewrite the baseline's three "
        "sections from it (without it the baseline is never touched)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="pre-PR smoke: the small section only",
    )
    parser.add_argument(
        "--quick-out",
        default=str(REPO_ROOT / "bench_quick_fresh.json"),
        metavar="PATH",
        help="where the freshly measured ledger is written (pass/fail "
        "alike) so CI can attach it as an artifact when the gate trips; "
        "the committed baseline is never touched",
    )
    args = parser.parse_args(argv)
    if args.quick and args.refresh:
        parser.error("--quick runs the small section only; refresh from a whole-ledger run")

    out_path = Path(args.out)
    committed = json.loads(out_path.read_text()) if out_path.exists() else {}

    fresh: dict[str, Any] = {}
    failures: list[str] = []
    for section in ("small",) if args.quick else ("small", "full"):
        print(f"== bench_check: {section} section ==")
        fresh[section] = regress.run_suite(small=section == "small")
        notes, failed = compare_counts(committed.get(section, {}), fresh[section])
        for line in notes:
            print(line)
        failures += failed
    if not args.quick:
        print("== memory probes (tracemalloc peaks) ==")
        fresh["memory"] = measure_memory()
        lines, failed = compare_memory(committed.get("memory", {}), fresh["memory"])
        print("\n".join(lines))
        failures += failed

    quick_out = Path(args.quick_out)
    quick_out.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote fresh measurements to {quick_out}")

    if failures:
        print(f"== FAIL: diverged from {out_path.name} ==", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
    elif committed:
        print(f"== counts match committed {out_path.name} ==")
    else:
        print("== no committed baseline ==")
    if not args.refresh:
        print(f"{out_path.name} left untouched (read-only gate; --refresh rewrites it)")
    elif failures:
        print(f"not rewriting {out_path} on a red gate", file=sys.stderr)
    else:
        out_path.write_text(
            json.dumps({**committed, **fresh}, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {out_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
