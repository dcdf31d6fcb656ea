#!/usr/bin/env python
"""The ten-pair rule as a command: parent vs working tree, per workload.

    python scripts/ab_pairs.py --parent REV --workload W [--workload W2 ...] \\
        [--pairs 10] [--seed-base N] [--markdown]

Checks ``REV`` out into a temporary directory once (``git archive``, so
the repository's own ``.git`` is left as it was; the directory is removed
afterwards) and, workload by workload, runs ``--pairs`` pairs of (parent,
change) measurements, alternating which side goes first.  Each side is
measured by *its own* ``BENCHMARK.json`` ``command`` with ``--workload W
--seed S --seconds <run_seconds> --trace 0``; the last line of output is
the measurement.  Pair ``i`` runs both sides on seed ``seed-base + i``.

Prints, per workload, one row per run, then per end-to-end metric both
sides' medians and quartiles and the verdict of the choosing-metrics
guide's section 8 against the manifest's ``bound`` (see :func:`verdict`);
last, one ``workload metric verdict`` line per pairing.  Exits non-zero
when any operation failed.  Nothing is written into either tree: each
side's bytecode cache goes to the temporary directory too
(``PYTHONPYCACHEPREFIX``, with ``PYTHONDONTWRITEBYTECODE`` unset), so both
sides import from an equally warm cache whatever ``__pycache__`` the
working tree happens to hold.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, str]:
    """Judge one metric over paired runs: ``(outcome, reason)``.

    ``parent[i]`` and ``change[i]`` are pair ``i``'s readings; ``better``
    is ``"lower"`` or ``"higher"``; ``bound`` is the fraction of the
    parent's median by which the metric may worsen.  In order:

    * ``gain`` — the change wins at least nine tenths of the pairs (ties
      count for neither side) *and* the medians differ, in the better
      direction, by more than the parent's inter-quartile distance;
    * ``regression`` — the change's median is worse than the parent's by
      more than ``bound``;
    * ``unresolved`` — either side's inter-quartile distance exceeds
      ``bound`` of its median, unless every run of the change reads
      better than every run of the parent;
    * ``within bound`` — otherwise.
    """
    sign = -1.0 if better == "lower" else 1.0  # gain = positive
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gap = sign * (c_median - p_median)
    counted = f"change better in {wins}/{len(parent)} pairs"
    if wins >= 0.9 * len(parent) and gap > p_q3 - p_q1:
        return "gain", f"{counted}, median gap {gap:.4g} > parent IQR {p_q3 - p_q1:.4g}"
    if -gap > bound * p_median:
        return "regression", f"median worse by {-gap / p_median:.1%} > bound {bound:.0%}"
    spread = max((p_q3 - p_q1) / p_median, (c_q3 - c_q1) / c_median)
    separated = (
        max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    )
    if spread > bound and not separated:
        return "unresolved", f"IQR is {spread:.1%} of the median > bound {bound:.0%}"
    return "within bound", f"{counted}, median moved {c_median / p_median - 1:+.1%}"


def judge(
    declared: list[dict], readings: dict[str, dict[str, list[float]]]
) -> list[tuple[str, tuple, tuple, str, str]]:
    """Per declared end-to-end metric: ``(name, parent quartiles, change
    quartiles, outcome, reason)`` over one workload's paired ``readings``
    (``readings[side][metric]``, side ``"parent"`` or ``"change"``)."""
    rows = []
    for metric in declared:
        name = metric["name"]
        parent, change = readings["parent"][name], readings["change"][name]
        outcome, reason = verdict(parent, change, metric["better"], metric["bound"])
        rows.append((name, quartiles(parent), quartiles(change), outcome, reason))
    return rows


def summary_lines(verdicts: dict[str, list[tuple[str, str]]]) -> list[str]:
    """The closing list: one ``workload metric verdict`` line per
    ``(metric, outcome)`` pair of each workload in ``verdicts``."""
    return [
        f"{workload:<14} {name:<16} {outcome}"
        for workload, rows in verdicts.items()
        for name, outcome in rows
    ]


def measure(tree: Path, pycache: Path, workload: str, seed: int) -> dict:
    """One ``--trace 0`` measurement of ``tree`` by its own manifest."""
    manifest = json.loads((tree / "BENCHMARK.json").read_text())
    command = [
        *manifest["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", "0",
    ]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode} in {tree}")
    return json.loads(done.stdout.splitlines()[-1])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument(
        "--workload", required=True, action="append", help="repeat for several workloads"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--markdown", action="store_true", help="print markdown tables")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [metric["name"] for metric in declared]
    sep, edge = (" | ", "| ") if args.markdown else ("  ", "")

    def row(cells: list[str]) -> None:
        print(edge + sep.join(cells) + (" |" if args.markdown else ""), flush=True)

    def header(cells: list[str]) -> None:
        row(cells)
        if args.markdown:
            row(["---"] * len(cells))

    verdicts: dict[str, list[tuple[str, str]]] = {}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.parent],
            cwd=REPO_ROOT, stdout=subprocess.PIPE, check=True,
        ).stdout
        trees = {"parent": Path(tmp, "parent"), "change": REPO_ROOT}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(trees["parent"], filter="data")
        for workload in args.workload:
            readings: dict[str, dict[str, list[float]]] = {
                side: {name: [] for name in names} for side in ("parent", "change")
            }
            workload_failed = 0
            print(f"\n## {workload}\n")
            header([
                "pair", f"{'side':<6}", f"{'seed':>6}", *(f"{name:>14}" for name in names),
                "attempted", "failed",
            ])
            for pair in range(args.pairs):
                seed = args.seed_base + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    line = measure(trees[side], Path(tmp, "pycache", side), workload, seed)
                    workload_failed += line["failed"]
                    for name in names:
                        readings[side][name].append(line["metrics"][name]["value"])
                    row([
                        f"{pair + 1:>4}", f"{side:<6}", f"{seed:>6}",
                        *(f"{line['metrics'][name]['value']:>14.4f}" for name in names),
                        f"{line['attempted']:>9}", f"{line['failed']:>6}",
                    ])

            print()
            header([
                "metric", "parent q1 / median / q3", "change q1 / median / q3", "ratio", "verdict",
            ])
            judged = judge(declared, readings)
            for name, p, c, outcome, reason in judged:
                row([
                    f"{name:<16}",
                    " / ".join(f"{value:.4g}" for value in p),
                    " / ".join(f"{value:.4g}" for value in c),
                    f"{c[1] / p[1]:.3f}x",
                    f"{outcome} ({reason})",
                ])
            verdicts[workload] = [(name, outcome) for name, _, _, outcome, _ in judged]
            failed += workload_failed
            print(
                f"\n{workload}: {args.pairs} pairs vs {args.parent}, "
                f"{workload_failed} failed operations"
            )

    print()
    for line in summary_lines(verdicts):
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
