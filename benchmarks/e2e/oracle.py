"""Correctness oracle: what every benchmark operation must have produced.

Three independent sources, so that a wrong count cannot hide behind a
matching wrong expectation:

* the committed ledger ``BENCH_8.json`` (read-only; ``scripts/
  bench_check.py`` stays its bit-for-bit gate) for the warm-up, which
  repeats the ledger's point and seed;
* the paper's closed forms (:mod:`repro.analysis.complexity`) and the
  property verdicts, which hold for every seed;
* ``expected.json``, the per-repeat counts pinned for ``--seed 0``.

Every check returns a list of problems (empty = passed); an operation
with a problem counts as failed.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Any

from .workloads import WORKLOADS, Outcome, Workload

ROOT = Path(__file__).resolve().parents[2]
LEDGER = ROOT / "BENCH_8.json"
EXPECTED = Path(__file__).with_name("expected.json")

#: The seed whose per-repeat counts ``expected.json`` pins, and how many
#: repeats of it per scale (a ten-second run reaches at most ~25).
PINNED_SEED = 0
PINNED_REPEATS = {"full": 32, "tiny": 2}

#: Drop share may sit this far from the model's probability: twenty
#: standard deviations at the smallest full-size workload, and wide enough
#: for the few hundred envelopes of a tiny one.
_LOSS_TOLERANCE = {"full": 0.02, "tiny": 0.15}


def op_seed(seed: int, workload: str, index: Any) -> str:
    """The master seed of one operation, derived from ``--seed``: the same
    ``--seed`` gives the same inputs, and no two operations share one."""
    return f"e2e/{seed}/{workload}/{index}"


@lru_cache(maxsize=None)
def _load(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def same_counts(label: str, got: dict[str, Any], want: dict[str, Any]) -> list[str]:
    """Problems where ``got`` misses or differs from ``want``; keys only
    in ``got`` are ignored (the ledger gates fewer keys than we count)."""
    return [
        f"{label}: {key} = {got.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]


def check_outcome(workload: Workload, scale: str, outcome: Outcome) -> list[str]:
    """Seed-independent checks: promised verdicts, closed forms, and
    ``drops`` consistent with ``messages`` under the loss model."""
    problems = same_counts("verdict", outcome.verdicts, workload.promises)
    counts = outcome.counts
    if workload.closed_form is not None:
        problems += same_counts(
            "closed form", counts, workload.closed_form(**workload.params(scale))
        )
    if workload.loss is not None:
        share = counts["drops"] / counts["messages"]
        if abs(share - workload.loss) > _LOSS_TOLERANCE[scale]:
            problems.append(
                f"drops/messages = {share:.4f}, but the links drop {workload.loss}"
            )
    return problems


def check_ledger(workload: Workload, scale: str, outcome: Outcome) -> list[str]:
    """The warm-up's counts against the ``BENCH_8.json`` entry for the
    same point, where the ledger has one."""
    entry = workload.ledger.get(scale)
    if entry is None:
        return []
    section, experiment = entry
    committed = _load(LEDGER)[section]["experiments"][experiment]["counts"]
    return same_counts(f"BENCH_8 {experiment}", outcome.counts, committed)


def check_pinned(
    workload: Workload, scale: str, seed: int, repeat: int, outcome: Outcome
) -> list[str]:
    """Timed repeat ``repeat`` against ``expected.json`` (``--seed 0`` only,
    and only for as many repeats as are pinned)."""
    if seed != PINNED_SEED:
        return []
    pinned = _load(EXPECTED)[scale][workload.name]
    if repeat >= len(pinned):
        return []
    return same_counts(f"expected.json repeat {repeat}", outcome.counts, pinned[repeat])


def repin() -> None:
    """Rewrite ``expected.json`` from the code as it is (``run.py --repin``).

    Only for a change that adds a workload or a pinned repeat: committed
    counts never move, so a diff in an existing line is a regression, not
    a new expectation.
    """
    pinned = {
        scale: {
            workload.name: [
                workload.operation(
                    op_seed(PINNED_SEED, workload.name, repeat), **workload.params(scale)
                ).counts
                for repeat in range(repeats)
            ]
            for workload in WORKLOADS
        }
        for scale, repeats in PINNED_REPEATS.items()
    }
    # One repeat per line, so a diff names the repeat that moved.
    scales = [
        f' "{scale}": {{\n'
        + ",\n".join(
            f'  "{name}": [\n'
            + ",\n".join(f"   {json.dumps(counts)}" for counts in repeats)
            + "\n  ]"
            for name, repeats in workloads.items()
        )
        + "\n }"
        for scale, workloads in pinned.items()
    ]
    EXPECTED.write_text("{\n" + ",\n".join(scales) + "\n}\n")
