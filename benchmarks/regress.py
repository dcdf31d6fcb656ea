"""The counts ledger: the named grid points ``BENCH_9.json`` pins.

Each point is one :class:`Row` — a workload registered in
:mod:`repro.harness.workloads`, the parameter points it runs and the
result keys the ledger keeps — run **once** for its counts: the E1–E14
sweeps' building blocks plus the grid points each engine PR opened (n=128
for the polynomial-cost protocols, the oral and agreement-based
key-distribution points, the E12–E14 delivery / adversary / arms-race
cells, the jittered and lossy mux points, the warm-started sweep twins).
The registry is the one place a scenario is run; this file only names
points and projects their counts.  Every run is a pure function of
``(params, master seed)``, so the counts are gated bit-for-bit by
``scripts/bench_check.py``, the only caller; names are stable, and a point
enters or leaves the ledger together with its ``BENCH_9.json`` entry.

This file measures no time.  Wall-clock, throughput and memory claims are
made by ``benchmarks/e2e/`` (``BENCHMARK.json``) and compared against a
parent commit with ``scripts/ab_pairs.py``.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Any

from repro.harness import sizes_with_budgets, standard_sizes, sweep, sweep_prefix_shared


@dataclass(frozen=True)
class Row:
    """One ledger point: ``workload`` run at each of ``points`` (seeds
    included).  ``counts`` lists ledger keys: ``key`` keeps that result
    key, ``key=a+b`` sums result keys ``a`` and ``b``.  A warm-started
    sweep's points fork from one prefix checkpointed at ``prefix_ticks``."""

    name: str
    workload: str
    points: tuple[dict[str, Any], ...]
    counts: str
    prefix_ticks: int | None = None


def _one(name: str, workload: str, counts: str, **params: Any) -> Row:
    """A one-point row; the seed defaults to ``n``."""
    return Row(name, workload, ({"seed": params["n"], **params},), counts)


def _series(name: str, workload: str, counts: str, small: bool, **fixed: Any) -> Row:
    """One point per standard size at ``t = (n-1)//3``, seeded by ``n``."""
    budgeted = sizes_with_budgets(standard_sizes(small))
    return Row(name, workload, tuple(dict(fixed, n=n, t=t, seed=n) for n, t in budgeted), counts)


def _warm_twins(name: str, workload: str, counts: str, timeouts: tuple[int, ...],
                prefix_ticks: int, **base: Any) -> list[Row]:
    """A timeout-axis sweep, warm-started and straight.

    The warm leg runs the deadline-independent prefix once (under a
    timeout wide enough that no deadline fires before the checkpoint)
    and forks the snapshot per timeout value; the ``_straight`` leg
    re-runs every point from tick zero.  Counts must be bit-identical
    across the pair — the resume-equals-straight-run contract, pinned on
    a grid point as well as asserted as a test.
    """
    points = tuple({"seed": base["n"], **base, "timeout": v} for v in timeouts)
    return [Row(name, workload, points, counts, prefix_ticks),
            Row(f"{name}_straight", workload, points, counts)]


#: The ledger keys of the recurring point shapes.  ``engine`` names the
#: mux engine actually used (``REPRO_MUX_ENGINE``): :func:`run_suite`
#: lifts it out of the gated counts, since engines must agree on every
#: count and the label itself must never be compared as one.
AKD = "messages bytes rounds instance_messages=instance_messages_max engine=engine_used"
ORAL = "messages bytes rounds"
KERNEL = "messages rounds ticks"
PARTITION = "messages drops decided"
E13 = "messages drops rounds discovered"
E14 = "messages drops rounds discovered spurious committed"
MUFFLER = dict(delivery="loss:0.3", protocol="timeout", attack="adaptive:silence-muffled")

#: The warm-started sweeps' fork axis: six timeouts just past the
#: 120-tick shared prefix (a restore costs about forty ticks of
#: simulation at any n, so the prefix must be long for warm to win —
#: ``warm-sweep`` in ``benchmarks/e2e/`` times it).
_WARM_TIMEOUTS = (121, 123, 125, 127, 129, 131)

#: The small section's points after the series every section shares.
_SMALL = [
    _one("oral_n13_t3", "oral", ORAL, n=13, t=3, seed=1),
    # The mux hot path at CI size: 7 concurrent OM(2) instances,
    # lock-step and under lossy-jittered / bounded-jitter calendars, so
    # the quick gate exercises per-arrival bucketing on every PR (and,
    # with REPRO_MUX_ENGINE=object, the object oracle too).
    _one("akd_n7_t2", "akd", AKD, n=7, t=2),
    _one("akd_loss_n7_t2", "akd", AKD, n=7, t=2, delivery="loss:0.2:2"),
    _one("akd_bounded2_n7_t2", "akd", AKD, n=7, t=2, delivery="bounded:2"),
    # Kernel general-path points: the same protocols under bounded-delay
    # and rushing delivery models, on the calendar-queue machinery the
    # lock-step fast path skips.
    _one("kernel_oral_bounded2_n13_t3", "e12-oral", KERNEL, n=13, t=3, delivery="bounded:2"),
    _one("kernel_fd_rush_n13_t3", "e12-fd", KERNEL, n=13, t=3, delivery="rush", faulty=1),
    # Unreliable delivery: timeout FD under loss (heartbeat floods
    # through the calendar queue), chain FD under loss, and a
    # partition-heal convergence point.  Drops are seed-derived, so they
    # are gated like messages.
    _one("e13_timeout_loss_n7_t2", "e13-timeout-fd", E13, n=7, t=2, delivery="loss:0.2"),
    _one("e13_chain_loss_n7_t2", "e13-timeout-fd", E13, n=7, t=2, delivery="loss:0.2",
         protocol="chain", faulty=1),
    _one("e13_partition_heal4_n7_t2", "e13-partition", PARTITION, n=7, t=2, heal=4),
    # Arms race: the adaptive FD on the cell where the static horizon is
    # wrong, and the adaptive adversary driving the static FD under loss
    # (committed corruptions are seed-derived too, so they are gated).
    _one("e14_adaptive_bounded12_n7_t2", "e14-adaptive", E14, n=7, t=2, delivery="bounded:12"),
    _one("e14_timeout_vs_muffler_n7_t2", "e14-adaptive", E14, n=7, t=2, **MUFFLER),
    # Warm-started sweep twin: warm and straight counts must be equal.
    *_warm_twins("e13_warm_timeouts_n7_t2", "e13-timeout-fd", E13, (10, 12, 14), 8,
                 n=7, t=2, delivery="loss:0.2:2", faulty=1),
]

#: The full section's points after the series every section shares.
_FULL = [
    # The EIG tree is exponential in t: t=10 at n=32 would mean ~4e14
    # path reports per node, so the oral points stay at t <= 4.
    _one("oral_n16_t4", "oral", ORAL, n=16, t=4, seed=1),
    _one("oral_n32_t3", "oral", ORAL, n=32, t=3, seed=1),
    # n=128 for the polynomial-cost protocols ...
    _one("keydist_n128", "keydist", "messages rounds", n=128),
    _one("fd_chain_n128_t42", "fd", "messages rounds", n=128, t=42),
    _one("ba_signed_n128_t42", "ba", "messages rounds", n=128, t=42, protocol="signed"),
    # ... and for OM(3), which a dict of paths could not hold (~2e6
    # tree paths *per node*).
    _one("oral_n64_t3", "oral", ORAL, n=64, t=3, seed=1),
    _one("oral_n128_t3", "oral", ORAL, n=128, t=3, seed=1),
    # Kernel general-path points at full size.  Under jitter level
    # unanimity breaks, so every node of the two oral points resolves
    # through the full sweep (238k leaves at n=64).
    _one("kernel_oral_bounded2_n32_t3", "e12-oral", KERNEL, n=32, t=3, delivery="bounded:2"),
    _one("kernel_ba_rush_n32_t10", "e12-ba", KERNEL, n=32, t=10, delivery="rush", faulty=2),
    _one("kernel_oral_bounded2_n64_t3", "e12-oral", KERNEL, n=64, t=3, delivery="bounded:2"),
    # Full-size unreliable points: the heartbeat flood scales as
    # n²·timeout and is polynomial, so the grid runs to n=128.
    _one("e13_timeout_loss_n32_t3", "e13-timeout-fd", E13, n=32, t=3, delivery="loss:0.2",
         faulty=1),
    _one("e13_partition_heal6_n32_t3", "e13-partition", PARTITION, n=32, t=3, heal=6),
    _one("e13_timeout_loss_n64_t3", "e13-timeout-fd", E13, n=64, t=3, delivery="loss:0.2",
         faulty=1),
    _one("e13_timeout_loss_n128_t3", "e13-timeout-fd", E13, n=128, t=3, delivery="loss:0.2",
         faulty=1),
    _one("e13_partition_heal6_n64_t3", "e13-partition", PARTITION, n=64, t=3, heal=6),
    # Full-size arms-race points: per-link estimators (n² at n=32) and
    # the deferred-sweep path of the equivocation point.
    _one("e14_adaptive_loss_n32_t3", "e14-adaptive", E14, n=32, t=3, delivery="loss:0.2",
         attack="silent"),
    _one("e14_adaptive_loss_n64_t3", "e14-adaptive", E14, n=64, t=3, delivery="loss:0.2",
         attack="silent"),
    _one("e14_equivocation_heal6_n32_t3", "e14-equivocation", "messages drops decided discovered",
         n=32, t=3, heal=6),
    # Warm-started sweep twins.  The E14 pair's snapshot also carries the
    # adaptive silence-muffler's coordinator state (its observation
    # history and committed-budget ledger) across the fork boundary —
    # the E14 half of the resume contract.
    *_warm_twins("e13_warm_timeouts_n32_t3", "e13-timeout-fd", E13, _WARM_TIMEOUTS, 120,
                 n=32, t=3, delivery="loss:0.2:2", faulty=1),
    *_warm_twins("e14_warm_muffler_n32_t3", "e14-adaptive",
                 "messages drops rounds discovered committed", _WARM_TIMEOUTS, 120,
                 n=32, t=3, **MUFFLER),
    # Agreement-based key distribution at scale: n concurrent OM(t)
    # instances through the instance multiplexer (~6.2M envelopes at
    # n=128).
    _one("akd_n64_t3", "akd", AKD, n=64, t=3),
    _one("akd_n128_t3", "akd", AKD, n=128, t=3),
    # The same mux under degraded calendars.  t=1 keeps these points
    # messaging-dominated — at t>=2 degraded delivery breaks EIG
    # level-unanimity and the resolve sweep joins the bill, which
    # ``akd_loss_n32_t2`` records once (n trees all resolving by sweep).
    # CI's REPRO_MUX_ENGINE=object pass runs all of them on the object
    # engine against the same counts.
    _one("akd_bounded3_n64_t1", "akd", AKD, n=64, t=1, delivery="bounded:3"),
    _one("akd_loss_n64_t1", "akd", AKD, n=64, t=1, delivery="loss:0.05:2"),
    _one("akd_loss_n32_t2", "akd", AKD, n=32, t=2, delivery="loss:0.05:2"),
    _one("akd_bounded3_n128_t1", "akd", AKD, n=128, t=1, delivery="bounded:3"),
    _one("akd_loss_n128_t1", "akd", AKD, n=128, t=1, delivery="loss:0.05:2"),
]


def rows(small: bool) -> list[Row]:
    """The ledger's points for one section.  Names are stable."""
    keydist = tuple({"n": n, "seed": n} for n in standard_sizes(small))
    return [
        Row("keydist_series", "keydist", keydist, "messages rounds"),
        _series("fd_chain_series", "fd", "messages bytes", small, protocol="chain"),
        _series("fd_echo_series", "fd", "messages bytes", small, protocol="echo"),
        _series("e8_rounds_sweep", "e8-rounds", "rounds=keydist_rounds+chain_rounds+echo_rounds",
                small),
        _series("ba_signed_series", "ba", "messages", small, protocol="signed"),
        _one("fd_chain_n32_t10", "fd", "messages rounds", n=32, t=10, seed=1),
        *(_SMALL if small else _FULL),
    ]


def _measure(row: Row) -> dict[str, Any]:
    """Run one row and project its ledger counts.  A one-point row keeps
    each value verbatim (``discovered: true`` stays a bool); a multi-point
    row sums each key across its points."""
    counts: dict[str, Any] = {}
    if row.prefix_ticks is None:
        swept = sweep(row.points, row.workload)
    else:
        sizes: list[int] = []
        widest = 4 * max(point["timeout"] for point in row.points)
        swept = sweep_prefix_shared(
            row.points, row.workload, prefix=dict(row.points[0], timeout=widest),
            prefix_ticks=row.prefix_ticks, on_snapshot=lambda snap: sizes.append(snap.size_bytes),
        )
        counts["snapshot_bytes"] = sizes[0]
    for spec in row.counts.split():
        key, _, sources = spec.partition("=")
        values = [p.result[s] for p in swept for s in (sources or key).split("+")]
        counts[key] = values[0] if len(values) == 1 else sum(values)
    return counts


def run_suite(small: bool) -> dict[str, Any]:
    """Run every point of one section once; return the section's report.

    One line per point is printed as it finishes — its elapsed seconds
    are shown for orientation and never stored or compared.
    """
    results: dict[str, Any] = {}
    for row in rows(small):
        started = time.perf_counter()
        counts = _measure(row)
        elapsed = time.perf_counter() - started
        entry: dict[str, Any] = {"counts": counts}
        # The engine label and the snapshot size are provenance, not gated
        # counts: columnar and object runs of one workload must agree on
        # every *count*, and pickle byte counts can shift across Python
        # versions without any behaviour change — so both live at the
        # entry level, where the comparison never sees them.
        for key in ("engine", "snapshot_bytes"):
            if key in counts:
                entry[key] = counts.pop(key)
        tags = "".join(f"  [{key} {entry[key]}]" for key in entry if key != "counts")
        print(f"  {row.name}: {counts}{tags}  ({elapsed:.2f}s)", flush=True)
        results[row.name] = entry
    return {"schema": 1, "small": small, "python": platform.python_version(),
            "experiments": results}
