"""The counts ledger: the named grid points ``BENCH_9.json`` pins.

A fixed set of experiment workloads — the E1–E14 sweeps' building blocks
plus the grid points each engine PR opened (n=128 for the polynomial-cost
protocols, the oral and agreement-based key-distribution points, the
E12–E14 delivery / adversary / arms-race cells, the jittered and lossy mux
points, the warm-started sweep twins) — each run **once** for its counts.
Every run is a pure function of ``(params, master seed)``, so the counts
are gated bit-for-bit by ``scripts/bench_check.py``, the only caller;
names are stable, and a point enters or leaves the ledger together with
its ``BENCH_9.json`` entry.

This file measures no time.  Wall-clock, throughput and memory claims are
made by ``benchmarks/e2e/`` (``BENCHMARK.json``) and compared against a
parent commit with ``scripts/ab_pairs.py``.
"""

from __future__ import annotations

import platform
import time
from typing import Any, Callable

from repro.agreement import make_oral_agreement_protocols
from repro.auth import run_key_distribution
from repro.harness import (
    GLOBAL,
    run_ba_scenario,
    run_fd_scenario,
    sizes_with_budgets,
    standard_sizes,
    sweep,
    sweep_prefix_shared,
)
from repro.harness.workloads import (
    akd_point,
    e13_partition_point,
    e13_timeout_fd_point,
    e14_adaptive_point,
    e14_equivocation_point,
    get_workload,
)
from repro.sim import run_protocols

#: Count-measuring workloads use the fast HMAC simulation scheme (counts
#: are scheme-independent; benchmark E10 verifies that).
SCHEME = "simulated-hmac"


def _keydist_series(small: bool) -> dict[str, Any]:
    messages = rounds = 0
    for n in standard_sizes(small):
        kd = run_key_distribution(n, scheme=SCHEME, seed=n)
        messages += kd.messages
        rounds += kd.rounds
    return {"messages": messages, "rounds": rounds}


def _fd_series(small: bool, protocol: str) -> dict[str, Any]:
    messages = bytes_total = 0
    for n, t in sizes_with_budgets(standard_sizes(small)):
        if protocol == "chain":
            outcome = run_fd_scenario(
                n, t, "v", protocol=protocol, auth=GLOBAL, scheme=SCHEME, seed=n
            )
        else:
            outcome = run_fd_scenario(n, t, "v", protocol=protocol, seed=n)
        metrics = outcome.run.metrics
        messages += metrics.messages_total
        bytes_total += metrics.bytes_total
    return {"messages": messages, "bytes": bytes_total}


def _e8_rounds_sweep(small: bool) -> dict[str, Any]:
    rounds = 0
    for n, t in sizes_with_budgets(standard_sizes(small)):
        kd = run_key_distribution(n, scheme=SCHEME, seed=n)
        chain = run_fd_scenario(
            n, t, "v", protocol="chain", auth=GLOBAL, scheme=SCHEME, seed=n
        )
        echo = run_fd_scenario(n, t, "v", protocol="echo", seed=n)
        rounds += (
            kd.rounds + chain.run.metrics.rounds_used + echo.run.metrics.rounds_used
        )
    return {"rounds": rounds}


def _ba_signed_series(small: bool) -> dict[str, Any]:
    messages = 0
    for n, t in sizes_with_budgets(standard_sizes(small)):
        outcome = run_ba_scenario(
            n, t, "v", protocol="signed", auth=GLOBAL, scheme=SCHEME, seed=n
        )
        messages += outcome.run.metrics.messages_total
    return {"messages": messages}


def _oral(n: int, t: int) -> dict[str, Any]:
    run = run_protocols(make_oral_agreement_protocols(n, t, "v"), seed=1)
    return {
        "messages": run.metrics.messages_total,
        "bytes": run.metrics.bytes_total,
        "rounds": run.metrics.rounds_used,
    }


def _fd_chain_deep() -> dict[str, Any]:
    outcome = run_fd_scenario(
        32, 10, "v", protocol="chain", auth=GLOBAL, scheme=SCHEME, seed=1
    )
    return {
        "messages": outcome.run.metrics.messages_total,
        "rounds": outcome.run.metrics.rounds_used,
    }


def _keydist_n128() -> dict[str, Any]:
    kd = run_key_distribution(128, scheme=SCHEME, seed=128)
    return {"messages": kd.messages, "rounds": kd.rounds}


def _fd_chain_n128() -> dict[str, Any]:
    outcome = run_fd_scenario(
        128, 42, "v", protocol="chain", auth=GLOBAL, scheme=SCHEME, seed=128
    )
    return {
        "messages": outcome.run.metrics.messages_total,
        "rounds": outcome.run.metrics.rounds_used,
    }


def _ba_signed_n128() -> dict[str, Any]:
    outcome = run_ba_scenario(
        128, 42, "v", protocol="signed", auth=GLOBAL, scheme=SCHEME, seed=128
    )
    return {
        "messages": outcome.run.metrics.messages_total,
        "rounds": outcome.run.metrics.rounds_used,
    }


def _akd(n: int, t: int, delivery: "str | None" = None) -> dict[str, Any]:
    """One agreement-based key-distribution mux run (flat counts) on the
    default mux engine (``REPRO_MUX_ENGINE``).  The reserved ``engine``
    key names the engine actually used — :func:`run_suite` lifts it out
    of the gated counts (engines must agree on every count, so the
    label itself must never be compared as one).
    """
    result = akd_point(n, t, seed=n, delivery=delivery)
    return {
        "messages": result["messages"],
        "bytes": result["bytes"],
        "rounds": result["rounds"],
        "instance_messages": result["instance_messages_max"],
        "engine": result["engine_used"],
    }


def _kernel_delivery(workload: str, n: int, t: int, delivery: str, faulty: int) -> dict[str, Any]:
    """One E12 point on the kernel's general (non-lock-step) event path.

    These experiments exercise the calendar-queue machinery the
    lock-step fast path skips; their counts are as deterministic as
    every other experiment's (delivery jitter is seed-derived).
    """
    result = get_workload(workload)(n, t, delivery=delivery, faulty=faulty, seed=n)
    return {
        "messages": result["messages"],
        "rounds": result["rounds"],
        "ticks": result["ticks"],
    }


def _e13_fd(protocol: str, n: int, t: int, delivery: str, faulty: int) -> dict[str, Any]:
    """One E13 FD point (chain or timeout) under unreliable delivery.

    Drops are seed-derived, so the drop counts are as deterministic as
    the message counts — both are gated.
    """
    result = e13_timeout_fd_point(
        n, t, delivery=delivery, protocol=protocol, faulty=faulty, seed=n
    )
    return {
        "messages": result["messages"],
        "drops": result["drops"],
        "rounds": result["rounds"],
        "discovered": result["discovered"],
    }


def _e13_partition(n: int, t: int, heal: int) -> dict[str, Any]:
    """One E13 partition-heal point (timeout FD, defer mode)."""
    result = e13_partition_point(n, t, heal=heal, defer=True, seed=n)
    return {
        "messages": result["messages"],
        "drops": result["drops"],
        "decided": result["decided"],
    }


def _e14_fd(
    protocol: str, n: int, t: int, delivery: str, attack: str
) -> dict[str, Any]:
    """One E14 arms-race point: (defence protocol, delivery, attack).

    Committed corruptions are seed-derived like drops, so the committed
    count is gated alongside messages/rounds.
    """
    result = e14_adaptive_point(
        n, t, delivery=delivery, protocol=protocol, attack=attack, seed=n
    )
    return {
        "messages": result["messages"],
        "drops": result["drops"],
        "rounds": result["rounds"],
        "discovered": result["discovered"],
        "spurious": result["spurious"],
        "committed": result["committed"],
    }


def _e14_equivocation(n: int, t: int, heal: int) -> dict[str, Any]:
    """One E14 partition-equivocation point (adaptive FD, defer mode)."""
    result = e14_equivocation_point(n, t, heal=heal, defer=True, seed=n)
    return {
        "messages": result["messages"],
        "drops": result["drops"],
        "decided": result["decided"],
        "discovered": result["discovered"],
    }


def _warm_timeout_sweep(
    n: int, t: int, timeouts: tuple[int, ...], prefix_ticks: int, warm: bool
) -> dict[str, Any]:
    """One E13 timeout-axis sweep, warm-started or straight.

    The warm leg runs the deadline-independent prefix once (under a
    timeout wide enough that no deadline fires before the checkpoint)
    and forks the snapshot per timeout value; the straight leg re-runs
    every point from tick zero.  Counts must be bit-identical across
    the ``X`` / ``X_straight`` pair — the resume-equals-straight-run
    contract, pinned on a grid point as well as asserted as a test.
    """
    base = dict(
        n=n, t=t, delivery="loss:0.2:2", protocol="timeout", faulty=1, seed=n
    )
    points = [dict(base, timeout=v) for v in timeouts]
    counts: dict[str, Any] = {}
    if warm:
        sizes: list[int] = []
        swept = sweep_prefix_shared(
            points,
            "e13-timeout-fd",
            prefix=dict(base, timeout=4 * max(timeouts)),
            prefix_ticks=prefix_ticks,
            on_snapshot=lambda snap: sizes.append(snap.size_bytes),
        )
        counts["snapshot_bytes"] = sizes[0]
    else:
        swept = sweep(points, "e13-timeout-fd")
    counts["messages"] = sum(p.result["messages"] for p in swept)
    counts["drops"] = sum(p.result["drops"] for p in swept)
    counts["rounds"] = sum(p.result["rounds"] for p in swept)
    counts["discovered"] = sum(p.result["discovered"] for p in swept)
    return counts


def _warm_adaptive_sweep(
    n: int, t: int, timeouts: tuple[int, ...], prefix_ticks: int, warm: bool
) -> dict[str, Any]:
    """One E14 timeout-axis sweep vs an *adaptive* adversary.

    Same twin contract as :func:`_warm_timeout_sweep`, but the snapshot
    additionally carries the adaptive silence-muffler's coordinator
    state (its observation history and committed-budget ledger) across
    the fork boundary — the E14 half of the resume contract.
    """
    base = dict(
        n=n, t=t, delivery="loss:0.3", protocol="timeout",
        attack="adaptive:silence-muffled", seed=n,
    )
    points = [dict(base, timeout=v) for v in timeouts]
    counts: dict[str, Any] = {}
    if warm:
        sizes: list[int] = []
        swept = sweep_prefix_shared(
            points,
            "e14-adaptive",
            prefix=dict(base, timeout=4 * max(timeouts)),
            prefix_ticks=prefix_ticks,
            on_snapshot=lambda snap: sizes.append(snap.size_bytes),
        )
        counts["snapshot_bytes"] = sizes[0]
    else:
        swept = sweep(points, "e14-adaptive")
    counts["messages"] = sum(p.result["messages"] for p in swept)
    counts["drops"] = sum(p.result["drops"] for p in swept)
    counts["rounds"] = sum(p.result["rounds"] for p in swept)
    counts["discovered"] = sum(p.result["discovered"] for p in swept)
    counts["committed"] = sum(p.result["committed"] for p in swept)
    return counts


Point = tuple[str, Callable[[], dict[str, Any]]]

#: The warm-started sweeps' fork axis: six timeouts just past the
#: 120-tick shared prefix (a restore costs about forty ticks of
#: simulation at any n, so the prefix must be long for warm to win —
#: ``warm-sweep`` in ``benchmarks/e2e/`` times it).
_WARM_TIMEOUTS = (121, 123, 125, 127, 129, 131)


def experiments(small: bool) -> list[Point]:
    """The ledger's points for one section.  Names are stable."""
    suite: list[Point] = [
        ("keydist_series", lambda: _keydist_series(small)),
        ("fd_chain_series", lambda: _fd_series(small, "chain")),
        ("fd_echo_series", lambda: _fd_series(small, "echo")),
        ("e8_rounds_sweep", lambda: _e8_rounds_sweep(small)),
        ("ba_signed_series", lambda: _ba_signed_series(small)),
        ("fd_chain_n32_t10", _fd_chain_deep),
    ]
    if small:
        return suite + [
            ("oral_n13_t3", lambda: _oral(13, 3)),
            # The mux hot path at CI size: 7 concurrent OM(2) instances,
            # lock-step and under lossy-jittered / bounded-jitter
            # calendars, so the quick gate exercises per-arrival
            # bucketing on every PR (and, with REPRO_MUX_ENGINE=object,
            # the object oracle too).
            ("akd_n7_t2", lambda: _akd(7, 2)),
            ("akd_loss_n7_t2", lambda: _akd(7, 2, delivery="loss:0.2:2")),
            ("akd_bounded2_n7_t2", lambda: _akd(7, 2, delivery="bounded:2")),
            # Kernel general-path points: the same protocols under
            # bounded-delay and rushing delivery models.
            ("kernel_oral_bounded2_n13_t3",
             lambda: _kernel_delivery("e12-oral", 13, 3, "bounded:2", 0)),
            ("kernel_fd_rush_n13_t3",
             lambda: _kernel_delivery("e12-fd", 13, 3, "rush", 1)),
            # Unreliable delivery: timeout FD under loss (heartbeat
            # floods through the calendar queue), chain FD under loss,
            # and a partition-heal convergence point.
            ("e13_timeout_loss_n7_t2", lambda: _e13_fd("timeout", 7, 2, "loss:0.2", 0)),
            ("e13_chain_loss_n7_t2", lambda: _e13_fd("chain", 7, 2, "loss:0.2", 1)),
            ("e13_partition_heal4_n7_t2", lambda: _e13_partition(7, 2, 4)),
            # Arms race: the adaptive FD on the cell where the static
            # horizon is wrong, and the adaptive adversary driving the
            # static FD under loss.
            ("e14_adaptive_bounded12_n7_t2",
             lambda: _e14_fd("adaptive", 7, 2, "bounded:12", "none")),
            ("e14_timeout_vs_muffler_n7_t2",
             lambda: _e14_fd("timeout", 7, 2, "loss:0.3", "adaptive:silence-muffled")),
            # Warm-started sweep twin: warm and straight counts must be
            # bit-identical.
            ("e13_warm_timeouts_n7_t2",
             lambda: _warm_timeout_sweep(7, 2, (10, 12, 14), 8, True)),
            ("e13_warm_timeouts_n7_t2_straight",
             lambda: _warm_timeout_sweep(7, 2, (10, 12, 14), 8, False)),
        ]
    return suite + [
        # The EIG tree is exponential in t: t=10 at n=32 would mean ~4e14
        # path reports per node, so the oral points stay at t <= 4.
        ("oral_n16_t4", lambda: _oral(16, 4)),
        ("oral_n32_t3", lambda: _oral(32, 3)),
        # n=128 for the polynomial-cost protocols ...
        ("keydist_n128", _keydist_n128),
        ("fd_chain_n128_t42", _fd_chain_n128),
        ("ba_signed_n128_t42", _ba_signed_n128),
        # ... and for OM(3), which a dict of paths could not hold (~2e6
        # tree paths *per node*).
        ("oral_n64_t3", lambda: _oral(64, 3)),
        ("oral_n128_t3", lambda: _oral(128, 3)),
        # Kernel general-path points at full size.  Under jitter level
        # unanimity breaks, so every node of the two oral points resolves
        # through the full sweep (238k leaves at n=64).
        ("kernel_oral_bounded2_n32_t3",
         lambda: _kernel_delivery("e12-oral", 32, 3, "bounded:2", 0)),
        ("kernel_ba_rush_n32_t10",
         lambda: _kernel_delivery("e12-ba", 32, 10, "rush", 2)),
        ("kernel_oral_bounded2_n64_t3",
         lambda: _kernel_delivery("e12-oral", 64, 3, "bounded:2", 0)),
        # Full-size unreliable points: the heartbeat flood scales as
        # n²·timeout and is polynomial, so the grid runs to n=128.
        ("e13_timeout_loss_n32_t3", lambda: _e13_fd("timeout", 32, 3, "loss:0.2", 1)),
        ("e13_partition_heal6_n32_t3", lambda: _e13_partition(32, 3, 6)),
        ("e13_timeout_loss_n64_t3", lambda: _e13_fd("timeout", 64, 3, "loss:0.2", 1)),
        ("e13_timeout_loss_n128_t3", lambda: _e13_fd("timeout", 128, 3, "loss:0.2", 1)),
        ("e13_partition_heal6_n64_t3", lambda: _e13_partition(64, 3, 6)),
        # Full-size arms-race points: per-link estimators (n² at n=32)
        # and the deferred-sweep path of the equivocation point.
        ("e14_adaptive_loss_n32_t3",
         lambda: _e14_fd("adaptive", 32, 3, "loss:0.2", "silent")),
        ("e14_adaptive_loss_n64_t3",
         lambda: _e14_fd("adaptive", 64, 3, "loss:0.2", "silent")),
        ("e14_equivocation_heal6_n32_t3", lambda: _e14_equivocation(32, 3, 6)),
        # Warm-started sweep twins: each ``X`` / ``X_straight`` pair runs
        # one parameter sweep prefix-shared and from tick zero; their
        # counts must match bit-for-bit.
        ("e13_warm_timeouts_n32_t3",
         lambda: _warm_timeout_sweep(32, 3, _WARM_TIMEOUTS, 120, True)),
        ("e13_warm_timeouts_n32_t3_straight",
         lambda: _warm_timeout_sweep(32, 3, _WARM_TIMEOUTS, 120, False)),
        ("e14_warm_muffler_n32_t3",
         lambda: _warm_adaptive_sweep(32, 3, _WARM_TIMEOUTS, 120, True)),
        ("e14_warm_muffler_n32_t3_straight",
         lambda: _warm_adaptive_sweep(32, 3, _WARM_TIMEOUTS, 120, False)),
        # Agreement-based key distribution at scale: n concurrent OM(t)
        # instances through the instance multiplexer (~6.2M envelopes at
        # n=128).
        ("akd_n64_t3", lambda: _akd(64, 3)),
        ("akd_n128_t3", lambda: _akd(128, 3)),
        # The same mux under degraded calendars.  t=1 keeps these points
        # messaging-dominated — at t>=2 degraded delivery breaks EIG
        # level-unanimity and the resolve sweep joins the bill, which
        # ``akd_loss_n32_t2`` records once (n trees all resolving by
        # sweep).  CI's REPRO_MUX_ENGINE=object pass runs all of them on
        # the object engine against the same counts.
        ("akd_bounded3_n64_t1", lambda: _akd(64, 1, delivery="bounded:3")),
        ("akd_loss_n64_t1", lambda: _akd(64, 1, delivery="loss:0.05:2")),
        ("akd_loss_n32_t2", lambda: _akd(32, 2, delivery="loss:0.05:2")),
        ("akd_bounded3_n128_t1", lambda: _akd(128, 1, delivery="bounded:3")),
        ("akd_loss_n128_t1", lambda: _akd(128, 1, delivery="loss:0.05:2")),
    ]


def run_suite(small: bool) -> dict[str, Any]:
    """Run every point of one section once; return the section's report.

    One line per point is printed as it finishes — its elapsed seconds
    are shown for orientation and never stored or compared.
    """
    results: dict[str, Any] = {}
    for name, fn in experiments(small):
        started = time.perf_counter()
        counts = fn()
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
        print(f"  {name}: {counts}{tags}  ({elapsed:.2f}s)", flush=True)
        results[name] = entry
    return {
        "schema": 1,
        "small": small,
        "python": platform.python_version(),
        "experiments": results,
    }
