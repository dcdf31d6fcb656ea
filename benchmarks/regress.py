#!/usr/bin/env python
"""Wall-clock regression runner: measure the hot paths, emit ``BENCH_9.json``.

Runs a fixed set of experiment workloads (the E1–E11 sweeps' building
blocks plus the known hot spots), times each one, and writes a JSON report
so performance has a recorded trajectory PRs can be compared against.

Usage::

    PYTHONPATH=src python benchmarks/regress.py                 # full sizes
    PYTHONPATH=src python benchmarks/regress.py --small         # CI-sized
    PYTHONPATH=src python benchmarks/regress.py --out BENCH_9.json

Point ``PYTHONPATH`` at any other source tree (for example a seed-commit
worktree) to measure the same workloads on older code: the baseline
experiment set only uses APIs present since the seed, so those numbers
are directly comparable.  The *extended grid* (n=128 points for the
polynomial-cost protocols, the n=128/t=3 oral point only the succinct
engine makes feasible, the agreement-based key-distribution mux
points only the instance multiplexer makes expressible, the E13
unreliable-delivery points only the adversary plane makes expressible,
the E14 arms-race points only the adaptive FD makes expressible, the
jittered/lossy mux points only the arrival-columned batch plane
makes affordable, and the warm-started sweep twins only the kernel
checkpoint/resume machinery makes expressible)
is added when the running source tree supports it — old trees simply
measure fewer experiments, and the comparison intersects by name.
``scripts/bench_check.py`` wraps this runner with wall-clock and memory
regression gates.

Methodology: each experiment runs ``--repeats`` times in-process and
records the best time (robust against scheduler noise; caches are part of
the engine under measurement, so warm repeats are the steady state being
reported).  Counts are captured from the last run as a determinism
cross-check — they must be identical on every code version.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

try:  # allow running without an explicit PYTHONPATH from the repo root
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.agreement import make_oral_agreement_protocols
from repro.auth import run_key_distribution
from repro.harness import run_ba_scenario, run_fd_scenario, sizes_with_budgets
from repro.sim import run_protocols

try:  # extended grid: succinct EIG engine (PR 2+ source trees only)
    from repro.agreement import eigtree as _eigtree  # noqa: F401

    HAS_SUCCINCT_ENGINE = True
except ImportError:  # pragma: no cover - only on old source trees
    HAS_SUCCINCT_ENGINE = False

try:  # AKD mux grid: instance multiplexer (PR 3+ source trees only)
    from repro.sim import multiplex as _multiplex  # noqa: F401

    HAS_INSTANCE_MUX = True
except ImportError:  # pragma: no cover - only on old source trees
    HAS_INSTANCE_MUX = False

try:  # delivery-model grid: event kernel (PR 4+ source trees only)
    from repro.sim import network as _network  # noqa: F401

    HAS_EVENT_KERNEL = True
except ImportError:  # pragma: no cover - only on old source trees
    HAS_EVENT_KERNEL = False

try:  # unreliable-delivery grid: adversary plane (PR 5+ source trees only)
    from repro.faults import adversary as _adversary  # noqa: F401

    HAS_ADVERSARY_PLANE = True
except ImportError:  # pragma: no cover - only on old source trees
    HAS_ADVERSARY_PLANE = False

try:  # arms-race grid: adaptive FD (PR 6+ source trees only)
    from repro.fd import adaptive as _adaptive  # noqa: F401

    HAS_ADAPTIVE_FD = True
except ImportError:  # pragma: no cover - only on old source trees
    HAS_ADAPTIVE_FD = False

# Jittered/lossy mux grid: arrival-columned batch plane (PR 8+ source
# trees only) — older trees fall back to the object path under these
# delivery models, which is exactly what the ``*_object`` twins measure.
HAS_BATCH_ARRIVALS = HAS_EVENT_KERNEL and hasattr(
    getattr(_network, "DeliveryModel", None), "batch_arrivals"
)

try:  # warm-started sweeps: kernel checkpoint/resume (PR 10+ source trees)
    from repro.sim import snapshot as _snapshot  # noqa: F401

    HAS_SNAPSHOT = True
except ImportError:  # pragma: no cover - only on old source trees
    HAS_SNAPSHOT = False

#: Count-measuring workloads use the fast HMAC simulation scheme (counts
#: are scheme-independent; benchmark E10 verifies that).
SCHEME = "simulated-hmac"

GLOBAL = "global"


def _sizes(small: bool) -> list[int]:
    # Inlined standard_sizes so older source trees measure identical points.
    return [4, 8, 16] if small else [4, 8, 16, 32, 64]


def _keydist_series(small: bool) -> dict[str, Any]:
    messages = rounds = 0
    for n in _sizes(small):
        kd = run_key_distribution(n, scheme=SCHEME, seed=n)
        messages += kd.messages
        rounds += kd.rounds
    return {"messages": messages, "rounds": rounds}


def _fd_series(small: bool, protocol: str) -> dict[str, Any]:
    messages = bytes_total = 0
    for n, t in sizes_with_budgets(_sizes(small)):
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
    for n, t in sizes_with_budgets(_sizes(small)):
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
    for n, t in sizes_with_budgets(_sizes(small)):
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


def _akd(
    n: int,
    t: int,
    delivery: "str | None" = None,
    engine: "str | None" = None,
) -> dict[str, Any]:
    """One agreement-based key-distribution mux run (flat counts).

    ``delivery``/``engine`` require the arrival-columned source tree
    (:data:`HAS_BATCH_ARRIVALS`); the default lock-step point runs on
    any tree with the instance mux.  The reserved ``engine`` key names
    the mux engine actually used — :func:`run_suite` lifts it out of
    the gated counts (engines must agree on every count, so the engine
    label itself must never be compared as one).
    """
    from repro.harness.workloads import akd_point

    kwargs: dict[str, Any] = {}
    if delivery is not None:
        kwargs["delivery"] = delivery
    if engine is not None:
        kwargs["engine"] = engine
    result = akd_point(n, t, seed=n, **kwargs)
    counts = {
        "messages": result["messages"],
        "bytes": result["bytes"],
        "rounds": result["rounds"],
        "instance_messages": result["instance_messages_max"],
    }
    engine_used = result.get("engine_used")
    if engine_used is not None:
        counts["engine"] = engine_used
    return counts


def _kernel_delivery(workload: str, n: int, t: int, delivery: str, faulty: int) -> dict[str, Any]:
    """One E12 point on the kernel's general (non-lock-step) event path.

    These experiments exercise the calendar-queue machinery the
    lock-step fast path skips; their counts are as deterministic as
    every other experiment's (delivery jitter is seed-derived).
    """
    from repro.harness.workloads import get_workload

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
    from repro.harness.workloads import e13_timeout_fd_point

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
    from repro.harness.workloads import e13_partition_point

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
    from repro.harness.workloads import e14_adaptive_point

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
    from repro.harness.workloads import e14_equivocation_point

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
    contract, measured as a benchmark instead of asserted as a test.
    """
    from repro.harness import sweep, sweep_prefix_shared

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
    from repro.harness import sweep, sweep_prefix_shared

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


#: Experiments too heavy for best-of-``--repeats`` timing: measured once.
#: Bounds the full-suite wall-clock; single-shot numbers are noisier, so
#: the gate only ever compares these by *count* (full sections are
#: refreshed, not regression-gated).  ``akd_n128_t3`` graduated out when
#: the columnar mux engine brought it from ~83s to single digits — it
#: now affords best-of-repeats like every other point.  The n=128
#: object-engine twins of the jittered/lossy mux pairs are here by
#: design: they time the *reference* path the columnar engine is gated
#: against (~20-25s each), so they run once and their counts — which
#: must match the columnar run bit-for-bit — do the regression work.
#: The ``*_straight`` twins of the warm-started sweeps join them for the
#: same reason: they time the cold re-run reference path the warm path
#: is gated against, so they run once and their counts — which must
#: match the warm run bit-for-bit — do the regression work.
HEAVY_EXPERIMENTS: set[str] = {
    "akd_bounded3_n128_t1_object",
    "akd_loss_n128_t1_object",
    "e13_warm_timeouts_n32_t3_straight",
    "e14_warm_muffler_n32_t3_straight",
}


def experiments(small: bool) -> list[tuple[str, Callable[[], dict[str, Any]]]]:
    """The measured workload set.  Names are stable across code versions."""
    suite: list[tuple[str, Callable[[], dict[str, Any]]]] = [
        ("keydist_series", lambda: _keydist_series(small)),
        ("fd_chain_series", lambda: _fd_series(small, "chain")),
        ("fd_echo_series", lambda: _fd_series(small, "echo")),
        ("e8_rounds_sweep", lambda: _e8_rounds_sweep(small)),
        ("ba_signed_series", lambda: _ba_signed_series(small)),
        ("fd_chain_n32_t10", _fd_chain_deep),
    ]
    if small:
        suite.append(("oral_n13_t3", lambda: _oral(13, 3)))
        if HAS_INSTANCE_MUX:
            # The mux hot path at CI size: 7 concurrent OM(2) instances.
            suite.append(("akd_n7_t2", lambda: _akd(7, 2)))
        if HAS_BATCH_ARRIVALS:
            # Arrival-columned points at CI size: the same mux under
            # lossy-jittered and bounded-jitter calendars, so the quick
            # gate exercises per-arrival bucketing on every PR (and,
            # with REPRO_MUX_ENGINE=object, the object oracle too).
            suite.append(
                ("akd_loss_n7_t2", lambda: _akd(7, 2, delivery="loss:0.2:2"))
            )
            suite.append(
                ("akd_bounded2_n7_t2", lambda: _akd(7, 2, delivery="bounded:2"))
            )
        if HAS_EVENT_KERNEL:
            # Kernel general-path points at CI size: the same protocols
            # under bounded-delay and rushing delivery models.
            suite.append(
                ("kernel_oral_bounded2_n13_t3",
                 lambda: _kernel_delivery("e12-oral", 13, 3, "bounded:2", 0))
            )
            suite.append(
                ("kernel_fd_rush_n13_t3",
                 lambda: _kernel_delivery("e12-fd", 13, 3, "rush", 1))
            )
        if HAS_ADVERSARY_PLANE:
            # Unreliable-delivery points at CI size: timeout FD under
            # loss (the E13 hot path — heartbeat floods through the
            # calendar queue) and a partition-heal convergence point.
            suite.append(
                ("e13_timeout_loss_n7_t2",
                 lambda: _e13_fd("timeout", 7, 2, "loss:0.2", 0))
            )
            suite.append(
                ("e13_chain_loss_n7_t2",
                 lambda: _e13_fd("chain", 7, 2, "loss:0.2", 1))
            )
            suite.append(
                ("e13_partition_heal4_n7_t2", lambda: _e13_partition(7, 2, 4))
            )
        if HAS_ADAPTIVE_FD:
            # Arms-race points at CI size: the adaptive FD on the cell
            # where the static horizon is wrong, and the adaptive
            # adversary driving the static FD under loss.
            suite.append(
                ("e14_adaptive_bounded12_n7_t2",
                 lambda: _e14_fd("adaptive", 7, 2, "bounded:12", "none"))
            )
            suite.append(
                ("e14_timeout_vs_muffler_n7_t2",
                 lambda: _e14_fd(
                     "timeout", 7, 2, "loss:0.3", "adaptive:silence-muffled"
                 ))
            )
        if HAS_SNAPSHOT:
            # Warm-started sweep twin at CI size: the quick gate pins
            # the warm/straight counts bit-identical on every PR (the
            # wall-clock ratio is only gated at full size, where the
            # prefix is long enough to dominate).
            suite.append(
                ("e13_warm_timeouts_n7_t2",
                 lambda: _warm_timeout_sweep(7, 2, (10, 12, 14), 8, True))
            )
            suite.append(
                ("e13_warm_timeouts_n7_t2_straight",
                 lambda: _warm_timeout_sweep(7, 2, (10, 12, 14), 8, False))
            )
    else:
        # n=32, t=3 is the dense-era EIG hot spot at a feasible fault
        # budget.  The tree is exponential in t: t=10 at n=32 would mean
        # ~4e14 path reports per node — see PERFORMANCE.md.
        suite.append(("oral_n16_t4", lambda: _oral(16, 4)))
        suite.append(("oral_n32_t3", lambda: _oral(32, 3)))
        # Extended grid: n=128 for the polynomial-cost protocols (key
        # distribution, chain FD, signed BA) runs on any source tree ...
        suite.append(("keydist_n128", _keydist_n128))
        suite.append(("fd_chain_n128_t42", _fd_chain_n128))
        suite.append(("ba_signed_n128_t42", _ba_signed_n128))
        if HAS_SUCCINCT_ENGINE:
            # ... while the oral n=128 points exist only where the
            # succinct engine does: the dense engine would materialize
            # ~2e6 tree paths *per node* here (hundreds of GiB).
            suite.append(("oral_n64_t3", lambda: _oral(64, 3)))
            suite.append(("oral_n128_t3", lambda: _oral(128, 3)))
        if HAS_EVENT_KERNEL:
            # Kernel general-path points at full size: calendar-queue
            # overhead is measured where it actually runs (the lock-step
            # experiments above measure the fast path's zero-overhead
            # claim instead).
            suite.append(
                ("kernel_oral_bounded2_n32_t3",
                 lambda: _kernel_delivery("e12-oral", 32, 3, "bounded:2", 0))
            )
            suite.append(
                ("kernel_ba_rush_n32_t10",
                 lambda: _kernel_delivery("e12-ba", 32, 10, "rush", 2))
            )
            if HAS_SUCCINCT_ENGINE:
                # Jitter breaks level-unanimity, so every node resolves
                # through the full sweep over 238k leaves: the frontier
                # the columnar store opened (13.5 s / 948 MiB with
                # per-path filing and lookup).
                suite.append(
                    ("kernel_oral_bounded2_n64_t3",
                     lambda: _kernel_delivery("e12-oral", 64, 3, "bounded:2", 0))
                )
        if HAS_ADVERSARY_PLANE:
            # Full-size unreliable points: the heartbeat flood scales as
            # n²·timeout, so n=32 is where the drop bookkeeping earns
            # its keep in the wall-clock record.
            suite.append(
                ("e13_timeout_loss_n32_t3",
                 lambda: _e13_fd("timeout", 32, 3, "loss:0.2", 1))
            )
            suite.append(
                ("e13_partition_heal6_n32_t3",
                 lambda: _e13_partition(32, 3, 6))
            )
            # E13 grid promoted past its historical n=32 pin: the FD
            # heartbeat flood is polynomial, so n=64/128 cells are
            # cheap — recording them alongside the mux points keeps the
            # whole unreliable grid on one scale.
            suite.append(
                ("e13_timeout_loss_n64_t3",
                 lambda: _e13_fd("timeout", 64, 3, "loss:0.2", 1))
            )
            suite.append(
                ("e13_timeout_loss_n128_t3",
                 lambda: _e13_fd("timeout", 128, 3, "loss:0.2", 1))
            )
            suite.append(
                ("e13_partition_heal6_n64_t3",
                 lambda: _e13_partition(64, 3, 6))
            )
        if HAS_ADAPTIVE_FD:
            # Full-size arms-race points: the adaptive FD's estimator
            # bookkeeping is per-link (n² estimators at n=32), and the
            # equivocation point exercises the deferred-sweep path.
            suite.append(
                ("e14_adaptive_loss_n32_t3",
                 lambda: _e14_fd("adaptive", 32, 3, "loss:0.2", "silent"))
            )
            suite.append(
                ("e14_adaptive_loss_n64_t3",
                 lambda: _e14_fd("adaptive", 64, 3, "loss:0.2", "silent"))
            )
            suite.append(
                ("e14_equivocation_heal6_n32_t3",
                 lambda: _e14_equivocation(32, 3, 6))
            )
        if HAS_SNAPSHOT:
            # Warm-started sweep twins: each ``X`` / ``X_straight`` pair
            # runs the same parameter sweep prefix-shared and from tick
            # zero.  Counts must match bit-for-bit (gated like every
            # other count); the seconds ratio straight/warm is the
            # speedup evidence scripts/bench_check.py gates with
            # ``--min-warm-ratio``.  The prefix must be long relative
            # to a snapshot restore for warm to win — unpickling the
            # kernel costs roughly forty ticks of simulation at any n
            # (state size and per-tick cost both scale as n²; twenty
            # before PR 18 halved the cost of a tick) — so the fork
            # axis sits just past a 120-tick shared prefix.
            suite.append(
                ("e13_warm_timeouts_n32_t3",
                 lambda: _warm_timeout_sweep(
                     32, 3, (121, 123, 125, 127, 129, 131), 120, True))
            )
            suite.append(
                ("e13_warm_timeouts_n32_t3_straight",
                 lambda: _warm_timeout_sweep(
                     32, 3, (121, 123, 125, 127, 129, 131), 120, False))
            )
            suite.append(
                ("e14_warm_muffler_n32_t3",
                 lambda: _warm_adaptive_sweep(
                     32, 3, (121, 123, 125, 127, 129, 131), 120, True))
            )
            suite.append(
                ("e14_warm_muffler_n32_t3_straight",
                 lambda: _warm_adaptive_sweep(
                     32, 3, (121, 123, 125, 127, 129, 131), 120, False))
            )
        if HAS_INSTANCE_MUX and HAS_SUCCINCT_ENGINE:
            # Agreement-based key distribution at scale: n concurrent
            # OM(t) instances through the instance multiplexer.  The
            # n=128 point was infeasible before this pairing — 128
            # instances x dense trees; the succinct engine made it run
            # (~6.2M envelopes, ~83s), and the columnar mux engine made
            # it cheap enough for best-of-repeats timing.
            suite.append(("akd_n64_t3", lambda: _akd(64, 3)))
            suite.append(("akd_n128_t3", lambda: _akd(128, 3)))
        if HAS_BATCH_ARRIVALS:
            # The arrival-columned grid: the same mux under degraded
            # calendars, which before this plane silently fell back to
            # per-envelope objects.  t=1 keeps the engine pairs
            # messaging-dominated — at t>=2 degraded delivery breaks
            # EIG level-unanimity and the (mux-engine-independent)
            # resolve sweep joins both engines' bill, diluting the
            # comparison the ``*_object`` twins exist for.  The n=128
            # columnar-vs-object pairs are the gated speedup evidence
            # (see scripts/bench_check.py --ratios); the n=64 points
            # extend the grid at best-of-repeats cost, and
            # ``akd_loss_n32_t2`` records one degraded t=2 point — n
            # trees all resolving by sweep.
            suite.append(
                ("akd_bounded3_n64_t1",
                 lambda: _akd(64, 1, delivery="bounded:3"))
            )
            suite.append(
                ("akd_loss_n64_t1",
                 lambda: _akd(64, 1, delivery="loss:0.05:2"))
            )
            suite.append(
                ("akd_loss_n32_t2",
                 lambda: _akd(32, 2, delivery="loss:0.05:2"))
            )
            suite.append(
                ("akd_bounded3_n128_t1",
                 lambda: _akd(128, 1, delivery="bounded:3"))
            )
            suite.append(
                ("akd_bounded3_n128_t1_object",
                 lambda: _akd(128, 1, delivery="bounded:3", engine="object"))
            )
            suite.append(
                ("akd_loss_n128_t1",
                 lambda: _akd(128, 1, delivery="loss:0.05:2"))
            )
            suite.append(
                ("akd_loss_n128_t1_object",
                 lambda: _akd(128, 1, delivery="loss:0.05:2", engine="object"))
            )
    return suite


def run_suite(small: bool = False, repeats: int = 3) -> dict[str, Any]:
    """Time every experiment; return the report dict.

    Experiments in :data:`HEAVY_EXPERIMENTS` run once regardless of
    ``repeats`` (single-shot wall-clock, identical counts).
    """
    results: dict[str, Any] = {}
    for name, fn in experiments(small):
        best = float("inf")
        counts: dict[str, Any] = {}
        runs = 1 if name in HEAVY_EXPERIMENTS else max(1, repeats)
        for _ in range(runs):
            t0 = time.perf_counter()
            counts = fn()
            best = min(best, time.perf_counter() - t0)
        # The engine label is provenance, not a gated count: columnar
        # and object runs of one workload must agree on every *count*,
        # so the label lives at the entry level where the comparison
        # (scripts/bench_check.py) never sees it.
        engine = counts.pop("engine", None)
        # Snapshot size is provenance too: pickle byte counts can shift
        # across Python versions without any behaviour change, so the
        # size is recorded at the entry level, outside the count gate.
        snapshot_bytes = counts.pop("snapshot_bytes", None)
        entry: dict[str, Any] = {"seconds": round(best, 5), "counts": counts}
        if engine is not None:
            entry["engine"] = engine
        if snapshot_bytes is not None:
            entry["snapshot_bytes"] = snapshot_bytes
        results[name] = entry
    return {
        "schema": 1,
        "small": small,
        "repeats": repeats,
        "python": platform.python_version(),
        "experiments": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--small", action="store_true", help="trimmed sizes (CI / quick runs)"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--label", default=None, help="free-form tag for the report")
    args = parser.parse_args(argv)

    report = run_suite(small=args.small, repeats=args.repeats)
    if args.label:
        report["label"] = args.label

    width = max(len(name) for name in report["experiments"])
    for name, entry in report["experiments"].items():
        engine = f"  [{entry['engine']}]" if "engine" in entry else ""
        print(f"{name:<{width}}  {entry['seconds']:>9.5f}s  {entry['counts']}{engine}")
    total = sum(e["seconds"] for e in report["experiments"].values())
    print(f"{'total':<{width}}  {total:>9.5f}s")

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
