"""The seven benchmark workloads.

One *operation* is one full scenario run (for ``warm-sweep``, one
six-point sweep) through a public entry point of ``repro``; the program
receives only ``(params, seed)``.  Operations reach the program through
module attributes looked up at call time (``harness.run_fd_scenario``),
so the wrappers :mod:`e2e.trace` installs are the functions they call.

Every workload states why it exists: which layer does most of its work
and which layers it bypasses.  ``full`` is the measured size; ``tiny``
(n <= 8) is what the tier-1 smoke test runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro import auth, harness
from repro.analysis import complexity
from repro.harness import workloads as registry


@dataclass(frozen=True)
class Outcome:
    """What one operation produced.

    :ivar counts: deterministic counts, pure functions of ``(params,
        seed)``; ``counts["messages"]`` is the operation's logical
        envelope count.
    :ivar verdicts: the paper's property verdicts for this run.
    """

    counts: dict[str, Any]
    verdicts: dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """A named operation with its sizes, promises and oracles.

    :ivar promises: the verdicts every seed must produce.
    :ivar ledger: scale -> the ``BENCH_8.json`` ``(section, experiment)``
        that measured the same point; the warm-up repeats its seed
        (``seed = n``, the ledger's convention) so the counts can be
        compared.
    :ivar closed_form: ``closed_form(**params)`` -> the counts the paper's
        formulas fix for every seed (synchronous failure-free workloads).
    :ivar loss: the delivery model's per-envelope drop probability, for
        the ``drops`` / ``messages`` consistency check.
    """

    name: str
    why: str
    operation: Callable[..., Outcome]
    full: dict[str, Any]
    tiny: dict[str, Any]
    promises: dict[str, Any]
    ledger: dict[str, tuple[str, str]] = field(default_factory=dict)
    closed_form: Callable[..., dict[str, int]] | None = None
    loss: float | None = None

    def params(self, scale: str) -> dict[str, Any]:
        return self.tiny if scale == "tiny" else self.full


PAPER_SCHEME = "schnorr-512"


def _paper_stack(seed: Any, n: int, t: int) -> Outcome:
    fd = harness.run_fd_scenario(
        n, t, "v", protocol="chain", auth="local", scheme=PAPER_SCHEME, seed=seed
    )
    ba = harness.run_ba_scenario(
        n, t, "v", protocol="extension", auth="local", scheme=PAPER_SCHEME, seed=seed
    )
    return Outcome(
        counts={
            "messages": fd.total_messages + ba.total_messages,
            "kd_messages": fd.kd.messages,
            "fd_messages": fd.run.metrics.messages_total,
            "ba_messages": ba.run.metrics.messages_total,
            "fd_rounds": fd.run.metrics.rounds_used,
            "ba_rounds": ba.run.metrics.rounds_used,
            "bytes": fd.run.metrics.bytes_total + ba.run.metrics.bytes_total,
        },
        verdicts={
            "fd_ok": fd.fd.ok,
            "termination": ba.ba.termination,
            "agreement": ba.ba.agreement,
            "validity": ba.ba.validity,
        },
    )


def _paper_stack_closed_form(n: int, t: int) -> dict[str, int]:
    kd = complexity.keydist_messages(n)
    fd = complexity.fd_auth_messages(n, t)
    ba = complexity.extension_messages(n, t)
    # Each scenario distributes its own keys.
    return {"messages": 2 * kd + fd + ba, "kd_messages": kd, "fd_messages": fd, "ba_messages": ba}


def _keydist_sync(seed: Any, n: int) -> Outcome:
    kd = auth.run_key_distribution(n, scheme=registry.COUNT_SCHEME, seed=seed)
    genuine = kd.genuine_predicates()
    return Outcome(
        counts={"messages": kd.messages, "rounds": kd.rounds},
        verdicts={
            "every_node_has_a_directory": len(kd.directories) == n,
            # G1/G2 from node 0's point of view: exactly the genuine
            # predicate accepted for every other node.
            "node0_accepted_genuine_keys": all(
                kd.directories[0].predicates_for(node) == (genuine[node],)
                for node in range(1, n)
            ),
        },
    )


def _fd_flood(seed: Any, n: int, t: int) -> Outcome:
    result = harness.get_workload("e13-timeout-fd")(
        n, t, delivery="loss:0.2", protocol="timeout", faulty=1, seed=seed
    )
    return Outcome(
        counts={key: result[key] for key in ("messages", "drops", "rounds", "discovered")},
        verdicts={key: result[key] for key in ("fd_ok", "discovered", "missed")},
    )


def _akd(seed: Any, n: int, t: int, delivery: str | None = None) -> Outcome:
    result = registry.akd_point(n, t, seed=seed, delivery=delivery)
    return Outcome(
        counts={
            "messages": result["messages"],
            "bytes": result["bytes"],
            "rounds": result["rounds"],
            "instance_messages": result["instance_messages_max"],
            "agreed": result["agreed"],
        },
        verdicts={"agreed": result["agreed"], "engine_used": result["engine_used"]},
    )


def _oral_jitter(seed: Any, n: int, t: int) -> Outcome:
    result = harness.get_workload("e12-oral")(
        n, t, delivery="bounded:2", faulty=0, seed=seed
    )
    return Outcome(
        counts={key: result[key] for key in ("messages", "rounds", "ticks", "agreed")},
        verdicts={"all_decided": result["decided"] == n},
    )


def warm_sweep_points(
    seed: Any, n: int, t: int, timeouts: tuple[int, ...]
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """The shared scenario and the sweep's points (one per timeout)."""
    base = dict(n=n, t=t, delivery="loss:0.2:2", protocol="timeout", faulty=1, seed=seed)
    return base, [dict(base, timeout=timeout) for timeout in timeouts]


def sweep_outcome(swept: list) -> Outcome:
    """Counts summed over a sweep's points, as the ledger sums them."""
    results = [point.result for point in swept]
    return Outcome(
        counts={
            key: sum(result[key] for result in results)
            for key in ("messages", "drops", "rounds", "discovered")
        },
        verdicts={
            "fd_ok": all(result["fd_ok"] for result in results),
            "missed": any(result["missed"] for result in results),
        },
    )


def _warm_sweep(
    seed: Any, n: int, t: int, timeouts: tuple[int, ...], prefix_ticks: int
) -> Outcome:
    base, points = warm_sweep_points(seed, n, t, timeouts)
    swept = harness.sweep_prefix_shared(
        points,
        "e13-timeout-fd",
        # A prefix deadline no node reaches before the checkpoint tick.
        prefix=dict(base, timeout=4 * max(timeouts)),
        prefix_ticks=prefix_ticks,
        workers=1,
    )
    return sweep_outcome(swept)


def straight_sweep(seed: Any, n: int, t: int, timeouts: tuple[int, ...], **_: Any) -> Outcome:
    """The same sweep with every point run from tick zero: the reference
    the warm-started sweep must match count for count."""
    _, points = warm_sweep_points(seed, n, t, timeouts)
    return sweep_outcome(harness.sweep(points, "e13-timeout-fd"))


_FD_PROMISES = {"fd_ok": True, "discovered": True, "missed": False}

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "paper-stack",
        "The paper's own stack under a real S1-S3 scheme (local auth, chain FD, FD-to-BA, "
        "schnorr-512): crypto and auth dominate; no delivery model, batch plane or EIG.",
        _paper_stack,
        full={"n": 32, "t": 10},
        tiny={"n": 8, "t": 2},
        promises={"fd_ok": True, "termination": True, "agreement": True, "validity": True},
        closed_form=_paper_stack_closed_form,
    ),
    Workload(
        "keydist-sync",
        "Fig. 1 at n=128: 48,768 per-envelope sends on the kernel's lock-step path (node, "
        "kernel, metrics) plus 16,256 HMAC sign/verify pairs; calendar and batch plane unused.",
        _keydist_sync,
        full={"n": 128},
        tiny={"n": 8},
        promises={"every_node_has_a_directory": True, "node0_accepted_genuine_keys": True},
        ledger={"full": ("full", "keydist_n128")},
        closed_form=lambda n: {"messages": complexity.keydist_messages(n)},
    ),
    Workload(
        "fd-flood",
        "161,925 per-envelope sends on the calendar path with a loss draw per link: "
        "send, enqueue, arrival_tick, record; the one-send-path claim workload.",
        _fd_flood,
        full={"n": 128, "t": 3},
        tiny={"n": 8, "t": 2},
        promises=_FD_PROMISES,
        ledger={"full": ("full", "e13_timeout_loss_n128_t3")},
        loss=0.2,
    ),
    Workload(
        "mux-sync",
        "2,608,320 logical envelopes through batch plane, mux and ingest_rle_batch on the "
        "O(n*t) resolve path; no delivery draws, per-envelope plumbing or dense resolve.",
        _akd,
        full={"n": 96, "t": 3},
        tiny={"n": 7, "t": 2},
        promises={"agreed": True, "engine_used": "columnar"},
        ledger={"tiny": ("small", "akd_n7_t2")},
        closed_form=lambda n, t: {"messages": complexity.akd_envelopes(n, t)},
    ),
    Workload(
        "mux-lossy",
        "The same mux and batch layers under loss:0.05:2: bulk arrival draws, arrival-"
        "columned records with drops, and the dense resolve_sweep fallback.",
        _akd,
        full={"n": 64, "t": 1, "delivery": "loss:0.05:2"},
        tiny={"n": 7, "t": 2, "delivery": "loss:0.2:2"},
        promises={"engine_used": "columnar"},
        ledger={"full": ("full", "akd_loss_n64_t1"), "tiny": ("small", "akd_loss_n7_t2")},
    ),
    Workload(
        "oral-jitter",
        "Only 2,914 messages, but bounded:2 jitter breaks unanimity, so nearly all time is "
        "the EIG resolve_sweep: isolates the resolve layer from messaging.",
        _oral_jitter,
        full={"n": 32, "t": 3},
        tiny={"n": 7, "t": 2},
        # Outside the synchronous model OM(t) promises nothing: every node
        # decides, and on every seed tried the honest nodes disagree — which
        # is recorded (``agreed`` is a pinned count), not promised.
        promises={"all_decided": True},
        ledger={"full": ("full", "kernel_oral_bounded2_n32_t3")},
    ),
    Workload(
        "warm-sweep",
        "Six timeout-FD points forked from one 120-tick prefix: snapshot capture, six "
        "restores and run(until_tick=) - the kernel as a forkable object, not a one-shot.",
        _warm_sweep,
        full={"n": 32, "t": 3, "timeouts": (121, 123, 125, 127, 129, 131), "prefix_ticks": 120},
        tiny={"n": 7, "t": 2, "timeouts": (10, 12, 14), "prefix_ticks": 8},
        promises={"fd_ok": True, "missed": False},
        ledger={
            "full": ("full", "e13_warm_timeouts_n32_t3"),
            "tiny": ("small", "e13_warm_timeouts_n7_t2"),
        },
        loss=0.2,
    ),
)

BY_NAME: dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
