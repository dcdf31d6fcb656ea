"""Checkpoint/resume: stop a deterministic run mid-flight, finish it later.

The kernel's determinism contract — every run is a pure function of the
master seed and the emission sequence — makes run state *snapshot-able*:
`KernelSnapshot` captures the calendar queue, protocol states, every rng
stream position, the adversary's coordinator and the metrics at a tick
boundary, and resuming from it reproduces the straight run bit-for-bit.
This example shows the two things that buys:

1. **forkable runs** — an E13 run stopped at tick 6 and its snapshot
   passed through ``pickle`` the way a process pool sends it to a worker,
   then finished; the completed counts are identical to a run that never
   stopped.  A snapshot is a live object graph, so it stays inside the
   process tree that made it.  Across processes and days the CLI writes
   a JSON *recipe* instead — which run, which tick, and what the run had
   observably done there — and ``resume`` replays the run, checks it at
   that tick and finishes it:
   ``repro-fd run ... --checkpoint-every 6 --checkpoint-dir ckpt/``
   followed by ``repro-fd resume ckpt/run0-tick000006.json``;
2. **warm-started sweeps** — a timeout sweep whose points differ only
   in a *tunable* parameter (the FD deadline, never read before it
   fires) shares one execution prefix: `sweep_prefix_shared` runs the
   prefix once, forks the snapshot per point, and retunes the deadline
   on each fork.  Long prefixes amortize: the cold sweep below re-runs
   the shared prefix once per point.

Every number printed here is deterministic — run it twice, diff nothing.
"""

from __future__ import annotations

import pickle
import time

from repro.harness import sweep, sweep_prefix_shared
from repro.harness.workloads import e13_timeout_fd_point

POINT = dict(
    n=8, t=1, delivery="loss:0.2:2", protocol="timeout", faulty=1, seed=5
)


def checkpoint_then_resume() -> None:
    print("== checkpoint at tick 6, resume a pickled fork ==")
    straight = e13_timeout_fd_point(**POINT, timeout=12)

    snapshot = e13_timeout_fd_point(**POINT, timeout=12, checkpoint_at=6)
    print(f"  snapshot: tick {snapshot.tick}, {snapshot.size_bytes} bytes")
    fork = pickle.loads(pickle.dumps(snapshot))
    resumed = e13_timeout_fd_point(**POINT, timeout=12, resume_from=fork)

    for key in ("messages", "drops", "rounds", "discovered", "decided"):
        marker = "==" if straight[key] == resumed[key] else "!="
        print(f"  {key}: straight {straight[key]} {marker} resumed {resumed[key]}")


def warm_started_sweep() -> None:
    print("== timeout sweep: cold vs warm-started (prefix shared once) ==")
    points = [dict(POINT, timeout=v) for v in (25, 27, 29, 31)]

    t0 = time.perf_counter()
    cold = sweep(points, e13_timeout_fd_point)
    cold_s = time.perf_counter() - t0

    # The prefix must be deadline-independent: pin the tuned axis wide
    # (no deadline fires before tick 24), fork past the checkpoint.
    t0 = time.perf_counter()
    warm = sweep_prefix_shared(
        points,
        "e13-timeout-fd",
        prefix=dict(POINT, timeout=100),
        prefix_ticks=24,
    )
    warm_s = time.perf_counter() - t0

    for c, w in zip(cold, warm):
        marker = "==" if c.result == w.result else "!="
        print(
            f"  timeout={c.params['timeout']}: cold rounds {c.result['rounds']} "
            f"{marker} warm rounds {w.result['rounds']}"
        )
    print(f"  cold {cold_s:.3f}s vs warm {warm_s:.3f}s "
          f"(one 24-tick prefix instead of {len(points)})")


if __name__ == "__main__":
    checkpoint_then_resume()
    warm_started_sweep()
