#!/usr/bin/env python
"""Cross-process resume-equivalence gate: checkpoint here, resume there.

The in-process property tests (tests/sim/test_snapshot.py) pin
resume-equals-straight-run bit-for-bit, but a checkpoint's real life is
crossing a *process* boundary — a CLI ``resume`` days later, a sweep
worker in a process pool.  That boundary is where process-local state
can silently diverge: the simulated-hmac scheme's secret registry, for
example, is rebuilt from unpickled keys on arrival, and a regression
there makes every resumed signature verify as forged while all
in-process tests stay green.

So for each (point, tick) below this gate runs three separate
interpreters:

1. a straight run of the point, printing its counts;
2. the same point stopped at a checkpoint tick, snapshot saved to disk;
3. a fresh process resuming that snapshot file and printing its counts.

Pass iff (1) and (3) print identical JSON.  ``scripts/check.sh`` runs
this after the bench smoke; it costs about a second.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One point each from the E13 and E14 grids: a lossy-delayed timeout-FD
#: run (drops + delayed arrivals straddle the checkpoint tick) and an
#: adaptive-adversary run (the muffler's coordinator state must travel);
#: then the lossy point stretched to 68 ticks and checkpointed at tick
#: 25.  By then every link has refilled its draw-ahead outcomes once (64
#: drawn), and every link refills again (to 256) after the resume, so
#: the resumed process must rebuild and replay each stream from the
#: position the checkpoint carried.
_LOSSY = {"n": 8, "t": 1, "delivery": "loss:0.2:2", "protocol": "timeout",
          "faulty": 1, "seed": 5, "timeout": 12}
POINTS: list[tuple[str, dict, int]] = [
    ("e13-timeout-fd", _LOSSY, 6),
    (
        "e14-adaptive",
        {"n": 8, "t": 1, "delivery": "loss:0.3", "protocol": "timeout",
         "attack": "adaptive:silence-muffled", "seed": 3, "timeout": 12},
        6,
    ),
    ("e13-timeout-fd", {**_LOSSY, "timeout": 68}, 25),
]

KEYS = ("messages", "drops", "rounds", "discovered", "decided", "fd_ok")

_STRAIGHT = """
import json, sys
from repro.harness.workloads import resolve_workload
workload, point, keys = json.loads(sys.argv[1])
result = resolve_workload(workload)(**point)
print(json.dumps({k: result[k] for k in keys}))
"""

_CHECKPOINT = """
import json, sys
from repro.harness.workloads import resolve_workload
from repro.sim import save_snapshot
workload, point, tick, path = json.loads(sys.argv[1])
snap = resolve_workload(workload)(**point, checkpoint_at=tick)
save_snapshot(snap, path)
"""

_RESUME = """
import json, sys
from repro.harness.workloads import resolve_workload
from repro.sim import load_snapshot
workload, point, keys, path = json.loads(sys.argv[1])
result = resolve_workload(workload)(**point, resume_from=load_snapshot(path))
print(json.dumps({k: result[k] for k in keys}))
"""


def _python(code: str, payload) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(payload)],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"resume_gate: subprocess failed (exit {proc.returncode})")
    return proc.stdout.strip()


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index, (workload, point, tick) in enumerate(POINTS):
            path = str(Path(tmp) / f"{index}-{workload}.ckpt")
            straight = _python(_STRAIGHT, [workload, point, KEYS])
            _python(_CHECKPOINT, [workload, point, tick, path])
            resumed = _python(_RESUME, [workload, point, KEYS, path])
            verdict = "ok" if resumed == straight else "DIVERGED"
            print(f"  {workload} @tick {tick}: straight {straight} | resumed {verdict}")
            if resumed != straight:
                print(f"    resumed: {resumed}", file=sys.stderr)
                status = 1
    if status:
        print(
            "== FAIL: cross-process resume diverged from the straight run ==",
            file=sys.stderr,
        )
    else:
        print("== cross-process resume equals straight run ==")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
