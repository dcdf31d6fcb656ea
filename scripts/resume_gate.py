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
2. the same point stopped at a checkpoint tick, its snapshot pickled to
   a scratch file by this script (the bytes a pool worker receives);
3. a fresh process unpickling those bytes, resuming, printing its counts.

Pass iff (1) and (3) print identical JSON.  Then one CLI round trip: a
``repro-fd run --checkpoint-every`` under ``PYTHONHASHSEED=0`` writes
checkpoint recipes, and ``repro-fd resume`` replays one in a fresh
interpreter under ``PYTHONHASHSEED=1``; pass iff it checks out and
prints the straight run's table.  ``scripts/check.sh`` runs this after
the bench smoke; it costs a few seconds.
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
import json, pickle, sys
from pathlib import Path
from repro.harness.workloads import resolve_workload
workload, point, tick, path = json.loads(sys.argv[1])
snap = resolve_workload(workload)(**point, checkpoint_at=tick)
Path(path).write_bytes(pickle.dumps(snap))
"""

_RESUME = """
import json, pickle, sys
from pathlib import Path
from repro.harness.workloads import resolve_workload
workload, point, keys, path = json.loads(sys.argv[1])
snap = pickle.loads(Path(path).read_bytes())
result = resolve_workload(workload)(**point, resume_from=snap)
print(json.dumps({k: result[k] for k in keys}))
"""

#: The CLI round trip: the lossy E13 point as ``run`` arguments, with
#: recipes every 4 ticks; the gate resumes the one at tick 8.
_CLI_RUN = ["run", "--workload", "e13-timeout-fd"] + [
    arg for key, value in _LOSSY.items() for arg in ("--param", f"{key}={value}")
]
_CLI_RECIPE = "run0-tick000008.json"

_CLI = """
import sys
from repro.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


def _python(code: str, *args: str, hash_seed: str | None = None) -> str:
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"resume_gate: subprocess failed (exit {proc.returncode})")
    return proc.stdout.strip()


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for index, (workload, point, tick) in enumerate(POINTS):
            path = str(Path(tmp) / f"{index}-{workload}.pickle")
            straight = _python(_STRAIGHT, json.dumps([workload, point, KEYS]))
            _python(_CHECKPOINT, json.dumps([workload, point, tick, path]))
            resumed = _python(_RESUME, json.dumps([workload, point, KEYS, path]))
            verdict = "ok" if resumed == straight else "DIVERGED"
            print(f"  {workload} @tick {tick}: straight {straight} | resumed {verdict}")
            if resumed != straight:
                print(f"    resumed: {resumed}", file=sys.stderr)
                status = 1
        recipes = Path(tmp) / "recipes"
        checkpointed = _python(
            _CLI, *_CLI_RUN, "--checkpoint-every", "4",
            "--checkpoint-dir", str(recipes), hash_seed="0",
        )
        table = checkpointed[: checkpointed.index("checkpoint written")].rstrip()
        resumed = _python(_CLI, "resume", str(recipes / _CLI_RECIPE), hash_seed="1")
        matched = resumed.startswith(table + "\n\nreplay matched")
        print(f"  cli recipe {_CLI_RECIPE}: resume {'ok' if matched else 'DIVERGED'}")
        if not matched:
            print(f"    straight:\n{table}\n    resumed:\n{resumed}", file=sys.stderr)
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
