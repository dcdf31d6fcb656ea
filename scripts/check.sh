#!/usr/bin/env bash
# Pre-PR gate: everything that must be green before a change ships.
#
#   scripts/check.sh
#
# Runs, in order:
#   1. python -m compileall src     — no syntax-broken modules slip in;
#   2. the tier-1 test suite        — semantics (ROADMAP.md's verify line),
#                                     with --durations=10 so creeping slow
#                                     tests are visible in every run;
#   3. bench_check --quick          — count determinism vs BENCH_9.json
#                                     (the ledger's small section);
#                                     emits bench_quick_fresh.json for CI
#                                     to attach on failure;
#   4. resume_gate                  — checkpoint in one process, resume in
#                                     another, counts must match a straight
#                                     run (process-local state, e.g. the
#                                     simulated-hmac secret registry, is
#                                     invisible to in-process tests).
#
# The last line printed is a one-line summary of each step's wall seconds,
# so gate-time creep shows up in every run's scrollback, plus src_lines=N
# (tracked src/*.py lines) so ROADMAP aim 2's "net src/ lines go down" is
# visible in every gate run.  The tier-1 step is printed against its
# budget (tier-1=Ns/30s) and flagged OVER-BUDGET — visible, not fatal —
# when a run exceeds it.
#
# The whole counts ledger (scripts/bench_check.py with no flags: also the
# n=128 grid and the memory probes, ~25 s) stays a pre-merge step; this
# script is the fast loop.  See PERFORMANCE.md ("Measuring").
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Tier-1 took 38.8 s with the benchmark suites' pytest-benchmark timing
# tests and 26.4 s once the suites only count (back to back, Python
# 3.11, 2 CPUs); the budget keeps the reclaimed time from refilling.
TIER1_BUDGET=30  # seconds
timings=""
step() {  # step NAME COMMAND... — run one gate step and record its seconds
    local name="$1" start="$SECONDS"
    shift
    echo "== check: $name =="
    "$@"
    local took=$((SECONDS - start))
    timings+=" $name=${took}s"
    if [[ $name == tier-1 ]]; then
        timings+="/${TIER1_BUDGET}s"
        if ((took > TIER1_BUDGET)); then timings+=" OVER-BUDGET"; fi
    fi
}

step compileall python -m compileall -q src
step tier-1 python -m pytest -x -q --durations=10
step bench-smoke python scripts/bench_check.py --quick
step resume-gate python scripts/resume_gate.py

src_lines=$(git ls-files 'src/*.py' | xargs wc -l | tail -n 1 | awk '{print $1}')
echo "== check: all green;$timings src_lines=$src_lines =="
