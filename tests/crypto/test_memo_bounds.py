"""The crypto memos are bounded to one run's working set.

Three process-wide memos sit under every signed run: the scalar-encoding
memo, the verification memo and the Schnorr scheme's per-key comb memo.
All three clear wholesale when full, so (a) a long-lived process that runs
scenario after scenario on fresh seeds holds a bounded amount of them, and
(b) a clear landing in the middle of a run may cost time but can never
change what the run returns.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.crypto import encoding, schnorr, signing
from repro.harness import run_ba_scenario, run_fd_scenario

SCHEME = "schnorr-512"

MEMOS = (
    (encoding, "_SCALAR_CACHE"),
    (signing, "_VERIFY_CACHE"),
    (schnorr, "_KEY_COMBS"),
)


def _clear_memos():
    for module, name in MEMOS:
        getattr(module, name).clear()


#: A few n = 6 runs' worth of each memo (a run files 48 scalars into an
#: empty memo, 32 verdicts and 6 combs).  The shipped caps hold a large
#: run's working set, which takes forty n = 16 runs to fill and clear —
#: 14 s under tracemalloc; the clear-when-full mechanism is the same at
#: any cap.
SMALL_CAPS = {"_SCALAR_CACHE_MAX": 384, "_VERIFY_CACHE_MAX": 192, "_KEY_COMBS_MAX": 32}


def _held_bytes(memo):
    """Bytes of ``memo`` and of everything reachable from it (types aside):
    what clearing it would free once a run's own references are gone."""
    seen = {id(memo)}
    level = [memo]
    total = 0
    while level:
        total += sum(map(sys.getsizeof, level))
        deeper = []
        for obj in gc.get_referents(*level):
            if id(obj) not in seen and not isinstance(obj, type):
                seen.add(id(obj))
                deeper.append(obj)
        level = deeper
    return total


def test_memos_stay_bounded_over_forty_fresh_seed_runs(monkeypatch):
    """With caps a few runs wide, all three memos have been full (and
    cleared) at least once by run 20; from there on traced memory must
    stop climbing."""
    for module, name in MEMOS:
        monkeypatch.setattr(module, f"{name}_MAX", SMALL_CAPS[f"{name}_MAX"])
    _clear_memos()
    rest = []
    held = {name: [] for _, name in MEMOS}
    cleared = set()
    tracemalloc.start()
    try:
        for op in range(40):
            before = {name: len(getattr(module, name)) for module, name in MEMOS}
            outcome = run_fd_scenario(
                6, 1, "v", protocol="chain", auth="local", scheme=SCHEME, seed=f"memo-{op}"
            )
            assert outcome.fd.ok
            for module, name in MEMOS:
                assert len(getattr(module, name)) <= SMALL_CAPS[f"{name}_MAX"], name
                if op < 20 and len(getattr(module, name)) < before[name]:
                    cleared.add(name)
            gc.collect()  # a finished run's kernel graph is cyclic garbage
            traced = tracemalloc.get_traced_memory()[0]
            for module, name in MEMOS:
                held[name].append(_held_bytes(getattr(module, name)))
            rest.append(traced - sum(series[op] for series in held.values()))
    finally:
        tracemalloc.stop()

    # Clear-when-full makes one saw-tooth per memo, with its own period,
    # so the peak of their sum depends on where the teeth happen to line
    # up in a window.  The envelope — the peak of what the memos do not
    # hold plus each memo's own peak — does not.  With the pre-PR-15 caps
    # (32,768 / 65,536: nothing is cleared in 40 runs) the second half's
    # memos peak at twice the first half's.
    def envelope(window):
        return max(rest[window]) + sum(max(series[window]) for series in held.values())

    assert envelope(slice(20, 40)) <= 1.05 * envelope(slice(0, 20))
    assert cleared == {name for _, name in MEMOS}


def _projection(outcome):
    verdict = outcome.fd if outcome.fd is not None else outcome.ba
    metrics = outcome.run.metrics
    return (
        verdict,
        outcome.run.decisions(),
        outcome.run.discoverers(),
        outcome.kd.messages,
        metrics.messages_total,
        metrics.bytes_total,
        metrics.rounds_used,
        dict(metrics.bytes_per_round),
    )


@pytest.mark.parametrize("cap", [1, 7])
@pytest.mark.parametrize(
    "run, protocol", [(run_fd_scenario, "chain"), (run_ba_scenario, "extension")]
)
def test_mid_run_clears_never_change_a_run(monkeypatch, run, protocol, cap):
    def scenario():
        _clear_memos()
        return _projection(
            run(8, 2, "v", protocol=protocol, auth="local", scheme=SCHEME, seed="clears")
        )

    uncapped = scenario()
    for module, name in MEMOS:
        monkeypatch.setattr(module, f"{name}_MAX", cap)
    assert scenario() == uncapped
    for module, name in MEMOS:
        assert len(getattr(module, name)) <= cap
