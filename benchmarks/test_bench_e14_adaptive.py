"""E14 — the arms race: adaptive adversaries vs adaptive-timeout FD.

E13 left an asymmetry: the *attack* side was static (faults named up
front, blind to the run) and the *defence* side guessed its horizon
(``default_timeout`` hard-codes the delay bound).  E14 arms both sides.
The adversary plane gains loss-exploiting lies (``ack-lie`` — ack the
value, drop it, so retransmission stops while nothing landed;
``equivocate`` — tell the two sides of a partition different stories)
and an **adaptive power**: a strategy hook that watches the run's live
counters and commits corruptions online, ≤ t budget enforced at
commitment time, deterministic as a pure function of seed and observed
events.  The defence answers with :mod:`repro.fd.adaptive`: per-link
Chen/Jacobson lag estimators, ack-driven selective retransmission, and
deadlines derived from the *measured* delay profile instead of a guess.

Three measurements:

* **the horizon cell** — under ``bounded:12`` the static FD's deadline
  of 8 expires with the value still in flight: it must cry wolf or wait
  forever; the adaptive FD is spurious-free on exactly those cells while
  still catching every statically silent node;
* **the adaptive offence** — ``silence-muffled`` picks its victim from
  the drop counters mid-run; committed corruptions are budget-checked,
  deterministic, and surfaced per-run (``committed``), and late silence
  is the attack no heard-ever check can see — measured, not hidden;
* **equivocation across a heal** — a partition-straddling liar either
  has its two stories collide at the heal or buries the evidence with
  the deferred sweep; either way every honest node still converges on
  the sender's value.
"""

from __future__ import annotations

from repro.analysis import check_mark, render_table
from repro.analysis.experiments import e14_adaptive_arms_race
from repro.harness import grid

N, T = 7, 2
DELIVERIES = ["sync", "bounded:12", "loss:0.3"]
SEEDS = [1, 2, 3]


def test_e14_adaptive_fd_vs_static_horizon(report):
    """The horizon cell: measured deadlines vs a guessed one.

    The table gates the defence claim: the adaptive FD is spurious-free
    on the whole grid — including bounded:12, where the static FD's
    hard-coded horizon cries wolf — misses no silent node, and F1-F3 hold
    in every failure-free and statically silent cell."""
    table = e14_adaptive_arms_race(n=N, t=T, deliveries=DELIVERIES, seeds=len(SEEDS))
    report(table.render())
    assert table.ok


def test_e14_adaptive_adversary_strikes(report, psweep):
    """The offence: strategies commit corruptions online, on budget."""
    points = psweep(
        grid(
            n=[N], t=[T], delivery=["loss:0.3"],
            protocol=["timeout", "adaptive"],
            attack=["adaptive:silence-muffled", "adaptive:gag-sender"],
            seed=SEEDS,
        ),
        "e14-adaptive",
    )
    rows = []
    committed_total = 0
    for point in points:
        r = point.result
        committed_total += r["committed"]
        rows.append(
            [r["protocol"], r["attack"], point.params["seed"],
             r["committed"], r["discovered"], r["missed"], r["drops"]]
        )
        # Commitment-time budget enforcement: never more than t.
        assert r["committed"] <= T, r
        # A committed corruption is a real fault, so a discovery
        # here is the FD working, never a spurious one.
        assert not r["spurious"], r
    report(
        render_table(
            ["protocol", "attack", "seed", "committed", "discovered",
             "missed", "drops"],
            rows,
            title=f"E14b  adaptive adversary strikes, n={N}, t={T}, "
            "loss:0.3",
        )
    )
    # The strategies do strike on this grid (lazy, not inert).
    assert committed_total > 0


def test_e14_equivocation_across_heal(report, psweep):
    """Partition-straddling equivocation vs the heal tick."""
    points = psweep(
        grid(
            n=[8], t=[T], heal=[2, 6], defer=[True, False],
            protocol=["adaptive"], seed=[1, 2],
        ),
        "e14-equivocation",
    )
    rows = []
    for point in points:
        r = point.result
        honest = 8 - 1  # node 1 equivocates
        converged = r["decided"] >= honest
        rows.append(
            [r["heal"], r["defer"], point.params["seed"], r["decided"],
             r["discovered"], r["drops"], check_mark(converged)]
        )
        # The lie never blocks convergence: the sender's signed
        # value outweighs garbled twins on both sides of the split.
        assert converged, r
        assert r["fd_ok"], r
    report(
        render_table(
            ["heal", "defer", "seed", "decided", "discovered", "drops",
             "verdict"],
            rows,
            title=f"E14c  equivocation across a heal, n=8, t={T}, "
            "adaptive FD",
        )
    )
