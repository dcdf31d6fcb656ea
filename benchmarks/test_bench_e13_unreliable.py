"""E13 — unreliable networks: loss, partitions, and timeout FD.

Where E12 relaxed N1's *timing* (the bound loosens, the scheduler turns
adversarial), E13 relaxes its *reliability*: ``loss:p`` drops each
envelope iid with a seed-derived per-link probability, and
``partition:A|B@h`` splits the network into blocks until a heal tick.
Every fault load is named through the adversary plane
(`repro.faults.AdversarySpec`), every drop is counted
(``metrics.drops_total``) and traceable (``DROPPED`` events).

Three measurements:

* **agreement survival vs loss rate** — oral OM(t) degrades with loss
  (reports feed majority votes, and a majority of nothing is the
  default), while signed SM(t)'s relay redundancy keeps agreement at
  loss rates that break OM(t);
* **spurious vs missed discoveries** — the paper's round-indexed chain
  FD reads network weather as withholding (spurious) and is
  structurally blind to crashed nodes off the chain path (missed);
  the timeout FD protocol (`repro.fd.timeout`) — retransmission plus
  heartbeats, conclusions only at the deadline — is spurious-free on
  the same grid and catches every silent node;
* **partition-heal convergence** — timeout FD converges on the sender's
  value iff the partition heals inside its timeout horizon; the heal
  tick, not the loss mode (drop vs defer), decides the outcome, because
  retransmission keeps offering the value after the heal.
"""

from __future__ import annotations

from repro.analysis import check_mark, render_table
from repro.analysis.experiments import e13_unreliable
from repro.harness import grid

N, T = 7, 2
LOSS_RATES = [0.0, 0.1, 0.3, 0.5]
DELIVERIES = ["sync", "bounded:3", "loss:0.2"]
SEEDS = [1, 2, 3]


def test_e13_loss_agreement_sweep(report, psweep):
    """Agreement survival vs loss rate: OM(t) vs SM(t)."""
    points = psweep(
        grid(
            n=[N], t=[T], loss=LOSS_RATES, protocol=["oral", "ba"],
            seed=SEEDS,
        ),
        "e13-loss",
    )
    rows = []
    survived: dict[tuple[str, float], int] = {}
    for point in points:
        r = point.result
        key = (r["protocol"], r["loss"])
        survived[key] = survived.get(key, 0) + bool(r["agreed"])
        rows.append(
            [r["protocol"], r["loss"], point.params["seed"], r["agreed"],
             r["drops"], r["loss_rate"], r["messages"]]
        )
        if r["loss"] == 0.0:
            # Zero loss on the kernel's general path is lock-step
            # semantics: agreement must hold for both protocols.
            assert r["agreed"], r
    report(
        render_table(
            ["protocol", "loss", "seed", "agreed", "drops",
             "measured rate", "messages"],
            rows,
            title=f"E13a  agreement survival vs loss rate, n={N}, t={T}",
        )
    )
    # The headline gradient: oral agreement dies somewhere on the
    # loss axis; signed agreement survives every rate oral fails at.
    assert any(
        survived[("oral", loss)] < len(SEEDS) for loss in LOSS_RATES
    )
    for loss in LOSS_RATES:
        assert survived[("ba", loss)] >= survived[("oral", loss)], loss


def test_e13_spurious_vs_missed_discoveries(report):
    """Round-indexed vs timeout FD: who cries wolf, who sleeps through.

    The table gates the design claim: F1-F3 in every cell, timeout FD
    spurious-free and missing nothing, chain FD crying wolf somewhere and
    blind to a crashed node off its path even in the paper's own model."""
    table = e13_unreliable(n=N, t=T, deliveries=DELIVERIES, seeds=len(SEEDS))
    report(table.render())
    assert table.ok


def test_e13_partition_heal_convergence(report, psweep):
    """Partition-heal convergence: the heal tick against the timeout
    horizon decides; the partition mode (drop vs defer) does not."""
    timeout = 8
    points = psweep(
        grid(
            n=[N], t=[T], heal=[2, 6, 12], defer=[True, False],
            timeout=[timeout], seed=[1, 2],
        ),
        "e13-partition",
    )
    rows = []
    for point in points:
        r = point.result
        heals_in_time = r["heal"] < timeout
        converged = r["decided"] == N
        rows.append(
            [r["heal"], r["defer"], point.params["seed"], r["decided"],
             r["discovered"], r["drops"],
             check_mark(converged == heals_in_time)]
        )
        assert r["fd_ok"], r
        assert converged == heals_in_time, r
        if not heals_in_time:
            # The cut-off block discovers (timeout) instead of
            # hanging — weak termination survives the partition.
            assert r["discovered"], r
    report(
        render_table(
            ["heal", "defer", "seed", "decided", "discovered", "drops",
             "verdict"],
            rows,
            title=f"E13c  partition-heal convergence, n={N}, t={T}, "
            f"timeout={timeout}",
        )
    )
