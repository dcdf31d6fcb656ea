"""E12 — delivery-model sweep on the event kernel.

The paper's guarantees are proved in the synchronous model: N1 reliable
delivery with a *known* one-round bound, N2 authentic immediate senders,
lock-step rounds.  The event kernel (`repro.sim.kernel`) makes that
model one pluggable `DeliveryModel` among several, and this suite
measures what each guarantee is worth when the timing half is relaxed —
the same protocols and the same Byzantine strategy
(`repro.faults.RushMirrorProtocol`) swept across

* ``sync``       — the paper's model (lock-step baseline);
* ``bounded:d``  — N1 keeps reliability but loses the known bound
  (seed-derived per-link jitter within ``d`` ticks);
* ``rush``       — an adversarial scheduler that shows Byzantine nodes
  the honest round-r traffic before they emit their own.

Headline (n=7, t=2): oral OM(t) loses agreement already under
``bounded:2`` (round-indexed majority voting mis-buckets late reports);
chain FD *discovers spurious failures in failure-free runs* (late chain
links are indistinguishable from withholding — discovery is sound w.r.t.
the model, and the model no longer matches the network); signed SM(t) is
the most robust — signature chains carry their own evidence, so skew
within its ``t+1``-round horizon (``bounded:2``) and rushing change
nothing — but once the delay bound exceeds that horizon (``bounded:4``)
messages land after nodes have decided and agreement goes too.  None of
the three survives unbounded-relative skew: the paper's known-bound N1
is load-bearing for all of them, SM(t) just has the widest margin.
"""

from __future__ import annotations

from repro.analysis import check_mark, render_table
from repro.analysis.experiments import e12_delivery_models
from repro.harness import grid

N, T = 7, 2
DELIVERIES = ["sync", "bounded:2", "bounded:4", "rush"]


def test_e12_oral_delivery_sweep(report, psweep):
    """Oral agreement across delivery models: where OM(t) loses it."""
    points = psweep(
        grid(n=[N], t=[T], delivery=DELIVERIES, faulty=[0, 1], seed=[1, 2]),
        "e12-oral",
    )
    rows = []
    for point in points:
        r = point.result
        rows.append(
            [r["delivery"], r["faulty"], point.params["seed"],
             r["agreed"], r["decision"], r["rounds"], r["mean_lag"]]
        )
        if r["delivery"] in ("sync", "rush"):
            # Lock-step must agree; the rushing mirror gains nothing
            # against OM(t) — honest traffic still arrives on time.
            assert r["agreed"], r
    report(
        render_table(
            ["delivery", "faulty", "seed", "agreed", "decision",
             "rounds", "mean lag"],
            rows,
            title=f"E12a  oral OM({T}) under delivery models, n={N}",
        )
    )
    # The divergence that motivates the kernel: some bounded-delay
    # run must actually lose agreement.
    assert any(
        not p.result["agreed"]
        for p in points
        if p.result["delivery"].startswith("bounded")
    )


def test_e12_fd_spurious_discovery(report, psweep):
    """Chain FD: failure-free runs discover 'failures' under skew."""
    points = psweep(
        grid(n=[N], t=[T], delivery=DELIVERIES, faulty=[0], seed=[1, 2]),
        "e12-fd",
    )
    rows = []
    for point in points:
        r = point.result
        rows.append(
            [r["delivery"], r["any_discovery"], r["all_decided"],
             r["messages"], r["mean_lag"],
             check_mark(r["any_discovery"] == r["delivery"].startswith("bounded"))]
        )
        if r["delivery"].startswith("bounded"):
            assert r["any_discovery"], r
        else:
            assert not r["any_discovery"] and r["all_decided"], r
    report(
        render_table(
            ["delivery", "discovery", "all decided", "messages",
             "mean lag", "verdict"],
            rows,
            title=f"E12b  failure-free chain FD, n={N}, t={T}: "
            "skew is indistinguishable from withholding",
        )
    )


def test_e12_signed_ba_resilience(report, psweep):
    """SM(t)'s margin: agreement survives skew within its round horizon
    (and rushing entirely), and falls only past it."""
    points = psweep(
        grid(n=[N], t=[T], delivery=DELIVERIES, faulty=[0, 1], seed=[1, 2]),
        "e12-ba",
    )
    rows = []
    for point in points:
        r = point.result
        within_horizon = r["delivery"] in ("sync", "bounded:2", "rush")
        rows.append(
            [r["delivery"], r["faulty"], r["agreement"], r["rounds"],
             r["messages"], r["mean_lag"],
             check_mark(r["ba_ok"] == within_horizon)]
        )
        if within_horizon:
            # bounded:2 keeps every arrival inside SM(t)'s t+1-round
            # run; the rushing mirror cannot forge signatures.
            assert r["ba_ok"], r
    report(
        render_table(
            ["delivery", "faulty", "agreement", "rounds", "messages",
             "mean lag", "verdict"],
            rows,
            title=f"E12c  signed SM({T}) across delivery models, n={N}: "
            "robust within its round horizon",
        )
    )
    # Past the horizon the known-bound assumption finally bites even
    # for signed messages: some bounded:4 run must lose agreement.
    assert any(
        not p.result["ba_ok"]
        for p in points
        if p.result["delivery"] == "bounded:4"
    )


def test_e12_summary_table(report):
    """The cross-protocol E12 table (`repro-fd report` prints the same)."""
    table = e12_delivery_models(n=N, t=T, seeds=2)
    report(table.render())
    assert table.ok
