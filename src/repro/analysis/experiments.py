"""Programmatic regeneration of the experiment tables (E1-E8, E11-E14).

The benchmark suite prints these tables under pytest; this module exposes
the same measurements as plain data so the CLI (``repro-fd report``) and
downstream notebooks can consume them without pytest.  Each function
returns an :class:`ExperimentTable` whose rows carry the paper-predicted
and measured values plus a per-row verdict.

Every row is a point of a workload registered in
:mod:`repro.harness.workloads` — the registry is the one place a scenario
is run; this module only lays out its results against the closed forms
of :mod:`repro.analysis.complexity`.  Each point is seeded by its ``n``
(E6 by ``0..seeds-1``, E12–E14 by their seed axis).

Only the count-based experiments live here; the byte/wall-clock ablations
(E9, E10) depend on scheme choice and timing and stay in the benchmark
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..harness.scenarios import attack_catalogue
from ..harness.sweep import sizes_with_budgets, sweep
from . import complexity
from .reporting import check_mark, render_table


@dataclass(frozen=True)
class ExperimentTable:
    """One regenerated experiment: identity, data, and overall verdict."""

    experiment: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    ok: bool

    def render(self) -> str:
        """The table as printable text (same format the benches print)."""
        return render_table(
            list(self.headers), [list(row) for row in self.rows],
            title=f"{self.experiment}  {self.title}",
        )


def _table(experiment, title, headers, rows, ok) -> ExperimentTable:
    rows = tuple(tuple(row) for row in rows)
    return ExperimentTable(experiment, title, tuple(headers), rows, ok)


def _results(workload: str, points: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """The registered ``workload``'s result at each point, in order."""
    return [point.result for point in sweep(points, workload)]


def _budgeted(sizes: Sequence[int], **fixed: Any) -> list[dict[str, Any]]:
    """One point per size at the conventional ``t = (n-1)//3``, seed ``n``."""
    return [dict(fixed, n=n, t=t, seed=n) for n, t in sizes_with_budgets(sizes)]


def _sums(results: list[dict[str, Any]], *keys: str) -> list[int]:
    """Each key's total over ``results`` (a bool counts as 0 or 1)."""
    return [sum(result[key] for result in results) for key in keys]


def e1_keydist(sizes: Sequence[int] = (4, 8, 16, 32)) -> ExperimentTable:
    """E1: key distribution costs 3n(n-1) messages in 3 rounds."""
    rows, ok = [], True
    for result in _results("keydist", [{"n": n, "seed": n} for n in sizes]):
        n = result["n"]
        predicted = complexity.keydist_messages(n)
        match = result["messages"] == predicted and result["rounds"] == complexity.keydist_rounds()
        ok &= match
        rows.append([n, predicted, result["messages"], result["rounds"], check_mark(match)])
    return _table(
        "E1", "key distribution cost (paper §3.1)",
        ["n", "3n(n-1)", "measured", "rounds", "verdict"], rows, ok,
    )


def e2_chain_fd(sizes: Sequence[int] = (4, 8, 16, 32)) -> ExperimentTable:
    """E2: chain FD costs n-1 messages in t+1 rounds, failure-free."""
    rows, ok = [], True
    for result in _results("fd", _budgeted(sizes, protocol="chain")):
        n, t = result["n"], result["t"]
        messages, rounds = result["messages"], result["rounds"]
        match = (
            result["fd_ok"]
            and messages == complexity.fd_auth_messages(n)
            and rounds == complexity.fd_auth_rounds(t)
        )
        ok &= match
        rows.append([n, t, n - 1, messages, t + 1, rounds, check_mark(match)])
    return _table(
        "E2", "authenticated chain FD cost (paper Fig. 2)",
        ["n", "t", "n-1", "measured", "t+1", "rounds", "verdict"], rows, ok,
    )


def e3_echo_fd(sizes: Sequence[int] = (4, 8, 16, 32)) -> ExperimentTable:
    """E3: echo FD costs (t+1)(n-1) = O(n*t) messages."""
    rows, ok = [], True
    for result in _results("fd", _budgeted(sizes, protocol="echo")):
        n, t, messages = result["n"], result["t"], result["messages"]
        predicted = complexity.fd_nonauth_messages(n, t)
        match = result["fd_ok"] and messages == predicted
        ok &= match
        rows.append([n, t, predicted, messages, n - 1, check_mark(match)])
    return _table(
        "E3", "non-authenticated echo FD cost (paper §5)",
        ["n", "t", "(t+1)(n-1)", "measured", "auth (n-1)", "verdict"], rows, ok,
    )


def e4_amortization(sizes: Sequence[int] = (8, 16, 32)) -> ExperimentTable:
    """E4: measured amortization crossover equals k > 3n/t."""
    rows, ok = [], True
    for result in _results("e4-crossover", _budgeted(sizes)):
        n, t = result["n"], result["t"]
        predicted = complexity.crossover_runs(n, t)
        match = result["measured"] == predicted
        ok &= match
        rows.append([n, t, predicted, result["measured"], check_mark(match)])
    return _table(
        "E4", "amortization crossover (paper Summary)",
        ["n", "t", "k > 3n/t", "measured", "verdict"], rows, ok,
    )


def e5_smallrange(sizes: Sequence[int] = (4, 8, 16)) -> ExperimentTable:
    """E5: binary FD — silence carries the 0 at zero message cost."""
    rows, ok = [], True
    points = [{"n": n, "value": value, "seed": n} for n in sizes for value in (0, 1)]
    for result in _results("e5-binary", points):
        n, value, messages = result["n"], result["value"], result["messages"]
        predicted = complexity.smallrange_messages(n, value)
        match = result["fd_ok"] and messages == predicted
        ok &= match
        rows.append([n, value, predicted, messages, check_mark(match)])
    return _table(
        "E5", "binary small-range FD (paper §5)",
        ["n", "value", "predicted", "measured", "verdict"], rows, ok,
    )


def e6_attacks(n: int = 8, t: int = 2, seeds: int = 4) -> ExperimentTable:
    """E6: the attack catalogue — F1-F3 hold, discovery where predicted."""
    rows, ok = [], True
    for scenario in attack_catalogue(n, t):
        points = [dict(n=n, t=t, scenario=scenario.name, seed=seed) for seed in range(seeds)]
        results = _results("e6-scenario", points)
        conditions, discoveries = _sums(results, "fd_ok", "any_discovery")
        expected = seeds if scenario.expects_discovery else 0
        match = conditions == seeds and discoveries == expected
        ok &= match
        rows.append(
            [scenario.name, f"{conditions}/{seeds}", f"{discoveries}/{seeds}",
             f"{expected}/{seeds}", check_mark(match)]
        )
    return _table(
        "E6", f"attack discovery matrix, n={n}, t={t} (Theorems 2/4)",
        ["scenario", "F1-F3", "discovered", "predicted", "verdict"], rows, ok,
    )


def e7_extension(sizes: Sequence[int] = (8, 16)) -> ExperimentTable:
    """E7: FD→BA extension at n-1 vs SM(t) at Θ(n²), failure-free."""
    rows, ok = [], True
    for result in _results("e7-ba-compare", _budgeted(sizes)):
        n, t = result["n"], result["t"]
        match = (
            result["ext_ok"]
            and result["sm_ok"]
            and result["ext_messages"] == complexity.extension_messages(n)
            and result["sm_messages"] == complexity.sm_messages(n, t)
        )
        ok &= match
        rows.append([n, t, result["ext_messages"], result["sm_messages"], check_mark(match)])
    return _table(
        "E7", "failure-free BA: extension vs direct SM(t) (paper §4)",
        ["n", "t", "extension", "SM(t)", "verdict"], rows, ok,
    )


def e8_rounds(sizes: Sequence[int] = (4, 8, 16)) -> ExperimentTable:
    """E8: round complexity of all three protocols."""
    rows, ok = [], True
    for result in _results("e8-rounds", _budgeted(sizes)):
        n, t = result["n"], result["t"]
        measured = (result["keydist_rounds"], result["chain_rounds"], result["echo_rounds"])
        predicted = (3, t + 1, 2)
        match = measured == predicted
        ok &= match
        rows.append([n, t, *measured, check_mark(match)])
    return _table(
        "E8", "round complexity (keydist / chain / echo)",
        ["n", "t", "keydist", "chain", "echo", "verdict"], rows, ok,
    )


def e11_keydist_methods(
    shapes: Sequence[tuple[int, int]] = ((4, 1), (7, 2)),
) -> ExperimentTable:
    """E11: key distribution methods — local auth vs n*OM(t), plus the
    n<=3t feasibility boundary."""
    from ..auth import agreement_keydist_envelopes

    rows, ok = [], True
    points = [{"n": n, "t": t, "seed": n} for n, t in shapes]
    for result in _results("e11-methods", points):
        n, t, messages = result["n"], result["t"], result["agreement_messages"]
        match = (
            messages == agreement_keydist_envelopes(n, t)
            and messages > complexity.keydist_messages(n)
        )
        ok &= match
        rows.append([n, t, complexity.keydist_messages(n), messages, check_mark(match)])
    # Boundary row: the oral bound bites, local auth does not.
    (boundary,) = _results("e11-feasibility", [{"n": 6, "t": 2}])
    verdict = "ran (unexpected)" if boundary["agreement_feasible"] else "infeasible"
    ok &= verdict == "infeasible"
    rows.append([6, 2, complexity.keydist_messages(6), verdict,
                 check_mark(verdict == "infeasible")])
    return _table(
        "E11", "key distribution methods (paper §3 prose)",
        ["n", "t", "local auth", "n*OM(t)", "verdict"], rows, ok,
    )


def e12_delivery_models(
    n: int = 7,
    t: int = 2,
    deliveries: Sequence[str] = ("sync", "bounded:2", "rush"),
    seeds: int = 3,
) -> ExperimentTable:
    """E12: agreement/discovery outcomes across delivery models.

    The kernel sweep: the same protocols and the same Byzantine strategy
    (a rushing mirror on the highest id, plus a failure-free row) under
    each delivery model, compared against the lock-step (``sync``)
    baseline.  The paper's guarantees are stated *in* the synchronous
    model; this table measures where they go when N1's known bound is
    relaxed (``bounded:d``) or the scheduler turns adversarial
    (``rush``).  Divergence from baseline is the measurement, not a
    deviation — the table's verdict only gates the ``sync`` rows, which
    must reproduce the lock-step results exactly.  ``sync`` is always
    swept first (and added if absent) so the baseline exists before any
    skewed row is compared against it.
    """
    deliveries = ("sync",) + tuple(d for d in deliveries if d != "sync")
    probes = (
        ("oral", "e12-oral", lambda r: (r["agreed"], False)),
        ("chain-fd", "e12-fd", lambda r: (r["fd_ok"], r["any_discovery"])),
        ("signed-ba", "e12-ba", lambda r: (r["ba_ok"], False)),
    )
    rows, ok = [], True
    for proto_name, workload, read in probes:
        baseline: dict[int, tuple] = {}
        for delivery in deliveries:
            for faulty in (0, 1):
                results = _results(workload, [
                    dict(n=n, t=t, delivery=delivery, faulty=faulty, seed=seed)
                    for seed in range(seeds)
                ])
                reads = [read(result) for result in results]
                healthy = sum(bool(good) for good, _ in reads)
                spurious = sum(bool(discovered and faulty == 0) for _, discovered in reads)
                lags = sum(result["mean_lag"] for result in results)
                cell = (healthy, spurious)
                if delivery == "sync":
                    baseline[faulty] = cell
                    # The gate: lock-step must be healthy in every seed
                    # (failure-free and single-mirror runs alike), with
                    # no spurious failure-free discoveries.
                    ok &= healthy == seeds and spurious == 0
                diverges = cell != baseline.get(faulty)
                rows.append(
                    [
                        proto_name,
                        delivery,
                        faulty,
                        f"{healthy}/{seeds}",
                        f"{spurious}/{seeds}",
                        round(lags / seeds, 2),
                        "diverges" if diverges else "= sync",
                    ]
                )
    return _table(
        "E12",
        f"delivery-model sweep, n={n}, t={t} (kernel)",
        ["protocol", "delivery", "faulty", "healthy", "spurious disc",
         "mean lag", "vs baseline"],
        rows,
        ok,
    )


def e13_unreliable(
    n: int = 7,
    t: int = 2,
    deliveries: Sequence[str] = ("sync", "bounded:3", "loss:0.2"),
    seeds: int = 3,
) -> ExperimentTable:
    """E13: round-indexed vs timeout FD on unreliable networks.

    The adversary-plane sweep: the same fault load (failure-free, or one
    silent node named through an :class:`~repro.faults.AdversarySpec`)
    under each delivery spec, run through the paper's round-indexed
    ``chain`` protocol and the weak-model ``timeout`` protocol.  Two
    discovery pathologies are counted per cell: **spurious** (discovery
    in a failure-free run — network weather mistaken for a fault) and
    **missed** (a faulty run no correct node discovered).

    The verdict gates the design claim: timeout FD must be spurious-free
    on the whole grid while chain FD is not (it reads delivery skew as
    withholding), and timeout FD must catch the silent node everywhere
    (heartbeat silence is evidence; the chain is structurally blind to
    crashed nodes off its path).
    """
    rows = []
    spurious_totals = {"chain": 0, "timeout": 0}
    missed_totals = {"chain": 0, "timeout": 0}
    for protocol in ("chain", "timeout"):
        for delivery in deliveries:
            for faulty in (0, 1):
                results = _results("e13-timeout-fd", [
                    dict(n=n, t=t, delivery=delivery, protocol=protocol,
                         faulty=faulty, seed=seed)
                    for seed in range(1, seeds + 1)
                ])
                healthy, spurious, missed, drops = _sums(
                    results, "fd_ok", "spurious", "missed", "drops"
                )
                spurious_totals[protocol] += spurious
                missed_totals[protocol] += missed
                rows.append(
                    [protocol, delivery, faulty, f"{healthy}/{seeds}",
                     f"{spurious}/{seeds}", f"{missed}/{seeds}", drops]
                )
    ok = (
        spurious_totals["timeout"] == 0
        and spurious_totals["timeout"] < spurious_totals["chain"]
        and missed_totals["timeout"] == 0
    )
    return _table(
        "E13",
        f"unreliable delivery: chain vs timeout FD, n={n}, t={t}",
        ["protocol", "delivery", "faulty", "F1-F3", "spurious", "missed",
         "drops"],
        rows,
        ok,
    )


def e14_adaptive_arms_race(
    n: int = 7,
    t: int = 2,
    deliveries: Sequence[str] = ("sync", "bounded:12", "loss:0.3"),
    attacks: Sequence[str] = ("none", "silent", "adaptive:silence-muffled"),
    seeds: int = 3,
) -> ExperimentTable:
    """E14: static vs adaptive timeout FD against static and adaptive
    adversaries — the closed arms race.

    The grid crosses the defence (fixed-horizon ``timeout`` FD vs the
    delay-estimating ``adaptive`` FD), the delivery model, and the
    offence (failure-free, one statically silent node, and the
    ``silence-muffled`` adaptive strategy that watches the run's drop
    counters and silences the most-muffled node online).  Per cell, the
    usual two pathologies: **spurious** (discovery with nothing faulty
    and nothing committed) and **missed** (faults present, nobody
    discovered).

    The verdict gates the E14 defence claim: the adaptive FD must be
    spurious-free across the *whole* grid — including the ``bounded:12``
    cells where the static FD's hard-coded horizon of 8 is simply wrong
    and it cries wolf — while still catching every statically silent
    node.  (Adaptively committed late silence is reported, not gated:
    a node silenced *after* first contact leaves evidence with no one,
    which is exactly the attack the table is there to show.)
    """
    rows = []
    spurious_totals = {"timeout": 0, "adaptive": 0}
    static_missed_totals = {"timeout": 0, "adaptive": 0}
    for protocol in ("timeout", "adaptive"):
        for delivery in deliveries:
            for attack in attacks:
                results = _results("e14-adaptive", [
                    dict(n=n, t=t, delivery=delivery, protocol=protocol,
                         attack=attack, seed=seed)
                    for seed in range(1, seeds + 1)
                ])
                healthy, spurious, missed, committed = _sums(
                    results, "fd_ok", "spurious", "missed", "committed"
                )
                spurious_totals[protocol] += spurious
                if attack == "silent":
                    static_missed_totals[protocol] += missed
                rows.append(
                    [protocol, delivery, attack, f"{healthy}/{seeds}",
                     f"{spurious}/{seeds}", f"{missed}/{seeds}", committed]
                )
    ok = (
        spurious_totals["adaptive"] == 0
        and spurious_totals["adaptive"] < spurious_totals["timeout"]
        and static_missed_totals["adaptive"] == 0
    )
    return _table(
        "E14",
        f"adaptive FD vs adaptive adversaries, n={n}, t={t}",
        ["protocol", "delivery", "attack", "F1-F3", "spurious", "missed",
         "committed"],
        rows,
        ok,
    )


def run_all(quick: bool = True) -> list[ExperimentTable]:
    """Regenerate every count-based experiment.

    :param quick: smaller sweeps (suitable for the CLI); the benchmark
        suite runs the full sizes.
    """
    sizes = (4, 8, 16) if quick else (4, 8, 16, 32, 64)
    return [
        e1_keydist(sizes),
        e2_chain_fd(sizes),
        e3_echo_fd(sizes),
        e4_amortization((8, 16)),
        e5_smallrange((4, 8)),
        e6_attacks(seeds=2 if quick else 8),
        e7_extension((8, 16)),
        e8_rounds((4, 8)),
        e11_keydist_methods(),
        e12_delivery_models(seeds=2 if quick else 4),
        e13_unreliable(seeds=2 if quick else 4),
        e14_adaptive_arms_race(seeds=2 if quick else 4),
    ]
