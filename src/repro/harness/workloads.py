"""The central workload registry: every benchmark sweep as a named,
picklable point function.

A pooled :func:`~repro.harness.sweep.sweep` ships jobs to worker
processes by pickling ``(fn, params)``, which requires module-level
functions returning plain data.  This module collects the point functions
in that shape — every function takes only primitive params (seed included
— the determinism contract), runs one scenario, and returns a flat dict
of counts — and registers each under a stable name.

The registry is the one place a scenario is run for a measurement: the
E1–E14 benchmark sweeps, the counts ledger's rows
(``benchmarks/regress.py``) and the ``repro-fd report`` tables
(:mod:`repro.analysis.experiments`) are all (workload, params) points
over it.

Sweeps dispatch by name: :func:`repro.harness.sweep.sweep` accepts
either a callable or a registered workload name, through
:func:`get_workload`.  Names are what the benchmark suites pass
(``psweep(points, "fd")``), and names are what travels to worker
processes — a name is always picklable, so a registry-dispatched sweep
never hits the pickling error an unpicklable callable raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..agreement import make_oral_agreement_protocols
from ..analysis.complexity import crossover_runs, keydist_messages, keydist_rounds
from ..auth import (
    check_g1,
    check_g2,
    run_agreement_key_distribution,
    run_key_distribution,
)
from ..errors import ConfigurationError
from ..faults import AdversarySpec, SilentProtocol, TamperingProtocol, make_adversary
from ..fd.smallrange import OptimisticBinaryChainProtocol
from ..sim import KernelSnapshot, run_protocols
from .runner import FD_DEFAULT_VALUE, GLOBAL, LOCAL, run_ba_scenario, run_fd_scenario
from .scenarios import attack_catalogue
from .session import AmortizedSession

#: Count-measuring sweeps default to the fast HMAC simulation scheme (the
#: measured quantities are scheme-independent; benchmark E10 verifies that).
COUNT_SCHEME = "simulated-hmac"


@dataclass(frozen=True)
class WorkloadEntry:
    """One registry row.

    :ivar fn: the point function.
    :ivar suite: the benchmark suite label (e.g. ``"E11"``).
    :ivar deliveries: delivery-model spec names the workload supports.
        Workloads without a ``delivery`` parameter run lock-step only
        (``("sync",)``); the E12 sweeps accept any registered spec.
    :ivar verdict: the result key that judges the run, if any:
        ``repro-fd run`` exits 1 when it reads False.
    """

    fn: Callable[..., dict[str, Any]]
    suite: str
    deliveries: tuple[str, ...]
    verdict: str | None = None


#: name -> registry row.  Populated by :func:`workload`; suite and
#: deliveries are surfaced by ``repro-fd list-workloads``.
WORKLOADS: dict[str, WorkloadEntry] = {}


def workload(
    name: str, suite: str = "-", deliveries: tuple[str, ...] = ("sync",),
    verdict: str | None = None,
) -> Callable[[Callable], Callable]:
    """Register a point function under a stable sweep name.

    :param suite: the benchmark suite(s) the workload backs (``"E1/E2"``,
        ``"regress"`` ...), shown by ``repro-fd list-workloads``.
    :param deliveries: delivery-model spec names the workload supports
        (most are lock-step only; the E12 sweeps take a ``delivery``
        parameter and accept any registered spec).
    :param verdict: the result key that judges a run (see
        :class:`WorkloadEntry`).
    """

    def register(fn: Callable) -> Callable:
        if name in WORKLOADS:
            raise ConfigurationError(f"workload {name!r} registered twice")
        WORKLOADS[name] = WorkloadEntry(fn, suite, tuple(deliveries), verdict)
        return fn

    return register


def available_workloads() -> list[str]:
    """Registered workload names, sorted."""
    return sorted(WORKLOADS)


def get_workload(fn: str | Callable) -> Callable:
    """Registry dispatch: a name resolves to its registered point
    function, a callable passes through unchanged.

    :raises ConfigurationError: for unknown names.
    """
    if not isinstance(fn, str):
        return fn
    try:
        return WORKLOADS[fn].fn
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {fn!r}; available: {', '.join(available_workloads())}"
        ) from None


#: Every registered delivery model: the scenario points pass ``delivery``
#: straight to the runner.
ANY_DELIVERY = ("sync", "bounded", "loss", "partition", "rush")


@workload("keydist", suite="E1/E8/regress", deliveries=ANY_DELIVERY, verdict="keydist_ok")
def keydist_point(
    n: int, seed: int | str = 0, scheme: str = COUNT_SCHEME, delivery: "str | None" = None
) -> dict[str, Any]:
    """One key-distribution run (paper Fig. 1): message/round counts.

    ``keydist_ok`` is the paper's claim under ``sync`` (3n(n-1) messages
    in 3 rounds) and, under any other delivery, ``accepted``: every node
    holds exactly every other node's genuine predicate.
    """
    kd = run_key_distribution(n, scheme=scheme, seed=seed, delivery=delivery)
    accepted = all(
        directory.predicates_for(subject) == (kd.keypairs[subject].predicate,)
        for node, directory in kd.directories.items()
        for subject in kd.keypairs
        if subject != node
    )
    paper = kd.messages == keydist_messages(n) and kd.rounds == keydist_rounds()
    return {
        "n": n,
        "delivery": delivery or "sync",
        "messages": kd.messages,
        "rounds": kd.rounds,
        "accepted": accepted,
        "keydist_ok": paper if delivery in (None, "sync") else accepted,
    }


@workload("fd", suite="E2/E3/E5/E10/regress", deliveries=ANY_DELIVERY, verdict="fd_ok")
def fd_point(
    n: int,
    t: int,
    seed: int | str = 0,
    protocol: str = "chain",
    auth: str = GLOBAL,
    scheme: str = COUNT_SCHEME,
    value: Any = None,
    delivery: "str | None" = None,
    adversary: "str | None" = None,
) -> dict[str, Any]:
    """One failure-discovery scenario: rounds/messages/bytes plus verdicts.

    ``total_messages`` adds the key distribution under ``auth="local"``
    (E10 reads ``total_messages - messages`` as its cost); ``value`` is
    the disseminated value (E5's binary ``smallrange`` runs send 0 or 1),
    by default the protocol's :data:`~repro.harness.runner.FD_DEFAULT_VALUE`.
    ``committed`` lists an adaptive adversary's online corruptions as an
    adversary spec.
    """
    if value is None:
        value = FD_DEFAULT_VALUE.get(protocol)  # the runner names an unknown protocol
    outcome = run_fd_scenario(
        n, t, value, protocol=protocol, auth=auth, scheme=scheme, seed=seed,
        delivery=delivery, adversary=adversary,
    )
    run = outcome.run
    metrics = run.metrics
    return {
        "n": n,
        "t": t,
        "protocol": protocol,
        "auth": auth,
        "delivery": outcome.delivery or "sync",
        "adversary": adversary,
        "committed": ";".join(f"{node}={spec}" for node, spec in outcome.committed) or None,
        "rounds": metrics.rounds_used,
        "messages": metrics.messages_total,
        "drops": metrics.drops_total,
        "bytes": metrics.bytes_total,
        "keydist_messages": outcome.kd.messages if outcome.kd else 0,
        "total_messages": outcome.total_messages,
        "decisions": sorted(set(map(repr, run.decisions().values()))),
        "discoveries": len(run.discoverers()),
        "all_decided": all(s.decided for s in run.states),
        "fd_ok": outcome.fd.ok,
        "fd_detail": outcome.fd.detail,
    }


@workload("ba", suite="E7/regress", deliveries=ANY_DELIVERY, verdict="ba_ok")
def ba_point(
    n: int,
    t: int,
    seed: int | str = 0,
    protocol: str = "extension",
    auth: str = GLOBAL,
    scheme: str = COUNT_SCHEME,
    adversary: "str | None" = None,
    value: Any = "v",
    delivery: "str | None" = None,
) -> dict[str, Any]:
    """One Byzantine-agreement scenario: counts plus the BA verdict.

    ``adversary`` is an adversary-plane spec string
    (:func:`repro.faults.make_adversary`): E7 prices the extension's
    fallback with ``"1=silent"``, a crashed chain node.
    """
    outcome = run_ba_scenario(
        n, t, value, protocol=protocol, auth=auth, scheme=scheme, seed=seed,
        adversary=adversary, delivery=delivery,
    )
    metrics = outcome.run.metrics
    return {
        "n": n,
        "t": t,
        "protocol": protocol,
        "delivery": outcome.delivery or "sync",
        "adversary": adversary,
        "rounds": metrics.rounds_used,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "agreement": outcome.ba.agreement,
        "ba_ok": outcome.ba.ok,
        "ba_detail": outcome.ba.detail,
    }


@workload("oral", suite="E9/regress")
def oral_point(
    n: int, t: int, seed: int | str = 0, value: Any = "v"
) -> dict[str, Any]:
    """One OM(t) oral-agreement run over the (succinct) EIG tree."""
    run = run_protocols(make_oral_agreement_protocols(n, t, value), seed=seed)
    decisions = run.decisions()
    return {
        "n": n,
        "t": t,
        "rounds": run.metrics.rounds_used,
        "messages": run.metrics.messages_total,
        "bytes": run.metrics.bytes_total,
        "agreed": len(set(map(repr, decisions.values()))) == 1,
        "decision": repr(decisions.get(1)),
    }


@workload("e4-crossover", suite="E4")
def e4_crossover_point(n: int, t: int, seed: int | str = 0) -> dict[str, Any]:
    """One amortization-session measurement: runs until local auth wins."""
    predicted = crossover_runs(n, t)
    session = AmortizedSession(n=n, t=t, auth=LOCAL, scheme=COUNT_SCHEME, seed=seed)
    all_ok = True
    for k in range(predicted + 2):
        outcome = session.run(value=("run", k), seed=k)
        all_ok = all_ok and bool(outcome.fd.ok)
    return {
        "n": n,
        "t": t,
        "predicted": predicted,
        "measured": session.crossover_run(),
        "all_ok": all_ok,
    }


@workload("e5-optimistic", suite="E5")
def e5_optimistic_point(
    n: int,
    t: int,
    value: int,
    seed: int | str = 0,
    withhold: bool = False,
    scheme: str = COUNT_SCHEME,
) -> dict[str, Any]:
    """One optimistic binary chain run; ``withhold=True`` reproduces the
    documented F2 break (disseminator sends to low ids only)."""
    adversary = None
    if withhold:

        def adversary(keypairs, directories):
            disseminator = TamperingProtocol(
                OptimisticBinaryChainProtocol(n, t, keypairs[t], directories[t]),
                should_send=lambda rnd, to, payload: to < t + 3,
            )
            return AdversarySpec(overrides={t: disseminator}, t=t)

    outcome = run_fd_scenario(
        n,
        t,
        value,
        protocol="smallrange-optimistic",
        scheme=scheme,
        seed=seed,
        adversary=adversary,
    )
    return {
        "n": n,
        "t": t,
        "value": value,
        "withhold": withhold,
        "messages": outcome.run.metrics.messages_total,
        "fd_ok": outcome.fd.ok,
        "weak_agreement": outcome.fd.weak_agreement,
        "any_discovery": outcome.fd.any_discovery,
    }


@workload("e6-scenario", suite="E6", deliveries=ANY_DELIVERY, verdict="scenario_ok")
def e6_scenario_point(
    n: int,
    t: int,
    scenario: str,
    seed: int | str = 0,
    scheme: str = COUNT_SCHEME,
    value: Any = "v",
    delivery: "str | None" = None,
) -> dict[str, Any]:
    """One (attack scenario, seed) cell of the E6 discovery matrix.

    The scenario's FD-phase corruption enters through the adversary
    plane (the scenario's deferred ``adversary`` spec factory), so the
    run is budget-checked like every other adversarial run.
    ``scenario_ok``: F1-F3 hold and discovery is what the theorem
    predicts.
    """
    match = [s for s in attack_catalogue(n, t) if s.name == scenario]
    if not match:
        raise ConfigurationError(f"unknown attack scenario {scenario!r}")
    sc = match[0]
    outcome = run_fd_scenario(
        n,
        t,
        value,
        auth=LOCAL,
        scheme=scheme,
        seed=seed,
        kd_adversaries=sc.kd_adversaries(),
        adversary=sc.adversary,
        faulty=sc.faulty,
        delivery=delivery,
    )
    genuine = {
        node: outcome.kd.keypairs[node].predicate for node in outcome.correct
    }
    g12_violations = len(
        check_g1(outcome.kd.directories, genuine, outcome.correct)
    ) + len(check_g2(outcome.kd.directories, genuine, outcome.correct))
    return {
        "n": n,
        "t": t,
        "scenario": scenario,
        "faulty": sorted(sc.faulty),
        "expects_discovery": sc.expects_discovery,
        "fd_ok": outcome.fd.ok,
        "fd_detail": outcome.fd.detail,
        "any_discovery": outcome.fd.any_discovery,
        "discoverers": [node for node in outcome.run.discoverers() if node in outcome.correct],
        "g12_violations": g12_violations,
        "scenario_ok": outcome.fd.ok and outcome.fd.any_discovery == sc.expects_discovery,
    }


@workload("e8-rounds", suite="E8")
def e8_round_point(
    n: int, t: int, seed: int | str = 0, scheme: str = COUNT_SCHEME
) -> dict[str, Any]:
    """One row of the E8 round-complexity table: all three round counts."""
    kd = run_key_distribution(n, scheme=scheme, seed=seed)
    chain = run_fd_scenario(
        n, t, "v", protocol="chain", auth=GLOBAL, scheme=scheme, seed=seed
    )
    echo = run_fd_scenario(n, t, "v", protocol="echo", seed=seed)
    return {
        "n": n,
        "t": t,
        "keydist_rounds": kd.rounds,
        "chain_rounds": chain.run.metrics.rounds_used,
        "echo_rounds": echo.run.metrics.rounds_used,
    }


@workload("e9-chain-bytes", suite="E9")
def e9_chain_bytes_point(
    n: int, t: int, seed: int | str = 0, scheme: str = "schnorr-512"
) -> dict[str, Any]:
    """One chain-depth byte measurement (real signatures by default)."""
    outcome = run_fd_scenario(
        n, t, "v", protocol="chain", auth=GLOBAL, scheme=scheme, seed=seed
    )
    metrics = outcome.run.metrics
    last_round = max(metrics.bytes_per_round)
    return {
        "n": n,
        "t": t,
        "messages": metrics.messages_total,
        "bytes": metrics.bytes_total,
        "dissemination_msg_bytes": (
            metrics.bytes_per_round[last_round]
            / metrics.messages_per_round[last_round]
        ),
        "fd_ok": outcome.fd.ok,
    }


@workload("e9-compression", suite="E9")
def e9_compression_point(
    n: int, t: int, seed: int | str = 0, value: Any = "v"
) -> dict[str, Any]:
    """One OM(t) run instrumented for compression:
    dense-equivalent bytes (what the meters charge) vs the run-length
    bytes that actually crossed the wire, plus run/item counts for the
    closed-form check against
    :func:`repro.analysis.complexity.om_collapsed_reports`."""
    from ..agreement.eigtree import OM_REPORT_RLE
    from ..crypto.encoding import decode

    run = run_protocols(
        make_oral_agreement_protocols(n, t, value),
        seed=seed,
        record_views=True,
    )
    reports = runs_total = dense_items = wire_bytes = 0
    for view in run.views:
        for round_msgs in view.rounds:
            for msg in round_msgs:
                wire_bytes += len(msg.payload_encoding)
                payload = decode(msg.payload_encoding)
                if (
                    isinstance(payload, tuple)
                    and payload
                    and payload[0] == OM_REPORT_RLE
                ):
                    reports += 1
                    rle_runs = payload[5]
                    runs_total += len(rle_runs)
                    dense_items += sum(count for count, _ in rle_runs)
    decisions = run.decisions()
    return {
        "n": n,
        "t": t,
        "reports": reports,
        "runs_total": runs_total,
        "dense_items": dense_items,
        "dense_bytes": run.metrics.bytes_total,
        "wire_bytes": wire_bytes,
        "agreed": len(set(map(repr, decisions.values()))) == 1,
    }


@workload("e11-methods", suite="E11")
def e11_methods_point(
    n: int, t: int, seed: int | str = 0, scheme: str = COUNT_SCHEME
) -> dict[str, Any]:
    """One key-distribution method-comparison row: local auth vs n·OM(t)."""
    local = run_key_distribution(n, scheme=scheme, seed=seed)
    agreement = run_agreement_key_distribution(n, t, scheme=scheme, seed=seed)
    return {
        "n": n,
        "t": t,
        "local_messages": local.messages,
        "local_rounds": local.rounds,
        "agreement_messages": agreement.messages,
        "agreement_rounds": agreement.rounds,
    }


@workload("e11-feasibility", suite="E11")
def e11_feasibility_point(
    n: int, t: int, seed: int | str = 0, scheme: str = COUNT_SCHEME
) -> dict[str, Any]:
    """One feasibility-boundary row: agreement-based distribution at
    ``n <= 3t`` vs local authentication under a faulty majority."""
    try:
        run_agreement_key_distribution(n, t, scheme=scheme)
        agreement_feasible = True
    except ConfigurationError:
        agreement_feasible = False
    adversaries = {node: SilentProtocol() for node in range(2, n)}
    local = run_key_distribution(n, scheme=scheme, adversaries=adversaries, seed=seed)
    pair_ok = local.directories[0].predicates_for(1) == (
        local.keypairs[1].predicate,
    )
    return {
        "n": n,
        "t": t,
        "agreement_feasible": agreement_feasible,
        "local_pair_ok": pair_ok,
        "faulty": n - 2,
    }


def _fault_load(n: int, t: int, faulty: int, behavior: str) -> AdversarySpec | None:
    """The conventional E12/E13 corruption as an adversary-plane spec:
    ``behavior`` (E12's rushing ``"rush"`` mirrors, E13's ``"silent"``
    crash case every FD protocol must catch) on the ``faulty`` highest
    ids — never node 0, the commander/disseminator stays honest — or
    None for a failure-free run.

    The budget is checked against ``max(t, faulty)`` rather than ``t``
    alone: the sweeps deliberately let the ``faulty`` axis exceed small
    fault budgets to map where the guarantees actually crack.
    """
    if faulty < 0 or faulty >= n:
        raise ConfigurationError(f"faulty must be in 0..{n - 1}, got {faulty}")
    if not faulty:
        return None
    return AdversarySpec(
        corrupt=tuple((node, behavior) for node in range(n - faulty, n)),
        t=max(t, faulty),
    )


def _with_trace(result: dict[str, Any], run, trace: bool) -> dict[str, Any]:
    """``result``, plus the run's formatted event log when asked for."""
    if trace and run.trace is not None:
        result["trace"] = run.trace.format()
    return result


def _half_partition(n: int, heal: int, defer: bool) -> str:
    """Delivery spec splitting ``{0 .. n//2-1}`` from ``{n//2 .. n-1}``
    at tick 0 and healing at ``heal``; ``defer`` parks cross-partition
    traffic until then instead of dropping it."""
    split = n // 2
    mode = "/defer" if defer else ""
    return f"partition:0-{split - 1}|{split}-{n - 1}@{heal}{mode}"


def _e12_result(
    run, n: int, t: int, delivery: str, faulty: int, trace: bool, **outcome: Any
) -> dict[str, Any]:
    """The shared E12 result shape: identity + timing counters + the
    probe-specific outcome fields, plus the event log when asked."""
    result = {
        "n": n,
        "t": t,
        "delivery": delivery,
        "faulty": faulty,
        **outcome,
        "rounds": run.metrics.rounds_used,
        "ticks": run.rounds_executed,
        "messages": run.metrics.messages_total,
        "mean_lag": round(run.metrics.mean_delivery_lag, 4),
    }
    return _with_trace(result, run, trace)


@workload("e12-oral", suite="E12/regress", deliveries=("sync", "bounded", "rush"))
def e12_oral_point(
    n: int,
    t: int,
    delivery: str = "sync",
    faulty: int = 0,
    seed: int | str = 0,
    value: Any = "v",
    trace: bool = False,
) -> dict[str, Any]:
    """One OM(t) oral-agreement run under a chosen delivery model.

    The E12 axis: the *same* protocols and the same Byzantine strategy
    (:class:`~repro.faults.RushMirrorProtocol` on the ``faulty`` highest
    ids) swept across ``sync`` / ``bounded:d`` / ``rush`` delivery
    specs, so outcome divergence is attributable to network timing
    alone.  Under ``rush`` the mirrors are the rushing set.
    """
    outcome = run_ba_scenario(
        n,
        t,
        value,
        protocol="oral",
        seed=seed,
        adversary=_fault_load(n, t, faulty, "rush"),
        delivery=delivery,
        record_trace=trace,
    )
    run = outcome.run
    honest = {
        node: val
        for node, val in run.decisions().items()
        if node in outcome.correct
    }
    return _e12_result(
        run, n, t, delivery, faulty, trace,
        agreed=outcome.ba.agreement,
        decision=repr(min(honest.items())[1]) if honest else None,
        decided=len(honest),
    )


@workload("e12-fd", suite="E12/regress", deliveries=("sync", "bounded", "rush"))
def e12_fd_point(
    n: int,
    t: int,
    delivery: str = "sync",
    faulty: int = 0,
    seed: int | str = 0,
    trace: bool = False,
) -> dict[str, Any]:
    """One chain-FD scenario under a chosen delivery model.

    Chain FD leans hardest on N1's *known* one-round bound (silence and
    timing are evidence), so this is where delivery skew shows first:
    under ``bounded:d`` even failure-free runs deliver chain links late
    and honest nodes discover "failures" that are really network skew.
    """
    outcome = run_fd_scenario(
        n,
        t,
        "v",
        protocol="chain",
        auth=GLOBAL,
        scheme=COUNT_SCHEME,
        seed=seed,
        adversary=_fault_load(n, t, faulty, "rush"),
        delivery=delivery,
        record_trace=trace,
    )
    run = outcome.run
    return _e12_result(
        run, n, t, delivery, faulty, trace,
        fd_ok=outcome.fd.ok,
        any_discovery=outcome.fd.any_discovery,
        all_decided=all(run.states[node].decided for node in outcome.correct),
    )


@workload("e12-ba", suite="E12/regress", deliveries=("sync", "bounded", "rush"))
def e12_ba_point(
    n: int,
    t: int,
    delivery: str = "sync",
    faulty: int = 0,
    seed: int | str = 0,
    trace: bool = False,
) -> dict[str, Any]:
    """One signed-agreement (SM(t)) run under a chosen delivery model.

    The signature chains make equivocation detectable regardless of
    timing, so SM(t) is the resilience baseline of the E12 sweep — the
    interesting measurement is how far its agreement survives skew and
    rushing relative to oral agreement and chain FD.
    """
    outcome = run_ba_scenario(
        n,
        t,
        "v",
        protocol="signed",
        auth=GLOBAL,
        scheme=COUNT_SCHEME,
        seed=seed,
        adversary=_fault_load(n, t, faulty, "rush"),
        delivery=delivery,
        record_trace=trace,
    )
    return _e12_result(
        outcome.run, n, t, delivery, faulty, trace,
        ba_ok=outcome.ba.ok,
        agreement=outcome.ba.agreement,
    )


@workload("e13-loss", suite="E13/regress", deliveries=("loss",))
def e13_loss_point(
    n: int,
    t: int,
    loss: float = 0.2,
    protocol: str = "oral",
    faulty: int = 0,
    seed: int | str = 0,
    value: Any = "v",
    trace: bool = False,
) -> dict[str, Any]:
    """Agreement survival under message loss: one (protocol, loss) cell.

    The E13 agreement axis: the same protocols as E12's baseline —
    ``oral`` OM(t) or ``ba`` signed SM(t) — under ``loss:p`` delivery,
    with ``faulty`` silent nodes from the adversary plane.  The
    measurement is how much loss each guarantee absorbs before honest
    nodes stop agreeing (and how much of the sent traffic the network
    ate, now first-class in the metrics).
    """
    names = {"oral": "oral", "ba": "signed"}
    if protocol not in names:
        raise ConfigurationError(
            f"e13-loss protocol must be 'oral' or 'ba', got {protocol!r}"
        )
    scenario = run_ba_scenario(
        n, t, value, protocol=names[protocol], auth=GLOBAL, scheme=COUNT_SCHEME,
        seed=seed, adversary=_fault_load(n, t, faulty, "silent"),
        delivery=f"loss:{loss}", record_trace=trace,
    )
    run = scenario.run
    result = {
        "n": n,
        "t": t,
        "protocol": protocol,
        "loss": loss,
        "faulty": faulty,
        "agreed": scenario.ba.agreement,
        "decided": sum(1 for node in scenario.correct if run.states[node].decided),
        "messages": run.metrics.messages_total,
        "drops": run.metrics.drops_total,
        "loss_rate": round(run.metrics.loss_rate, 4),
        "rounds": run.metrics.rounds_used,
    }
    return _with_trace(result, run, trace)


def _fd_cell(
    name: str, protocols: tuple[str, str], n: int, t: int, delivery: str,
    protocol: str, adversary: AdversarySpec | None, seed: int | str,
    trace: bool, checkpoint_at: int | None, resume_from: KernelSnapshot | None,
    timeout: int | None = None, max_timeout: int | None = None, **axes: Any,
) -> dict[str, Any] | KernelSnapshot:
    """The E13/E14 discovery cell: ``protocol`` (one of the workload's
    two) under ``delivery`` against ``adversary``.

    ``spurious`` is a discovery with nothing faulty *and* nothing
    committed (network skew mistaken for a fault — an adaptively
    committed corruption is a real one); ``missed`` is a run with faults
    present that no correct node discovered.  ``axes`` (E14's
    ``attack``) join the result after ``delivery``; ``timeout`` tunes the
    ``timeout`` protocol, ``max_timeout`` the ``adaptive`` one.
    """
    if protocol not in protocols:
        raise ConfigurationError(
            f"{name} protocol must be {protocols[0]!r} or {protocols[1]!r}, "
            f"got {protocol!r}"
        )
    params: dict[str, Any] = {}
    if protocol == "timeout" and timeout is not None:
        params["timeout"] = timeout
    if protocol == "adaptive" and max_timeout is not None:
        params["max_timeout"] = max_timeout
    outcome = run_fd_scenario(
        n, t, "v", protocol=protocol, auth=GLOBAL, scheme=COUNT_SCHEME, seed=seed,
        adversary=adversary, delivery=delivery, record_trace=trace,
        protocol_params=params, checkpoint_at=checkpoint_at, resume_from=resume_from,
    )
    if checkpoint_at is not None:
        return outcome
    run = outcome.run
    discovered = outcome.fd.any_discovery
    faulty = 0 if adversary is None else len(adversary.faulty)
    committed = len(outcome.committed)
    result = {
        "n": n,
        "t": t,
        "protocol": protocol,
        "delivery": delivery,
        **axes,
        "faulty": faulty,
        "committed": committed,
        "fd_ok": outcome.fd.ok,
        "discovered": discovered,
        "spurious": bool(discovered and faulty == 0 and committed == 0),
        "missed": bool(not discovered and (faulty > 0 or committed > 0)),
        "decided": sum(1 for node in outcome.correct if run.states[node].decided),
        "messages": run.metrics.messages_total,
        "drops": run.metrics.drops_total,
        "rounds": run.metrics.rounds_used,
    }
    return _with_trace(result, run, trace)


@workload(
    "e13-timeout-fd",
    suite="E13/regress",
    deliveries=("sync", "bounded", "loss", "partition"),
)
def e13_timeout_fd_point(
    n: int,
    t: int,
    delivery: str = "sync",
    protocol: str = "timeout",
    faulty: int = 0,
    seed: int | str = 0,
    timeout: int | None = None,
    trace: bool = False,
    checkpoint_at: int | None = None,
    resume_from: KernelSnapshot | None = None,
) -> dict[str, Any] | KernelSnapshot:
    """Round-indexed vs timeout FD under a chosen delivery model.

    The E13 discovery axis: the *same* fault load (``faulty`` silent
    nodes via the adversary plane) and the same delivery spec, run
    through the paper's round-indexed ``chain`` protocol or the
    weak-model ``timeout`` protocol — so the spurious-vs-missed
    discovery comparison isolates the protocol design.

    ``checkpoint_at`` / ``resume_from`` are the warm-started sweep hooks
    (:func:`repro.harness.parallel.sweep_prefix_shared`): the former
    runs only the shared prefix and returns its snapshot, the latter
    finishes a prefix with ``timeout`` retuned as the fork axis.
    """
    return _fd_cell(
        "e13-timeout-fd", ("chain", "timeout"), n, t, delivery, protocol,
        _fault_load(n, t, faulty, "silent"), seed, trace, checkpoint_at,
        resume_from, timeout=timeout,
    )


@workload("e13-partition", suite="E13/regress", deliveries=("partition",))
def e13_partition_point(
    n: int,
    t: int,
    heal: int = 4,
    defer: bool = True,
    protocol: str = "timeout",
    seed: int | str = 0,
    timeout: int | None = None,
    trace: bool = False,
    checkpoint_at: int | None = None,
    resume_from: KernelSnapshot | None = None,
) -> dict[str, Any] | KernelSnapshot:
    """Partition-heal convergence: one (heal tick, mode) cell.

    The network splits ``{0 .. n//2-1}`` from ``{n//2 .. n-1}`` at tick
    0 and heals at ``heal``; ``defer`` parks cross-partition traffic
    until then (store-and-forward) instead of dropping it.  Measured:
    whether every node converges on the sender's value once the
    partition heals — which for timeout FD happens exactly when the
    heal falls inside the protocol's ``timeout`` horizon — versus the
    chain protocol, which has no second chance.
    """
    result = e13_timeout_fd_point(
        n,
        t,
        delivery=_half_partition(n, heal, defer),
        protocol=protocol,
        faulty=0,
        seed=seed,
        timeout=timeout,
        trace=trace,
        checkpoint_at=checkpoint_at,
        resume_from=resume_from,
    )
    if checkpoint_at is not None:
        return result
    return result | {"heal": heal, "defer": defer}


@workload(
    "e14-adaptive",
    suite="E14/regress",
    deliveries=("sync", "bounded", "loss", "partition"),
)
def e14_adaptive_point(
    n: int,
    t: int,
    delivery: str = "sync",
    protocol: str = "adaptive",
    attack: str = "none",
    seed: int | str = 0,
    timeout: int | None = None,
    max_timeout: int | None = None,
    trace: bool = False,
    checkpoint_at: int | None = None,
    resume_from: KernelSnapshot | None = None,
) -> dict[str, Any] | KernelSnapshot:
    """Static vs adaptive timeout FD against a chosen attack: one cell.

    The E14 arms-race axis.  ``protocol`` selects the defence (the
    fixed-horizon ``timeout`` FD or the delay-estimating ``adaptive``
    FD); ``attack`` selects the offence:

    * ``none`` — failure-free (measures spurious discovery);
    * ``silent`` — one statically silent node (the E13 load);
    * ``ack-lie`` — the corrupt node acks-then-drops so retransmission
      stops while the value never lands;
    * ``equivocate`` — node 1 tells the two halves of the network
      different stories;
    * an ``adaptive:STRATEGY`` spec — the adversary watches the run's
      live counters and commits corruptions online, budget-checked at
      commitment time.
    """
    if attack == "none":
        adversary: AdversarySpec | None = None
    elif attack == "silent":
        adversary = _fault_load(n, t, 1, "silent")
    elif attack == "ack-lie":
        adversary = AdversarySpec(corrupt=((n - 1, "ack-lie"),), t=t)
    elif attack == "equivocate":
        adversary = AdversarySpec(corrupt=((1, "equivocate"),), t=t)
    elif attack.startswith("adaptive:"):
        adversary = make_adversary(attack, t=t)
    else:
        raise ConfigurationError(
            f"e14-adaptive attack must be 'none', 'silent', 'ack-lie', "
            f"'equivocate' or 'adaptive:STRATEGY', got {attack!r}"
        )
    return _fd_cell(
        "e14-adaptive", ("timeout", "adaptive"), n, t, delivery, protocol,
        adversary, seed, trace, checkpoint_at, resume_from,
        timeout=timeout, max_timeout=max_timeout, attack=attack,
    )


@workload("e14-equivocation", suite="E14/regress", deliveries=("partition",))
def e14_equivocation_point(
    n: int,
    t: int,
    heal: int = 4,
    defer: bool = True,
    protocol: str = "adaptive",
    seed: int | str = 0,
    trace: bool = False,
) -> dict[str, Any]:
    """Partition-straddling equivocation: one (heal tick, mode) cell.

    The network splits in half and heals at ``heal`` (``defer`` parks
    cross-partition traffic until then); node 1 — inside the sender's
    partition — tells the two sides different stories from tick 0
    (:class:`repro.faults.EquivocatingProtocol`), so the heal either
    exposes the lie to the far side or buries it with the dropped
    deferrals.  Measured: whether the FD under test still converges on
    the sender's value and whether anyone catches the equivocator.
    """
    return e14_adaptive_point(
        n,
        t,
        delivery=_half_partition(n, heal, defer),
        protocol=protocol,
        attack="equivocate",
        seed=seed,
        trace=trace,
    ) | {"heal": heal, "defer": defer}


@workload(
    "akd",
    suite="E11/regress",
    deliveries=("sync", "bounded", "loss", "partition"),
)
def akd_point(
    n: int,
    t: int,
    seed: int | str = 0,
    scheme: str = COUNT_SCHEME,
    adversary: "str | None" = None,
    delivery: "str | None" = None,
) -> dict[str, Any]:
    """One agreement-based key-distribution run: per-instance counts.

    ``delivery`` accepts any deterministic-calendar spec (``bounded:3``,
    ``loss:0.05:2``, ``partition:...``); the mux rides the batch plane on
    all of them.
    """
    per_instance = run_agreement_key_distribution(
        n, t, scheme=scheme, seed=seed, adversary=adversary, delivery=delivery
    ).per_instance
    messages = [agg.messages for agg in per_instance.values()]
    byte_counts = [agg.bytes for agg in per_instance.values()]
    agreed = all(
        len({repr(v) for node, v in agg.decisions.items() if node != instance})
        == 1
        for instance, agg in per_instance.items()
    )
    return {
        "n": n,
        "t": t,
        "instances": len(per_instance),
        "messages": sum(messages),
        "bytes": sum(byte_counts),
        "rounds": max(agg.rounds for agg in per_instance.values()),
        "instance_messages_min": min(messages),
        "instance_messages_max": max(messages),
        "instance_bytes_min": min(byte_counts),
        "instance_bytes_max": max(byte_counts),
        "agreed": agreed,
        # Kept for benchmarks/e2e/, which promises "columnar" on the mux workloads.
        "engine_used": "columnar",
    }
