"""Scenario runner: authentication setup + protocol run + evaluation.

One call = one experiment data point.  The runner wires together the
layers in the order the paper prescribes: establish authentication (local
key distribution or global trusted dealer), then run a Failure Discovery
or agreement protocol on the resulting key material, then evaluate the
F1-F3 / BA conditions.

There is one copy of that pipeline, :func:`_run_scenario`; the public
runners and :meth:`repro.harness.session.AmortizedSession.run` differ
only in the protocol table they name and in whether the key material
already exists.  ``adversary=`` is the only way to corrupt the protocol
run (``kd_adversaries`` corrupts the key-distribution phase, a different
run the adversary plane does not cover).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..agreement import (
    BAEvaluation,
    evaluate_ba,
    make_extended_protocols,
    make_oral_agreement_protocols,
    make_signed_agreement_protocols,
)
from ..auth import (
    KeyDirectory,
    KeyDistributionResult,
    run_key_distribution,
    trusted_dealer_setup,
)
from ..crypto import DEFAULT_SCHEME
from ..crypto.keys import KeyPair
from ..errors import ConfigurationError
from ..faults.adversary import committed_corruptions, make_adversary
from ..fd import (
    FDEvaluation,
    evaluate_fd,
    make_adaptive_fd_protocols,
    make_chain_fd_protocols,
    make_echo_fd_protocols,
    make_small_range_protocols,
    make_timeout_fd_protocols,
)
from ..sim import (
    DeliveryModel,
    EventKernel,
    KernelSnapshot,
    Protocol,
    RunResult,
    capture_kernel,
    make_delivery,
    restore_kernel,
    retune_protocols,
)
from ..types import NodeId

#: Authentication modes: the paper's new mechanism vs the classic baseline.
LOCAL = "local"
GLOBAL = "global"

#: The ``adversary=`` parameter of every scenario entry: a spec string, a
#: ``{node: behaviour}`` mapping, a ready
#: :class:`~repro.faults.AdversarySpec`, or a deferred factory
#: ``(keypairs, directories) -> AdversarySpec`` for corruption that needs
#: key material (the attack scenarios).
AdversaryInput = Any


#: FD protocol name -> ``(n, t, value, keypairs, directories,
#: adversaries=, **protocol_params)`` factory.
FD_PROTOCOLS: dict[str, Callable[..., list[Protocol]]] = {
    "chain": make_chain_fd_protocols,
    "echo": lambda n, t, value, keypairs, directories, **params: (
        make_echo_fd_protocols(n, t, value, **params)
    ),
    "timeout": make_timeout_fd_protocols,
    "adaptive": make_adaptive_fd_protocols,
    "smallrange": make_small_range_protocols,
    "smallrange-optimistic": partial(make_small_range_protocols, optimistic=True),
}

#: BA protocol name -> factory, same shape as :data:`FD_PROTOCOLS`.
BA_PROTOCOLS: dict[str, Callable[..., list[Protocol]]] = {
    "extension": make_extended_protocols,
    "signed": make_signed_agreement_protocols,
    "oral": lambda n, t, value, keypairs, directories, **params: (
        make_oral_agreement_protocols(n, t, value, **params)
    ),
}

#: The non-authenticated protocols: their factories consume no key
#: material, so a global dealer's (expensive) key generation is skipped.
_KEY_FREE = frozenset({"echo", "oral"})

#: Scenario kind -> (protocol table, evaluator of the run's conditions).
FD, BA = "fd", "ba"
_KINDS = {FD: (FD_PROTOCOLS, evaluate_fd), BA: (BA_PROTOCOLS, evaluate_ba)}


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    :ivar kd: the key distribution result (None under global auth).
    :ivar run: the protocol run itself.
    :ivar fd: F1-F3 evaluation (None for BA scenarios).
    :ivar ba: BA evaluation (None for FD scenarios).
    :ivar correct: the correct-node set the evaluation used — with
        adaptive corruptions already subtracted.
    :ivar committed: corruptions an adaptive adversary strategy
        committed online, as ``(node, behaviour-spec)`` pairs in node
        order (empty for static adversaries).
    """

    kd: KeyDistributionResult | None
    run: RunResult
    fd: FDEvaluation | None
    ba: BAEvaluation | None
    correct: set[NodeId]
    committed: tuple[tuple[NodeId, str], ...] = ()

    @property
    def total_messages(self) -> int:
        """Protocol messages plus (under local auth) key distribution."""
        kd_messages = self.kd.messages if self.kd is not None else 0
        return kd_messages + self.run.metrics.messages_total


def setup_authentication(
    n: int,
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
) -> tuple[dict[NodeId, KeyPair], dict[NodeId, KeyDirectory], KeyDistributionResult | None]:
    """Establish keys and directories in the requested mode.

    :param auth: :data:`LOCAL` (run the paper's Fig. 1 protocol, possibly
        with Byzantine participants) or :data:`GLOBAL` (trusted dealer).
    :returns: ``(keypairs, directories, kd_result_or_None)``.
    """
    if auth == GLOBAL:
        if kd_adversaries:
            raise ConfigurationError(
                "key-distribution adversaries only make sense under local auth"
            )
        keypairs, directories = trusted_dealer_setup(n, scheme=scheme, seed=seed)
        return keypairs, directories, None
    if auth == LOCAL:
        kd = run_key_distribution(
            n, scheme=scheme, adversaries=kd_adversaries, seed=seed
        )
        return kd.keypairs, kd.directories, kd
    raise ConfigurationError(f"unknown auth mode {auth!r}")


def _resume(
    snapshot: KernelSnapshot,
    given: dict[str, Any],
    delivery: "str | DeliveryModel | None",
    retunes: dict[str, Any] | None,
) -> tuple[EventKernel, set[NodeId], KeyDistributionResult | None]:
    """Rebuild the kernel of a prefix snapshot for the caller's scenario.

    Validates the snapshot's fingerprint against ``given`` (mismatched
    forks fail fast instead of silently evaluating the wrong run) and
    retunes ``retunes`` onto the resumed protocols (the warm-started
    sweep axis).  Returns the kernel with the evaluation inputs the
    prefix recorded: its faulty set and key-distribution result.
    """
    scenario = snapshot.extras.get("scenario")
    if not isinstance(scenario, dict) or scenario.get("kind") != given["kind"]:
        raise ConfigurationError(
            f"snapshot does not carry an {given['kind'].upper()} scenario "
            "fingerprint — resume_from expects a snapshot made by the same "
            "scenario runner with checkpoint_at=T"
        )
    if isinstance(delivery, str) and isinstance(scenario.get("delivery"), str):
        # The delivery model is part of the shared prefix, not a fork axis.
        given = {**given, "delivery": delivery}
    for name, value in given.items():
        if scenario.get(name) != value:
            raise ConfigurationError(
                f"resume mismatch: snapshot was taken with "
                f"{name}={scenario.get(name)!r}, this call passes {value!r}"
            )
    kernel = restore_kernel(snapshot)
    if retunes:
        retune_protocols(kernel.protocols, **retunes)
    return kernel, set(scenario["faulty"]), snapshot.extras.get("kd")


def _outcome(
    kernel: EventKernel, run: RunResult, kind: str, value: Any,
    faulty: set[NodeId], kd: KeyDistributionResult | None,
) -> ScenarioOutcome:
    """Judge a finished run: the one evaluation every entry shares.

    Adaptive corruptions exist only now the run has happened (and a
    resumed kernel has no handle on them but its protocols), so the
    correct set is recomputed from them before the conditions are
    judged.
    """
    committed = tuple(
        (node, behavior.spec())
        for node, behavior in sorted(committed_corruptions(kernel.protocols).items())
    )
    correct = set(range(kernel.n)) - faulty - {node for node, _ in committed}
    _, evaluate = _KINDS[kind]
    verdict = evaluate(run, correct, sender=0, sender_value=value)
    fd, ba = (verdict, None) if kind == FD else (None, verdict)
    return ScenarioOutcome(
        kd=kd, run=run, fd=fd, ba=ba, correct=correct, committed=committed
    )


def _run_scenario(
    kind: str,
    n: int,
    t: int,
    value: Any,
    protocol: str,
    *,
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
    keys: tuple | None = None,
    faulty: set[NodeId] | None = None,
    delivery: str | DeliveryModel | None = None,
    adversary: AdversaryInput = None,
    record_trace: bool = False,
    protocol_params: dict[str, Any] | None = None,
    checkpoint_at: int | None = None,
    resume_from: KernelSnapshot | None = None,
) -> "ScenarioOutcome | KernelSnapshot":
    """The scenario pipeline: keys, adversary, protocols, kernel, verdict.

    :param kind: :data:`FD` or :data:`BA` — which protocol table and
        evaluator apply.
    :param keys: a :func:`setup_authentication` result established
        earlier (an amortized session); ``None`` establishes it now.

    Every other parameter is documented on :func:`run_fd_scenario`.
    """
    factories, _ = _KINDS[kind]
    if protocol not in factories:
        raise ConfigurationError(f"unknown {kind.upper()} protocol {protocol!r}")
    given = {"kind": kind, "n": n, "t": t, "protocol": protocol, "seed": seed}
    if resume_from is not None:
        if checkpoint_at is not None:
            raise ConfigurationError(
                "checkpoint_at and resume_from are mutually exclusive: a "
                "call either captures a prefix or finishes one"
            )
        kernel, faulty, kd = _resume(resume_from, given, delivery, protocol_params)
        return _outcome(kernel, kernel.run(), kind, value, faulty, kd)

    if keys is not None:
        keypairs, directories, kd = keys
    elif (
        protocol in _KEY_FREE
        and auth == GLOBAL
        and not kd_adversaries
        and not callable(adversary)
    ):
        # No protocol or declarative adversary consumes key material,
        # and a global dealer contributes neither messages nor rounds.
        keypairs, directories, kd = {}, {}, None
    else:
        keypairs, directories, kd = setup_authentication(
            n, auth=auth, scheme=scheme, seed=seed, kd_adversaries=kd_adversaries
        )
    if callable(adversary):
        # Deferred spec: corruption that needs key material (the attack
        # scenarios) supplies a factory resolved once authentication ran.
        adversary = adversary(keypairs, directories)
    spec = make_adversary(adversary, t=t)  # the <= t budget is enforced here
    faulty = set(kd_adversaries or ()) if faulty is None else set(faulty)
    overrides: dict[NodeId, Protocol] = {}
    if spec is not None:
        faulty |= spec.faulty
        # Overrides may corrupt nodes whose key material never existed
        # (kd-phase casualties), so they enter through the factories'
        # skip path; declarative behaviours wrap the honest protocol
        # after construction.
        overrides = dict(spec.overrides)
        if delivery is None:
            delivery = spec.delivery
    protocols = factories[protocol](
        n, t, value, keypairs, directories,
        adversaries=overrides, **(protocol_params or {}),
    )
    if spec is not None:
        protocols = spec.protocols_for(protocols)
    kernel = EventKernel(
        protocols,
        seed=seed,
        delivery=make_delivery(delivery, rushing=faulty),
        record_trace=record_trace,
    )
    if checkpoint_at is None:
        return _outcome(kernel, kernel.run(), kind, value, faulty, kd)
    finished = kernel.run(until_tick=checkpoint_at)
    if finished is not None:
        raise ConfigurationError(
            f"run completed after {finished.rounds_executed} ticks, "
            f"before the checkpoint tick {checkpoint_at} — a prefix "
            "snapshot must precede completion"
        )
    return capture_kernel(
        kernel,
        extras={
            "scenario": {
                **given,
                "delivery": delivery if isinstance(delivery, str) else None,
                "faulty": sorted(faulty),
            },
            "kd": kd,
        },
    )


def run_fd_scenario(
    n: int,
    t: int,
    value: Any,
    protocol: str = "chain",
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
    faulty: set[NodeId] | None = None,
    delivery: str | DeliveryModel | None = None,
    adversary: AdversaryInput = None,
    record_trace: bool = False,
    protocol_params: dict[str, Any] | None = None,
    checkpoint_at: int | None = None,
    resume_from: KernelSnapshot | None = None,
) -> "ScenarioOutcome | KernelSnapshot":
    """Run one Failure Discovery scenario end to end.

    :param protocol: a :data:`FD_PROTOCOLS` name — ``"chain"`` (paper
        Fig. 2), ``"echo"`` (non-auth baseline), ``"smallrange"`` /
        ``"smallrange-optimistic"`` (binary variants), ``"timeout"``
        (heartbeat/timeout FD for the weak delivery models,
        :mod:`repro.fd.timeout`), ``"adaptive"`` (adaptive-timeout FD
        with measured deadlines, :mod:`repro.fd.adaptive`).
    :param kd_adversaries: Byzantine behaviours during key distribution
        (a separate lock-step run; the FD run's own corruption is
        ``adversary``).
    :param faulty: the faulty-node set for evaluation (default: the
        key-distribution adversaries); the ``adversary`` spec's nodes
        are always added.
    :param delivery: delivery model for the FD run — an instance or a
        spec string (see :func:`repro.sim.make_delivery`); a ``"rush"``
        spec without an explicit node list rushes the faulty set.  The
        key-distribution phase always runs lock-step (it establishes the
        baseline the paper assumes); only the FD phase is skewed.
    :param adversary: the FD run's adversary, the only way to corrupt
        it — an :class:`~repro.faults.AdversarySpec`, its spec string or
        mapping (see :func:`repro.faults.make_adversary`), or a deferred
        factory ``(keypairs, directories) -> AdversarySpec`` for
        corruption that needs key material.  Budget-checked against
        ``t``; its corruptions are installed over the honest protocols
        and its delivery power applies when ``delivery`` is unset.
    :param record_trace: capture the FD run's structured event log.
    :param protocol_params: extra keyword arguments for the protocol
        factory (e.g. ``timeout`` / ``retransmit_every`` for
        ``"timeout"``).  In ``resume_from`` mode they are *retunes*
        applied to the resumed protocols instead
        (:func:`repro.sim.retune_protocols`) — only warm-fork-safe
        parameters (the protocol's ``tunable`` set) are accepted.
    :param checkpoint_at: run only to this tick and return a
        :class:`~repro.sim.KernelSnapshot` (carrying the scenario
        fingerprint and evaluation inputs) instead of an outcome — the
        shared-prefix half of a warm-started sweep.  Fails fast if the
        run completes before the checkpoint tick.
    :param resume_from: finish a previously captured prefix snapshot
        instead of starting from tick 0; every other scenario parameter
        must match the snapshot's fingerprint, and ``protocol_params``
        become the fork's retunes.
    """
    return _run_scenario(
        FD, n, t, value, protocol, auth=auth, scheme=scheme, seed=seed,
        kd_adversaries=kd_adversaries, faulty=faulty, delivery=delivery,
        adversary=adversary, record_trace=record_trace,
        protocol_params=protocol_params, checkpoint_at=checkpoint_at,
        resume_from=resume_from,
    )


def run_ba_scenario(
    n: int,
    t: int,
    value: Any,
    protocol: str = "extension",
    auth: str = GLOBAL,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    kd_adversaries: dict[NodeId, Protocol] | None = None,
    faulty: set[NodeId] | None = None,
    delivery: str | DeliveryModel | None = None,
    adversary: AdversaryInput = None,
    record_trace: bool = False,
) -> ScenarioOutcome:
    """Run one Byzantine Agreement scenario end to end.

    :param protocol: a :data:`BA_PROTOCOLS` name — ``"extension"``
        (FD→BA), ``"signed"`` (SM(t)) or ``"oral"`` (OM(t), key-free).
    :param delivery: delivery model for the BA run (instance or spec
        string; ``"rush"`` without node list rushes the faulty set).
    :param adversary: the BA run's adversary (spec, string, mapping or
        deferred factory), budget-checked against ``t`` — see
        :func:`run_fd_scenario`.
    :param record_trace: capture the BA run's structured event log.
    """
    return _run_scenario(
        BA, n, t, value, protocol, auth=auth, scheme=scheme, seed=seed,
        kd_adversaries=kd_adversaries, faulty=faulty, delivery=delivery,
        adversary=adversary, record_trace=record_trace,
    )
