"""Agreement-based key distribution: the option the paper argues against.

Section 3 of the paper lists the classical ways to reach globally
authentic key bindings without a dealer:

    "one can either use non-authenticated agreement protocols, which may
    not work because of too many faulty nodes, or assume some reliable
    key server ..."

This module implements the first option concretely so its cost and its
failure boundary can be *measured* rather than asserted: every node
distributes its test predicate through one instance of non-authenticated
Byzantine Agreement (OM(t)/EIG, :mod:`repro.agreement.oral`), giving all
correct nodes identical directories — property G3 included, which local
authentication cannot offer.

The two drawbacks the paper names, reproduced:

* **feasibility** — OM(t) requires ``n > 3t``; construction fails
  outright at ``n <= 3t`` (:class:`repro.errors.ConfigurationError`),
  whereas local authentication works under *any* number of faults;
* **cost** — n agreement instances cost ``n · [(n-1) + t(n-1)²]``
  envelopes (and exponentially many path reports), versus ``3n(n-1)``
  for local authentication.  Benchmark E11 prints the comparison, per
  instance and in aggregate, against the closed forms in
  :mod:`repro.analysis.complexity`.

The n agreement instances run *concurrently* in one simulated execution
through the simulator's first-class instance multiplexer
(:class:`repro.sim.multiplex.InstanceMux`) — the charitable reading;
serial execution would also multiply the round count by n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..agreement.oral import OM_REPORT, OM_VALUE, OralAgreementProtocol
from ..crypto import DEFAULT_SCHEME
from ..crypto.keys import KeyPair, TestPredicate, get_scheme
from ..errors import ConfigurationError
from ..faults.adversary import AdversarySpec, Behavior, make_adversary
from ..faults.behaviors import RandomNoiseProtocol
from ..sim import (
    InstanceAggregate,
    InstanceMux,
    NodeContext,
    Protocol,
    RunResult,
    collect_instances,
    make_delivery,
    run_protocols,
)
from ..types import NodeId, validate_fault_budget
from .directory import KeyDirectory

#: Wire-tag channel shared by all agreement-based key distribution muxes.
AKD_CHANNEL = "akd"


def akd_noise_pool(n: int) -> tuple:
    """OM-shaped Byzantine payload candidates for AKD noise adversaries.

    Forged sender values, malformed reports, valid-looking lies and plain
    garbage — the same engine-agnostic families the EIG equivalence tests
    exercise.  A noise adversary wraps these in the mux extension by
    construction (it runs *inside* an :class:`InstanceMux`), so each lie
    lands in exactly one instance's demuxed inbox.
    """
    return (
        (OM_VALUE, "forged"),
        (OM_VALUE, None),
        (OM_REPORT, (((0,), "lie"),)),
        (OM_REPORT, (((0, min(3, n - 1)), "z"), ((0, 2 % n), "zz"))),
        (OM_REPORT, "garbage"),
        ("unrelated", 7),
        b"raw-bytes",
    )


class AgreementKeyDistributionProtocol(Protocol):
    """One node's side of n concurrent OM instances, one per key.

    Instance ``i`` has node ``i`` as sender, broadcasting its own test
    predicate.  All instances run under one
    :class:`~repro.sim.multiplex.InstanceMux` on the ``"akd"`` channel,
    which this protocol drives directly: the mux publishes its outcomes
    and halts the node, and this protocol then folds the decisions into
    a directory.

    Output: ``outputs["directory"]`` — bindings for every node whose
    instance decided a predicate value; ``outputs["keypair"]``.
    """

    def __init__(
        self,
        n: int,
        t: int,
        scheme: str = DEFAULT_SCHEME,
    ) -> None:
        validate_fault_budget(t, n)
        if n <= 3 * t:
            raise ConfigurationError(
                f"agreement-based key distribution inherits the oral bound "
                f"n > 3t; got n={n}, t={t} — this is exactly the paper's "
                "'may not work because of too many faulty nodes'"
            )
        self._n = n
        self._t = t
        self._scheme_name = scheme
        self._keypair: KeyPair | None = None
        self._mux: InstanceMux | None = None

    def setup(self, ctx: NodeContext) -> None:
        """Generate the keypair; assemble and set up the per-instance OM
        protocols."""
        scheme = get_scheme(self._scheme_name)
        self._keypair = scheme.generate_keypair(ctx.rng)
        inner: dict[int, Protocol] = {
            instance: OralAgreementProtocol(
                self._n,
                self._t,
                value=self._keypair.predicate if instance == ctx.node else None,
                default=None,
                sender=instance,
            )
            for instance in range(self._n)
        }
        self._mux = InstanceMux(inner, channel=AKD_CHANNEL)
        self._mux.setup(ctx)

    def on_round(self, ctx: NodeContext, inbox: list) -> None:
        """Step the mux; once it halted the node, fold decisions into a
        directory."""
        self._mux.on_round(ctx, inbox)
        if not ctx.state.halted:
            return
        directory = KeyDirectory(owner=ctx.node)
        directory.accept(ctx.node, self._keypair.predicate)
        for instance, outcome in self._mux.outcomes.items():
            if isinstance(outcome.decision, TestPredicate):
                directory.accept(instance, outcome.decision)
        ctx.state.outputs["directory"] = directory
        ctx.state.outputs["keypair"] = self._keypair


@dataclass
class AgreementKeyDistributionResult:
    """Outputs of agreement-based key distribution.

    :ivar per_instance: run-level per-instance aggregates — every
        participating node's decision and the instance's summed
        messages, bytes and rounds
        (see :class:`repro.sim.multiplex.InstanceAggregate`).
    """

    run: RunResult
    directories: dict[NodeId, KeyDirectory]
    keypairs: dict[NodeId, KeyPair]
    per_instance: dict[int, InstanceAggregate] = field(default_factory=dict)

    @property
    def messages(self) -> int:
        """Envelopes across the whole run (all instances, all nodes)."""
        return self.run.metrics.messages_total

    @property
    def rounds(self) -> int:
        """Rounds used by the slowest instance."""
        return self.run.metrics.rounds_used


def _akd_behavior_builder(n: int):
    """Adversary-plane builder reinterpreting ``noise`` for the mux.

    AKD's noise adversary runs an :class:`InstanceMux` of
    :class:`RandomNoiseProtocol` instances on the AKD channel, so its
    lies land in per-instance inboxes and each instance's noise draws
    from that instance's namespaced rng stream.  Every other kind keeps
    the plane's default construction.
    """

    def build(node: NodeId, behavior: Behavior, inner, t: int):
        if behavior.kind != "noise":
            return None
        pool = akd_noise_pool(n)
        return InstanceMux(
            {
                instance: RandomNoiseProtocol(pool, halt_after=t + 1)
                for instance in range(n)
            },
            channel=AKD_CHANNEL,
        )

    return build


def run_agreement_key_distribution(
    n: int,
    t: int,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    adversary: "str | AdversarySpec | Mapping[NodeId, str | Behavior] | None" = None,
    delivery: "str | None" = None,
) -> AgreementKeyDistributionResult:
    """Distribute all n public keys via n concurrent OM(t) instances.

    :param adversary: the run's adversary, as anything
        :func:`repro.faults.make_adversary` accepts — a spec string
        (``"6=noise;2=silent"``), a ``{node: behaviour}`` mapping, or
        a ready :class:`~repro.faults.AdversarySpec` (arbitrary
        in-process protocols ride in its ``overrides``).  Any
        declarative plane behaviour works (``noise`` is rebuilt
        mux-aware, see :func:`_akd_behavior_builder`), the ``≤ t``
        corruption budget is enforced, and the spec's delivery power
        applies when ``delivery`` is unset.
    :param delivery: optional delivery model or spec for the run (see
        :func:`repro.sim.make_delivery`); default lock-step.
    :raises ConfigurationError: when ``n <= 3t`` — the feasibility boundary
        the paper contrasts local authentication against — or when the
        adversary names a node twice or exceeds the fault budget.
    """
    protocols: list[Protocol] = [
        AgreementKeyDistributionProtocol(n, t, scheme) for _ in range(n)
    ]
    spec = make_adversary(adversary, t=t)
    if spec is not None:
        protocols = spec.protocols_for(
            protocols, builder=_akd_behavior_builder(n)
        )
        if delivery is None:
            delivery = spec.delivery
    run = run_protocols(protocols, seed=seed, delivery=make_delivery(delivery))
    result = AgreementKeyDistributionResult(
        run=run,
        directories={},
        keypairs={},
        per_instance=collect_instances(run),
    )
    for state in run.states:
        if "directory" in state.outputs:
            result.directories[state.node] = state.outputs["directory"]
        if "keypair" in state.outputs:
            result.keypairs[state.node] = state.outputs["keypair"]
    return result


def agreement_keydist_envelopes(n: int, t: int) -> int:
    """Closed-form envelope count: n concurrent OM(t) instances.

    Delegates to :func:`repro.analysis.complexity.akd_envelopes`
    (``n · [(n-1) + t(n-1)²]``); benchmark E11 checks the measured
    aggregate against it and the per-instance counts against
    :func:`repro.analysis.complexity.om_envelopes`.
    """
    # Imported lazily: the analysis package's __init__ pulls the
    # experiment catalogue, which reaches back into repro.auth.
    from ..analysis.complexity import akd_envelopes

    return akd_envelopes(n, t)
