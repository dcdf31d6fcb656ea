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
serial execution would also multiply the round count by n.  Because the
instances are causally independent (instance ``i`` is one OM(t) run
about node ``i``'s key, on its own wire tags and its own rng streams),
any *subset* of them reproduces bit-for-bit in isolation, which is what
:func:`repro.harness.parallel.run_mux_shards` exploits to shard one
logical n-instance run across worker processes (the ``akd-shard``
workload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..agreement.oral import OM_REPORT, OM_VALUE, OralAgreementProtocol
from ..crypto import DEFAULT_SCHEME
from ..crypto.keys import KeyPair, TestPredicate, get_scheme
from ..errors import ConfigurationError
from ..faults.adversary import AdversarySpec, Behavior, make_adversary
from ..faults.behaviors import RandomNoiseProtocol, SilentProtocol
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
from ..sim.compose import PhaseHost
from ..types import NodeId, validate_fault_budget
from .directory import KeyDirectory

#: Wire-tag channel shared by all agreement-based key distribution muxes.
AKD_CHANNEL = "akd"

#: Behaviour kinds :func:`akd_byzantine_protocol` builds itself.
BYZANTINE_KINDS = ("silent", "noise")


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


def akd_byzantine_protocol(
    kind: str,
    n: int,
    t: int,
    instances: Sequence[int],
    engine: "str | None" = None,
) -> Protocol:
    """Build one Byzantine node behaviour from its picklable spec name.

    ``"silent"`` crashes before the run; ``"noise"`` runs an
    :class:`InstanceMux` of :class:`RandomNoiseProtocol` instances on the
    AKD channel, so its per-instance noise draws from the instance's
    namespaced rng stream — the property that keeps a sharded run
    bit-identical to the in-process run.

    :raises ConfigurationError: for unknown kind names.
    """
    if kind == "silent":
        return SilentProtocol()
    if kind == "noise":
        pool = akd_noise_pool(n)
        return InstanceMux(
            {
                instance: RandomNoiseProtocol(pool, halt_after=t + 1)
                for instance in instances
            },
            channel=AKD_CHANNEL,
            engine=engine,
        )
    raise ConfigurationError(
        f"unknown byzantine kind {kind!r}; expected one of {BYZANTINE_KINDS}"
    )


class AgreementKeyDistributionProtocol(Protocol):
    """One node's side of n concurrent OM instances, one per key.

    Instance ``i`` has node ``i`` as sender, broadcasting its own test
    predicate.  All instances run under one
    :class:`~repro.sim.multiplex.InstanceMux` on the ``"akd"`` channel,
    embedded through a :class:`~repro.sim.compose.PhaseHost` so this
    protocol can post-process the captured outcomes into a directory.

    :param instances: optional subset of instance ids to participate in
        (default: all n).  Subsets are how shard workers run their slice
        of one logical n-instance execution; the resulting directory then
        only binds the subset's keys (plus this node's own).

    Output: ``outputs["directory"]`` — bindings for every node whose
    instance decided a predicate value; ``outputs["keypair"]``.
    """

    def __init__(
        self,
        n: int,
        t: int,
        scheme: str = DEFAULT_SCHEME,
        instances: Sequence[int] | None = None,
        engine: "str | None" = None,
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
        self._engine = engine
        self._instance_ids = validate_akd_instances(n, instances)
        self._keypair: KeyPair | None = None
        self._mux: InstanceMux | None = None
        self._host: PhaseHost | None = None

    def setup(self, ctx: NodeContext) -> None:
        """Generate the keypair; assemble the per-instance OM protocols."""
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
            for instance in self._instance_ids
        }
        self._mux = InstanceMux(inner, channel=AKD_CHANNEL, engine=self._engine)
        self._host = PhaseHost(self._mux, offset=0)

    def on_round(self, ctx: NodeContext, inbox: list) -> None:
        """Step the mux; on completion, fold decisions into a directory."""
        self._host.step(ctx, inbox)
        if not self._host.outcome.halted:
            return
        directory = KeyDirectory(owner=ctx.node)
        directory.accept(ctx.node, self._keypair.predicate)
        for instance, outcome in self._mux.outcomes.items():
            if isinstance(outcome.decision, TestPredicate):
                directory.accept(instance, outcome.decision)
        ctx.state.outputs["directory"] = directory
        ctx.state.outputs["keypair"] = self._keypair
        # The engine the mux actually ran (it may have fallen back from
        # a columnar request) — surfaced per node so harness/bench
        # layers can print it instead of guessing from configuration.
        ctx.state.outputs["engine_used"] = self._mux.engine_used
        ctx.halt()


def validate_akd_instances(
    n: int, instances: Sequence[int] | None
) -> tuple[int, ...]:
    """Normalise an instance-subset spec: sorted, deduplicated, in range.

    :raises ConfigurationError: for out-of-range ids or an empty subset.
    """
    if instances is None:
        return tuple(range(n))
    ids = tuple(sorted(set(int(i) for i in instances)))
    if not ids:
        raise ConfigurationError("instance subset must not be empty")
    if ids[0] < 0 or ids[-1] >= n:
        raise ConfigurationError(
            f"instance ids must lie in [0, {n}); got {ids}"
        )
    return ids


@dataclass
class AgreementKeyDistributionResult:
    """Outputs of agreement-based key distribution.

    :ivar per_instance: run-level per-instance aggregates — every
        participating node's decision and the instance's merged metrics
        (see :class:`repro.sim.multiplex.InstanceAggregate`).  The same
        objects a sharded execution returns, enabling bit-for-bit
        equivalence checks.
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

    @property
    def engine_used(self) -> "str | None":
        """The mux engine the correct nodes actually ran, or ``None``.

        ``None`` only when no honest node finished (every node was an
        adversary that publishes no ``engine_used`` output).  All honest
        muxes of one run share a kernel, so the first published value is
        the run's.
        """
        for state in self.run.states:
            engine = state.outputs.get("engine_used")
            if engine is not None:
                return engine
        return None


def _akd_behavior_builder(
    n: int, instance_ids: Sequence[int], engine: "str | None" = None
):
    """Adversary-plane builder reinterpreting ``noise`` for the mux.

    AKD's noise adversary must live *inside* an :class:`InstanceMux` on
    the AKD channel so its lies land in per-instance inboxes and draw
    from per-instance rng streams (the sharding-equivalence property).
    Every other kind keeps the plane's default construction.
    """

    def build(node: NodeId, behavior: Behavior, inner, t: int):
        if behavior.kind == "noise":
            return akd_byzantine_protocol("noise", n, t, instance_ids, engine=engine)
        return None

    return build


def run_agreement_key_distribution(
    n: int,
    t: int,
    scheme: str = DEFAULT_SCHEME,
    seed: int | str = 0,
    adversary: "str | AdversarySpec | Mapping[NodeId, str | Behavior] | None" = None,
    instances: Sequence[int] | None = None,
    delivery: "str | None" = None,
    engine: "str | None" = None,
) -> AgreementKeyDistributionResult:
    """Distribute all n public keys via n concurrent OM(t) instances.

    :param adversary: the run's adversary, as anything
        :func:`repro.faults.make_adversary` accepts — a spec string
        (``"6=noise;2=silent"``, the picklable form shard workers
        rebuild in another process), a ``{node: behaviour}`` mapping, or
        a ready :class:`~repro.faults.AdversarySpec` (arbitrary
        in-process protocols ride in its ``overrides``).  Any
        declarative plane behaviour works (``noise`` is rebuilt
        mux-aware, see :func:`akd_byzantine_protocol`), the ``≤ t``
        corruption budget is enforced, and the spec's delivery power
        applies when ``delivery`` is unset.
    :param instances: optional instance subset (shard slice); the full
        run is the default.
    :param delivery: optional delivery model or spec for the run (see
        :func:`repro.sim.make_delivery`); default lock-step.
    :param engine: mux execution engine (``"columnar"`` / ``"object"``
        reference path; ``None`` = the process default, see
        :func:`repro.sim.default_mux_engine`) — an execution-strategy
        knob with bit-for-bit identical observables, threaded to every
        mux of the run (honest nodes and noise adversaries alike).  The
        result's ``engine_used`` reports what actually ran.
    :raises ConfigurationError: when ``n <= 3t`` — the feasibility boundary
        the paper contrasts local authentication against — or when the
        adversary names a node twice or exceeds the fault budget.
    """
    instance_ids = validate_akd_instances(n, instances)
    protocols: list[Protocol] = [
        AgreementKeyDistributionProtocol(
            n, t, scheme, instances=instance_ids, engine=engine
        )
        for _ in range(n)
    ]
    spec = make_adversary(adversary, t=t)
    if spec is not None:
        protocols = spec.protocols_for(
            protocols, builder=_akd_behavior_builder(n, instance_ids, engine=engine)
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
