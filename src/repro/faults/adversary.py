"""The adversary plane: one declarative object naming a run's adversary.

An :class:`AdversarySpec` is the one vocabulary for "node 3 is faulty":
every protocol-run entry point — the scenario runners, amortized
sessions, the attack catalogue, agreement-based key distribution —
takes it as ``adversary=`` and has no other corruption knob (only the
key-distribution phase's ``kd_adversaries``, a different run, stays
outside the plane).  One object names:

* **who is corrupt** — ``corrupt`` pairs each node id with a
  :class:`Behavior` (or its spec string): ``silent``, ``crash@r`` /
  ``crash@r-s`` (crash-recovery), ``noise``, ``rush``, ``drop@p``,
  ``tamper@p``, ``ack-lie``, ``equivocate``, ``scripted`` — built from
  the generic wrappers of :mod:`repro.faults.behaviors` (the grammar
  is the :data:`BEHAVIOR_GRAMMAR` parse table);
* **adaptive corruption** — ``strategy`` names a registered
  :data:`AdaptiveStrategy` (spec item ``adaptive:NAME``) that observes
  the run online and commits corruptions lazily, budget-checked at
  commitment time by the :class:`AdaptiveCoordinator` that
  :meth:`AdversarySpec.protocols_for` installs;
* **custom corruption** — ``overrides`` pairs node ids with ready
  :class:`~repro.sim.node.Protocol` instances, the escape hatch for
  behaviours that need key material (the attack scenarios hand the
  runners a deferred ``(keypairs, directories) -> AdversarySpec``
  factory that fills them in once authentication has run);
* **which delivery power the run grants** — ``delivery`` carries a
  :func:`repro.sim.make_delivery` spec string, so one object names the
  whole adversary: corruptions *and* scheduling/network power;
* **the budget** — construction enforces the paper's ``≤ t`` corruption
  bound: a spec naming more corrupt nodes than its ``t`` does not
  construct (:class:`~repro.errors.ConfigurationError`), which is what
  keeps every layered entry point honest about its claimed resilience.

A spec built purely from declarative behaviours is picklable (primitive
fields only), so it travels through workload parameters and the sweep
executors; ``overrides`` carrying closures make it in-process-only, and
a pooled :func:`repro.harness.parallel.sweep_parallel` raises the
pickling error for it instead of running.

Determinism: the ``drop@p`` / ``tamper@p`` behaviours decide per message
by hashing ``(node, round, recipient)`` — a pure function of the
message's coordinates, so runs reproduce bit-for-bit and the behaviours
pickle as plain data (no closures, no rng state).

``make_adversary`` mirrors :func:`repro.sim.make_delivery`: spec strings
are ``;``-separated ``node=behavior`` items plus an optional
``delivery=SPEC`` item, e.g. ``"3=silent;5=crash@2;delivery=loss:0.2"``
(``;`` because delivery specs themselves contain ``,`` and ``:``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigurationError
from ..sim.node import NodeContext, Protocol
from ..types import NodeId, Round
from .behaviors import (
    AckLieProtocol,
    CrashProtocol,
    EquivocatingProtocol,
    RandomNoiseProtocol,
    RushMirrorProtocol,
    ScriptedProtocol,
    SilentProtocol,
    TamperingProtocol,
)

def _parse_plain(head: str):
    """Grammar entry for parameterless behaviours."""

    def parse(arg: str, spec: str) -> "Behavior":
        if arg:
            raise ConfigurationError(
                f"behaviour {head!r} takes no argument, got {spec!r}"
            )
        return Behavior(head)

    return parse


def _parse_crash(arg: str, spec: str) -> "Behavior":
    crash_at, dash, recover = arg.partition("-")
    try:
        return Behavior(
            "crash",
            at=int(crash_at),
            recover=int(recover) if dash else None,
        )
    except ValueError:
        raise ConfigurationError(
            f"crash behaviour must look like 'crash@2' or 'crash@2-5', "
            f"got {spec!r}"
        ) from None


def _parse_prob(head: str):
    """Grammar entry for the per-message probability behaviours."""

    def parse(arg: str, spec: str) -> "Behavior":
        try:
            return Behavior(head, prob=float(arg))
        except ValueError:
            raise ConfigurationError(
                f"{head} behaviour must look like '{head}@0.3', got {spec!r}"
            ) from None

    return parse


def _parse_from_tick(head: str):
    """Grammar entry for behaviours with an optional from-tick."""

    def parse(arg: str, spec: str) -> "Behavior":
        try:
            return Behavior(head, at=int(arg) if arg else None)
        except ValueError:
            raise ConfigurationError(
                f"{head} behaviour must look like '{head}' or '{head}@3', "
                f"got {spec!r}"
            ) from None

    return parse


#: The behaviour-spec parse table: head -> (example form, parser).
#: Single source of truth for what the grammar accepts — the CLI help,
#: the parse-error message and :data:`PARSEABLE_KINDS` all derive from
#: it, so adding a behaviour here is the *whole* registration.
BEHAVIOR_GRAMMAR: dict[str, tuple[str, Callable[[str, str], "Behavior"]]] = {
    "silent": ("silent", _parse_plain("silent")),
    "crash": ("crash@R[-S]", _parse_crash),
    "noise": ("noise", _parse_plain("noise")),
    "rush": ("rush", _parse_plain("rush")),
    "drop": ("drop@P", _parse_prob("drop")),
    "tamper": ("tamper@P", _parse_prob("tamper")),
    "ack-lie": ("ack-lie[@T]", _parse_from_tick("ack-lie")),
    "equivocate": ("equivocate[@T]", _parse_from_tick("equivocate")),
}

#: The kinds expressible as spec strings, derived from the parse table.
PARSEABLE_KINDS = tuple(BEHAVIOR_GRAMMAR)

#: All declarative behaviour kinds a :class:`Behavior` can carry —
#: ``scripted`` carries payload data and is construction-only.
BEHAVIOR_KINDS = PARSEABLE_KINDS + ("scripted",)


def behavior_grammar_help() -> str:
    """The grammar's example forms, comma-joined — the one string every
    user-facing enumeration of behaviours (CLI help, parse errors)
    renders, so it can never drift from the table."""
    return ", ".join(example for example, _ in BEHAVIOR_GRAMMAR.values())


#: Payload pool the generic ``noise`` behaviour draws from: wire-encodable
#: garbage of the families every protocol must shrug off.
NOISE_POOL = (
    ("adversary-noise", 0),
    ("adversary-noise", "garbage"),
    ("unrelated", 7),
    b"raw-bytes",
)

#: Tag of payloads the ``tamper@p`` behaviour substitutes.
TAMPERED = "tampered"


def _hash_unit(node: NodeId, round_: Round, recipient: NodeId) -> float:
    """A uniform draw in [0, 1) from the message's coordinates.

    Pure and stateless: the same ``(node, round, recipient)`` always
    yields the same value, which is what makes the probabilistic
    behaviours deterministic per run *and* picklable as plain data.
    """
    digest = hashlib.sha256(
        f"adversary/{node}/{round_}/{recipient}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


@dataclass(frozen=True)
class _CoordinateFilter:
    """Base for the hash-driven per-message behaviours (picklable)."""

    prob: float
    node: NodeId


class DropSends(_CoordinateFilter):
    """``should_send`` predicate: drop each message with probability
    ``prob`` (decided by :func:`_hash_unit`, so deterministic)."""

    def __call__(self, round_: Round, to: NodeId, payload: Any) -> bool:
        return _hash_unit(self.node, round_, to) >= self.prob


class TamperPayloads(_CoordinateFilter):
    """Payload transform: replace each message, with probability
    ``prob``, by a recognisably-garbled wire value."""

    def __call__(self, round_: Round, to: NodeId, payload: Any) -> Any:
        if _hash_unit(self.node, round_, to) < self.prob:
            return (TAMPERED, int(self.node), int(round_))
        return payload


@dataclass(frozen=True)
class Behavior:
    """One corrupt node's declarative behaviour.

    Plain picklable data; :func:`build_behavior` turns it into a
    :class:`~repro.sim.node.Protocol` once the honest inner protocol and
    the network shape are known.

    :ivar kind: one of :data:`BEHAVIOR_KINDS`.
    :ivar at: crash tick (``crash``), or the first tick the lie applies
        (``ack-lie`` / ``equivocate``; ``None`` = from the start).
    :ivar recover: crash-recovery tick, or ``None`` for fail-stop
        (``crash`` only).
    :ivar prob: per-message probability (``drop`` / ``tamper`` only).
    :ivar script: ``(round, recipient, payload)`` triples (``scripted``
        only; payloads must be wire values for the spec to stay
        picklable).
    """

    kind: str
    at: Round | None = None
    recover: Round | None = None
    prob: float | None = None
    script: tuple[tuple[Round, NodeId, Any], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ConfigurationError(
                f"unknown behaviour kind {self.kind!r}; "
                f"available: {', '.join(BEHAVIOR_KINDS)}"
            )
        if self.kind == "crash":
            if self.at is None or self.at < 0:
                raise ConfigurationError(
                    f"crash behaviour needs a round, e.g. 'crash@2'; got {self!r}"
                )
            if self.recover is not None and self.recover <= self.at:
                raise ConfigurationError(
                    f"crash recovery must come after the crash, got {self.spec()!r}"
                )
        if self.kind in ("drop", "tamper") and not (
            self.prob is not None and 0.0 < self.prob <= 1.0
        ):
            raise ConfigurationError(
                f"{self.kind} behaviour needs a probability in (0, 1], "
                f"e.g. '{self.kind}@0.3'; got {self!r}"
            )
        if self.kind == "scripted" and not self.script:
            raise ConfigurationError(
                "scripted behaviour needs a non-empty script of "
                "(round, recipient, payload) triples"
            )
        if self.kind in ("ack-lie", "equivocate") and (
            self.at is not None and self.at < 0
        ):
            raise ConfigurationError(
                f"{self.kind} from-tick must be >= 0, got {self.at}"
            )

    def spec(self) -> str:
        """The behaviour as its spec string (inverse of
        :func:`parse_behavior`, modulo the string-less ``scripted``)."""
        if self.kind == "crash":
            base = f"crash@{self.at}"
            return f"{base}-{self.recover}" if self.recover is not None else base
        if self.kind in ("drop", "tamper"):
            return f"{self.kind}@{self.prob:g}"
        if self.kind in ("ack-lie", "equivocate") and self.at is not None:
            return f"{self.kind}@{self.at}"
        return self.kind


def parse_behavior(spec: "str | Behavior") -> Behavior:
    """Parse one behaviour spec string (a :class:`Behavior` passes
    through unchanged).

    * ``silent`` / ``noise`` / ``rush`` — parameterless;
    * ``crash@R`` — fail-stop at tick R; ``crash@R-S`` — recover at S;
    * ``drop@P`` / ``tamper@P`` — per-message probability P;
    * ``ack-lie`` / ``equivocate`` — loss- and partition-exploiting
      lies, optionally ``@T`` for the first tick they apply.

    The accepted forms are exactly the rows of
    :data:`BEHAVIOR_GRAMMAR`; this function is a table lookup.

    :raises ConfigurationError: for unknown or malformed specs — the
        error enumerates the grammar.
    """
    if isinstance(spec, Behavior):
        return spec
    head, _, arg = spec.partition("@")
    grammar = BEHAVIOR_GRAMMAR.get(head)
    if grammar is None:
        raise ConfigurationError(
            f"unknown behaviour {spec!r}; "
            f"available: {behavior_grammar_help()} "
            "(scripted behaviours carry payload data and are construction-only: "
            "Behavior('scripted', script=...))"
        )
    return grammar[1](arg, spec)


def build_behavior(
    behavior: Behavior, node: NodeId, inner: Protocol, t: int
) -> Protocol:
    """Realise one declarative behaviour as a node protocol.

    :param inner: the honest protocol the node would have run — wrapped
        (crash/drop/tamper) or discarded (silent/noise/rush/scripted)
        depending on the kind.
    :param t: the run's fault budget (bounds the self-halting behaviours
        at ``t + 2``, past every honest protocol's deadline).
    """
    if behavior.kind == "silent":
        return SilentProtocol()
    if behavior.kind == "crash":
        return CrashProtocol(inner, behavior.at, recover_round=behavior.recover)
    if behavior.kind == "noise":
        return RandomNoiseProtocol(NOISE_POOL, halt_after=t + 2)
    if behavior.kind == "rush":
        return RushMirrorProtocol(halt_after=t + 2)
    if behavior.kind == "drop":
        return TamperingProtocol(
            inner, should_send=DropSends(behavior.prob, node)
        )
    if behavior.kind == "tamper":
        return TamperingProtocol(
            inner, transform=TamperPayloads(behavior.prob, node)
        )
    if behavior.kind == "ack-lie":
        return AckLieProtocol(inner, from_tick=behavior.at or 0)
    if behavior.kind == "equivocate":
        return EquivocatingProtocol(inner, from_tick=behavior.at or 0)
    script: dict[Round, list[tuple[NodeId, Any]]] = {}
    for round_, recipient, payload in behavior.script:
        script.setdefault(round_, []).append((recipient, payload))
    return ScriptedProtocol(script)


#: Optional per-context builder: ``(node, behavior, inner, t) -> Protocol
#: | None`` — ``None`` defers to :func:`build_behavior`.  How layers with
#: richer corruption (the AKD mux noise) reinterpret a kind without
#: forking the spec format.
BehaviorBuilder = Callable[[NodeId, Behavior, Protocol, int], "Protocol | None"]


@dataclass(frozen=True)
class AdversaryObservation:
    """What an adaptive strategy sees of the run, one snapshot per tick.

    A pure value: every field derives from the master seed and the
    events observed so far, so a strategy keyed on it is itself a pure
    function — which is what keeps adaptive runs bit-for-bit
    reproducible and plane-vs-manual property tests meaningful.

    :ivar tick: the kernel tick about to execute (no node has acted in
        it yet when the snapshot is taken).
    :ivar n: network size.
    :ivar t: the spec's fault budget.
    :ivar seed: the run's master seed.
    :ivar activity: per-node ``(messages sent, drops charged)`` counts
        over all earlier ticks (:meth:`repro.sim.Metrics.activity_snapshot`).
    :ivar faulty: nodes already corrupt — statically named by the spec
        or committed by this strategy in an earlier tick.
    :ivar budget_remaining: corruptions the strategy may still commit.
    """

    tick: Round
    n: int
    t: int
    seed: int | str
    activity: tuple[tuple[int, int], ...]
    faulty: tuple[NodeId, ...]
    budget_remaining: int


#: An adaptive strategy: observation -> corruptions to commit *now*
#: (``(node, behaviour-spec)`` pairs), or ``None`` / ``()`` for "not
#: yet".  Must be pure — no state, no randomness beyond the seed already
#: inside the observation.
AdaptiveStrategy = Callable[
    [AdversaryObservation], "Sequence[tuple[NodeId, str | Behavior]] | None"
]

#: Registered adaptive strategies, by ``adaptive:NAME`` spec name.
ADAPTIVE_STRATEGIES: dict[str, AdaptiveStrategy] = {}


def register_adaptive_strategy(name: str):
    """Register an :data:`AdaptiveStrategy` under ``adaptive:{name}``."""

    def decorate(strategy: AdaptiveStrategy) -> AdaptiveStrategy:
        if name in ADAPTIVE_STRATEGIES:
            raise ConfigurationError(
                f"adaptive strategy {name!r} registered twice"
            )
        ADAPTIVE_STRATEGIES[name] = strategy
        return strategy

    return decorate


class AdaptiveCoordinator:
    """Runs one adaptive strategy against a live run.

    Installed by :meth:`AdversarySpec.protocols_for`: every
    honest node's protocol is wrapped in an :class:`AdaptiveCorruptible`
    that reports to this coordinator.  Once per tick — driven by the
    first wrapper the kernel activates, i.e. *before any node acts in
    that tick* — the coordinator snapshots the run and asks the strategy
    whether to commit corruptions.  The ≤ t budget is enforced at
    commitment time: static corruptions plus commitments may never
    exceed the spec's ``t``.

    :ivar committed: node -> behaviour, every corruption committed so
        far (in commitment order).
    """

    def __init__(self, spec: "AdversarySpec") -> None:
        strategy = ADAPTIVE_STRATEGIES.get(spec.strategy or "")
        if strategy is None:
            raise ConfigurationError(
                f"unknown adaptive strategy {spec.strategy!r}; "
                f"available: {', '.join(sorted(ADAPTIVE_STRATEGIES))}"
            )
        self._spec = spec
        self._strategy = strategy
        self._static_faulty = spec.faulty
        self.committed: dict[NodeId, Behavior] = {}
        self._last_tick: Round = -1

    @property
    def budget_remaining(self) -> int:
        """Corruptions the strategy may still commit within ``t``."""
        return self._spec.t - len(self._static_faulty) - len(self.committed)

    def observe(self, ctx: NodeContext) -> None:
        """Advance the strategy to ``ctx``'s tick (idempotent per tick)."""
        tick = ctx.round
        if tick <= self._last_tick:
            return
        self._last_tick = tick
        observation = AdversaryObservation(
            tick=tick,
            n=ctx.n,
            t=self._spec.t,
            seed=ctx.seed,
            activity=ctx.metrics.activity_snapshot(ctx.n),
            faulty=tuple(sorted(self._static_faulty | set(self.committed))),
            budget_remaining=self.budget_remaining,
        )
        for node, behavior in self._strategy(observation) or ():
            self.commit(node, behavior)

    def commit(self, node: NodeId, behavior: "str | Behavior") -> None:
        """Corrupt ``node`` from the current tick on.

        :raises ConfigurationError: if the node is already corrupt or
            the commitment would exceed the budget — the adaptive
            power's ``≤ t`` bound is enforced *here*, at commitment
            time, not at spec construction.
        """
        node = int(node)
        if node in self._static_faulty or node in self.committed:
            raise ConfigurationError(
                f"adaptive strategy {self._spec.strategy!r} committed node "
                f"{node} twice"
            )
        if self.budget_remaining <= 0:
            raise ConfigurationError(
                f"adaptive strategy {self._spec.strategy!r} exceeded the "
                f"fault budget t={self._spec.t}: static corruptions "
                f"{sorted(self._static_faulty)} + committed "
                f"{sorted(self.committed)} leave no budget for node {node}"
            )
        self.committed[node] = parse_behavior(behavior)


class AdaptiveCorruptible(Protocol):
    """Wrapper giving the adaptive adversary a hook on one honest node.

    Delegates to the honest inner protocol verbatim — same sends, same
    decisions, zero own traffic — until the coordinator commits a
    corruption for this node; from that tick on the committed behaviour
    (realised once via :func:`build_behavior`, inner already set up — no
    second ``setup``) runs instead.  An uncommitted wrapper is therefore
    observationally identical to the bare inner protocol, which is what
    the plane-vs-manual property tests pin bit-for-bit.
    """

    def __init__(
        self,
        inner: Protocol,
        node: NodeId,
        coordinator: AdaptiveCoordinator,
        t: int,
    ) -> None:
        self.inner = inner
        self.node = node
        self._coordinator = coordinator
        self._t = t
        self._active: Protocol | None = None

    def setup(self, ctx: NodeContext) -> None:
        self.inner.setup(ctx)

    def _resolve(self, ctx: NodeContext) -> Protocol:
        self._coordinator.observe(ctx)
        if self._active is None:
            behavior = self._coordinator.committed.get(self.node)
            if behavior is not None:
                self._active = build_behavior(
                    behavior, self.node, self.inner, self._t
                )
        return self._active if self._active is not None else self.inner

    def on_round(self, ctx: NodeContext, inbox: list) -> None:
        self._resolve(ctx).on_round(ctx, inbox)

    def on_activate(self, ctx: NodeContext, inbox: list) -> None:
        self._resolve(ctx).on_activate(ctx, inbox)


def committed_corruptions(protocols: Sequence[Protocol]) -> dict[NodeId, Behavior]:
    """The corruptions a run's adaptive strategy committed, node ->
    behaviour in commitment order (empty without a strategy).

    Read off the protocols because every :class:`AdaptiveCorruptible`
    of one run shares one coordinator, and a snapshot keeps that
    sharing, so a resumed kernel's protocols answer too.
    """
    for protocol in protocols:
        if isinstance(protocol, AdaptiveCorruptible):
            return dict(protocol._coordinator.committed)
    return {}


@register_adaptive_strategy("silence-muffled")
def _silence_muffled(obs: AdversaryObservation):
    """Corrupt the node whose silence maximises FD confusion.

    Waits two ticks of evidence, then silences the non-sender node the
    network has already muffled hardest (most drops charged to it; ties
    to the lowest id) — the node whose disappearance is hardest for a
    timeout FD to tell apart from ordinary loss.
    """
    if obs.tick < 2 or obs.budget_remaining <= 0 or obs.faulty:
        return None
    candidates = [
        (drops, -node)
        for node, (_, drops) in enumerate(obs.activity)
        if node != 0
    ]
    if not candidates:
        return None
    drops, neg_node = max(candidates)
    return ((-neg_node, "silent"),)


@register_adaptive_strategy("gag-sender")
def _gag_sender(obs: AdversaryObservation):
    """Corrupt the designated sender with ack-lies once the run is warm.

    From tick 1 the sender keeps heartbeating but stops emitting value
    payloads — the adversary that makes a static-horizon FD wait its
    whole deadline before (correctly) crying foul.
    """
    if obs.tick < 1 or obs.budget_remaining <= 0 or 0 in obs.faulty:
        return None
    return ((0, "ack-lie"),)


@dataclass(frozen=True)
class AdversarySpec:
    """Everything one run's adversary is allowed to do, as one object.

    :ivar corrupt: ``(node, behaviour)`` pairs — behaviours may be spec
        strings (normalised to :class:`Behavior` at construction).
    :ivar t: the fault budget the spec claims; construction fails if the
        corrupt set exceeds it.
    :ivar delivery: optional delivery-power spec string (see
        :func:`repro.sim.make_delivery`) granted to the run.
    :ivar overrides: ``(node, Protocol)`` pairs installing custom
        behaviours directly — counted against the same budget; may make
        the spec unpicklable (in-process use only).
    :ivar strategy: optional *adaptive* power — the name of a registered
        :data:`AdaptiveStrategy` that observes the run online and
        commits further corruptions lazily (spec form
        ``adaptive:NAME``).  Static corruptions plus online commitments
        share the one ``t`` budget; the online half is enforced at
        commitment time by the :class:`AdaptiveCoordinator`.

    Construction normalises and validates: behaviours parse, node ids
    are distinct across ``corrupt`` and ``overrides``, the strategy (if
    named) is registered, and the static corruption stays within ``t``.
    """

    corrupt: tuple[tuple[NodeId, Behavior], ...] = ()
    t: int = 0
    delivery: str | None = None
    overrides: tuple[tuple[NodeId, Protocol], ...] = ()
    strategy: str | None = None

    def __post_init__(self) -> None:
        corrupt = tuple(
            (int(node), parse_behavior(behavior))
            for node, behavior in (
                self.corrupt.items()
                if isinstance(self.corrupt, Mapping)
                else self.corrupt
            )
        )
        object.__setattr__(
            self, "corrupt", tuple(sorted(corrupt, key=lambda pair: pair[0]))
        )
        overrides = tuple(
            (int(node), protocol)
            for node, protocol in (
                self.overrides.items()
                if isinstance(self.overrides, Mapping)
                else self.overrides
            )
        )
        object.__setattr__(
            self, "overrides", tuple(sorted(overrides, key=lambda pair: pair[0]))
        )
        if self.t < 0:
            raise ConfigurationError(f"fault budget must be >= 0, got {self.t}")
        nodes = [node for node, _ in self.corrupt] + [
            node for node, _ in self.overrides
        ]
        if len(set(nodes)) != len(nodes):
            duplicates = sorted({n for n in nodes if nodes.count(n) > 1})
            raise ConfigurationError(
                f"nodes {duplicates} corrupted more than once in one adversary spec"
            )
        if any(node < 0 for node in nodes):
            raise ConfigurationError(f"corrupt node ids must be >= 0, got {nodes}")
        if len(nodes) > self.t:
            raise ConfigurationError(
                f"adversary corrupts {len(nodes)} nodes "
                f"({sorted(nodes)}) but the fault budget is t={self.t} — "
                "the paper's guarantees are only claimed within the budget"
            )
        if self.strategy is not None and self.strategy not in ADAPTIVE_STRATEGIES:
            raise ConfigurationError(
                f"unknown adaptive strategy {self.strategy!r}; "
                f"available: {', '.join(sorted(ADAPTIVE_STRATEGIES))}"
            )

    @property
    def faulty(self) -> frozenset[NodeId]:
        """All corrupted node ids (declarative and override alike)."""
        return frozenset(node for node, _ in self.corrupt) | frozenset(
            node for node, _ in self.overrides
        )

    @property
    def rushing(self) -> frozenset[NodeId]:
        """Nodes running the ``rush`` behaviour — the conventional
        rushing set for a ``rush`` delivery model."""
        return frozenset(
            node for node, behavior in self.corrupt if behavior.kind == "rush"
        )

    def spec(self) -> str:
        """The spec as a (mostly) round-trippable string, for messages."""
        items = [f"{node}={behavior.spec()}" for node, behavior in self.corrupt]
        items += [f"{node}=<custom>" for node, _ in self.overrides]
        if self.strategy:
            items.append(f"adaptive:{self.strategy}")
        if self.delivery:
            items.append(f"delivery={self.delivery}")
        return ";".join(items)

    def protocols_for(
        self,
        protocols: Sequence[Protocol],
        builder: BehaviorBuilder | None = None,
    ) -> list[Protocol]:
        """The run's protocol list with every corruption installed.

        Declarative behaviours wrap their node's protocol, overrides
        replace it, and when the spec names a ``strategy`` every other
        node's protocol is wrapped in an :class:`AdaptiveCorruptible`
        reporting to one fresh :class:`AdaptiveCoordinator` (read its
        commitments after the run with :func:`committed_corruptions`).

        :param protocols: the honest per-node protocols (index = node
            id); corrupt nodes' entries become the ``inner`` of wrapping
            behaviours.
        :param builder: optional context-specific reinterpretation of
            declarative kinds (see :data:`BehaviorBuilder`).
        :raises ConfigurationError: if a corrupt node id lies outside
            the network.
        """
        n, faulty = len(protocols), self.faulty
        outside = sorted(node for node in faulty if node >= n)
        if outside:
            raise ConfigurationError(
                f"adversary corrupts nodes {outside} but the network has "
                f"only {n} nodes"
            )
        out = list(protocols)
        for node, behavior in self.corrupt:
            built = builder(node, behavior, out[node], self.t) if builder else None
            if built is None:
                built = build_behavior(behavior, node, out[node], self.t)
            out[node] = built
        for node, protocol in self.overrides:
            out[node] = protocol
        if self.strategy is not None:
            coordinator = AdaptiveCoordinator(self)
            out = [
                protocol
                if node in faulty
                else AdaptiveCorruptible(protocol, node, coordinator, self.t)
                for node, protocol in enumerate(out)
            ]
        return out


def make_adversary(
    spec: "str | AdversarySpec | Mapping[NodeId, str | Behavior] | None",
    t: int,
    delivery: str | None = None,
) -> AdversarySpec | None:
    """Build an :class:`AdversarySpec` from a primitive spec string.

    The mirror of :func:`repro.sim.make_delivery` for the corruption
    half.  Spec strings are ``;``-separated items (``;`` because
    delivery specs contain ``,`` and ``:``):

    * ``NODE=BEHAVIOR`` — e.g. ``"3=silent"``, ``"5=crash@2-6"``,
      ``"6=drop@0.3"`` (see :func:`parse_behavior` for behaviours);
    * ``delivery=SPEC`` — the delivery power, e.g.
      ``delivery=loss:0.2`` (at most once);
    * ``adaptive:STRATEGY`` — the adaptive power, e.g.
      ``adaptive:silence-muffled`` (at most once; see
      :data:`ADAPTIVE_STRATEGIES`).

    A ready :class:`AdversarySpec` passes through unchanged; a mapping
    ``{node: behaviour}`` is wrapped; ``None`` stays ``None`` (no
    adversary).  The budget ``t`` is enforced at construction either
    way.

    :param delivery: default delivery power when the spec string names
        none.
    :raises ConfigurationError: for malformed items, unknown behaviours,
        duplicate nodes, or a corrupt set exceeding ``t``.
    """
    if spec is None:
        return None
    if isinstance(spec, AdversarySpec):
        return spec
    if isinstance(spec, Mapping):
        return AdversarySpec(corrupt=tuple(spec.items()), t=t, delivery=delivery)
    corrupt: list[tuple[NodeId, str]] = []
    strategy: str | None = None
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            head, colon, name = item.partition(":")
            if head == "adaptive" and colon and name:
                strategy = name
                continue
            raise ConfigurationError(
                f"adversary items must look like 'NODE=BEHAVIOR', "
                f"'delivery=SPEC' or 'adaptive:STRATEGY', got {item!r} "
                f"in {spec!r}"
            )
        if key == "delivery":
            delivery = value
            continue
        try:
            node = int(key)
        except ValueError:
            raise ConfigurationError(
                f"adversary node id must be an integer, got {item!r} in {spec!r}"
            ) from None
        corrupt.append((node, value))
    return AdversarySpec(
        corrupt=tuple(corrupt), t=t, delivery=delivery, strategy=strategy
    )
