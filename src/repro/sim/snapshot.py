"""Deterministic kernel checkpoint/resume.

The kernel's determinism contract (run state is a pure function of the
master seed plus the emission sequence — :mod:`repro.sim.kernel`) makes
run state *snapshot-able*: everything the next tick depends on lives in
one object graph rooted at the :class:`~repro.sim.kernel.EventKernel` —

* the calendar queue and lock-step pending list (in-flight envelopes and
  batch records, in emission order),
* the tick counter and per-node ``_acted_at`` causality marks,
* every node's protocol object and :class:`~repro.sim.node.NodeState`,
* every rng stream position: node streams (``NodeContext.rng``),
  instance streams (inside mux-owned contexts), and the jittered / lossy
  delivery models' per-link draw-ahead outcome lists with their drawn
  counts — a link's position without its 2.5 KiB ``random.Random``
  (see the audit note in :mod:`repro.sim.rng`),
* delivery-model state (partition epoch schedule position, parked
  defer-mode records — which simply sit in the calendar),
* metrics (plain counters: bytes are charged at send, so no payload
  reference inflates the snapshot), the trace so far, recorded views,
  and the batch plane's consumer registry (its per-tick arrays are dead
  at tick boundaries).

A :class:`KernelSnapshot` is therefore one :func:`pickle.dumps` of the
kernel taken at a tick boundary.  The single-pickle design is
deliberate: shared references survive — the fan-out cache aliases the
per-link outcome lists, every ``AdaptiveCorruptible`` wrapper shares one
``AdaptiveCoordinator``, contexts point back at the kernel — so the
restored graph has exactly the original's aliasing structure, which is
what makes resume-equals-straight-run hold *bit-for-bit*
(``tests/sim/test_snapshot.py`` property-tests it across all four
delivery families, random Byzantine and adaptive adversaries, and mux
runs beside the per-envelope reference mux).

Protocols travel inside that one pickle like everything else.  A
protocol holding state that must not travel (an unpicklable cache, a
handle) says so the way any Python object does — the pickle pair
``__getstate__`` / ``__setstate__`` (see
:class:`repro.sim.node.Protocol`); unpicklable run state without it
fails the capture fast, with a message naming the pair.

A snapshot never leaves the process tree that made it (warm forks, pool
workers).  Checkpoint *files* are replay recipes that :mod:`repro.cli`
writes and checks through two hooks here: :func:`set_checkpoint_policy`
(call ``action(label, kernel)`` every N ticks of any run) and
:func:`observed_state` (a kernel's visible progress as JSON values).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ConfigurationError
from ..types import Round

if TYPE_CHECKING:
    from .kernel import EventKernel

#: Snapshot format version.  Bumped whenever the kernel's pickled shape
#: changes incompatibly; :func:`restore_kernel` refuses other versions.
#: History: 2 — ``SuccinctEigStore`` gained its per-relayer run columns
#: (a version-1 store would resume and then fail at its first resolve);
#: 3 — jittered / lossy links hold draw-ahead outcome lists (a version-2
#: file holds live ``random.Random`` link streams); 4 — every kernel owns
#: a batch plane (a version-3 recording run holds none and would crash at
#: its first drain).
SNAPSHOT_VERSION = 4


@dataclass(frozen=True)
class KernelSnapshot:
    """One run's full state at a tick boundary, as a picklable value.

    :ivar version: format version (see :data:`SNAPSHOT_VERSION`).
    :ivar tick: the tick the snapshot was taken at — the resumed kernel
        continues by *processing* this tick.
    :ivar payload: the pickled kernel graph.
    :ivar extras: caller-attached context (picklable) that must travel
        with the snapshot — e.g. the scenario fingerprint and evaluation
        inputs :func:`repro.harness.runner.run_fd_scenario` stores so a
        forked suffix can finish and evaluate without re-deriving them.
    """

    version: int
    tick: Round
    payload: bytes
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        """Size of the pickled kernel graph (the bench column that keeps
        snapshot bloat visible per PR)."""
        return len(self.payload)


def capture_kernel(kernel: "EventKernel", extras: dict[str, Any] | None = None) -> KernelSnapshot:
    """Snapshot a kernel at its current tick boundary.

    Pickles the whole graph in one call.  The metrics are plain counters
    (bytes are charged at send), so they carry no payload into the
    pickle.
    """
    try:
        payload = pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ConfigurationError(
            f"run state is not snapshot-able: {exc} — protocols holding "
            "unpicklable state must implement the __getstate__/"
            "__setstate__ pickle pair (see repro.sim.node.Protocol)"
        ) from exc
    return KernelSnapshot(
        version=SNAPSHOT_VERSION,
        tick=kernel.tick,
        payload=payload,
        extras=dict(extras) if extras else {},
    )


def restore_kernel(snapshot: KernelSnapshot) -> "EventKernel":
    """Rebuild a runnable kernel from a snapshot.

    The restored kernel is a fresh object graph (resuming twice from one
    snapshot yields two independent runs — the property warm-started
    sweep forks rely on); calling ``run()`` on it continues the run
    bit-for-bit where the snapshot was taken.
    """
    if not isinstance(snapshot, KernelSnapshot):
        raise ConfigurationError(
            f"expected a KernelSnapshot, got {type(snapshot).__name__} — "
            "snapshots come from capture_kernel()"
        )
    if snapshot.version != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"snapshot version {snapshot.version} does not match this "
            f"build's snapshot format (version {SNAPSHOT_VERSION}); "
            "re-create the checkpoint with the current code"
        )
    try:
        return pickle.loads(snapshot.payload)
    except Exception as exc:
        raise ConfigurationError(
            f"snapshot payload is corrupt or from an incompatible build: {exc}"
        ) from exc


def retune_protocols(protocols: list, **params: Any) -> dict[str, int]:
    """Apply warm-fork parameter retunes across a resumed run's protocols.

    For each ``name=value``, every protocol exposing ``name`` in its
    ``tunable`` set (searched outermost-first through ``.inner`` wrapper
    chains — crash/tamper behaviours, ``AdaptiveCorruptible``) is
    retuned.  Returns ``{name: protocols retuned}``.

    :raises ConfigurationError: when a parameter matches no protocol at
        all — sweeping an axis nobody honours is a configuration bug,
        not a silent no-op.
    """
    counts = dict.fromkeys(params, 0)
    for protocol in protocols:
        for name, value in params.items():
            target = protocol
            while target is not None:
                if name in getattr(target, "tunable", ()):
                    target.retune(**{name: value})
                    counts[name] += 1
                    break
                target = getattr(target, "inner", None)
    missing = sorted(name for name, count in counts.items() if count == 0)
    if missing:
        raise ConfigurationError(
            f"retune parameter(s) {missing} match no protocol in the "
            "resumed run — no protocol lists them as tunable"
        )
    return counts


def observed_state(kernel: "EventKernel") -> dict[str, Any]:
    """A run's visible progress as JSON values: totals, per-node
    ``[sent, dropped]`` activity, sorted decided / discovered nodes."""
    metrics, states = kernel._metrics, [ctx.state for ctx in kernel._contexts]
    return dict(
        messages=metrics.messages_total, drops=metrics.drops_total,
        bytes=metrics.bytes_total,
        activity=[list(pair) for pair in metrics.activity_snapshot(kernel.n)],
        decided=[state.node for state in states if state.decided],
        discovered=[state.node for state in states if state.discovered is not None],
    )


# -- process-wide checkpoint policy ---------------------------------------

#: A checkpoint action: called with the kernel's label and the kernel.
CheckpointAction = Callable[[int, "EventKernel"], None]


class CheckpointPolicy:
    """Call ``action(label, kernel)`` every ``every`` ticks.

    Consulted by the kernel's run loop at each tick boundary.  Kernels
    are labelled ``0``, ``1``, ... in the order they first reach a
    boundary, so a workload running several (key distribution, then the
    protocol under test) keeps their checkpoints apart.
    """

    def __init__(self, every: int, action: CheckpointAction) -> None:
        if every < 1:
            raise ConfigurationError(
                f"checkpoint interval must be a positive tick count, got {every}"
            )
        self.every = every
        self.action = action
        self._next_run = 0
        self._labels: dict[int, int] = {}

    def checkpoint(self, kernel: "EventKernel") -> None:
        """Hand ``kernel`` (its tick a multiple of ``every``) to the
        action under the kernel's label."""
        label = self._labels.get(id(kernel))
        if label is None:
            label = self._labels[id(kernel)] = self._next_run
            self._next_run += 1
        self.action(label, kernel)


_ACTIVE_POLICY: CheckpointPolicy | None = None


def set_checkpoint_policy(every: int, action: CheckpointAction) -> CheckpointPolicy:
    """Install a process-wide checkpoint policy (returns it).

    :raises ConfigurationError: for a non-positive interval.
    """
    global _ACTIVE_POLICY
    _ACTIVE_POLICY = CheckpointPolicy(every, action)
    return _ACTIVE_POLICY


def clear_checkpoint_policy() -> None:
    """Remove the active policy (kernels stop calling its action)."""
    global _ACTIVE_POLICY
    _ACTIVE_POLICY = None


def active_checkpoint_policy() -> CheckpointPolicy | None:
    """The installed policy, or ``None`` — read once per ``run()``."""
    return _ACTIVE_POLICY
