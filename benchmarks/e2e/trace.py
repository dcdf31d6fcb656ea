"""Outside-in layer trace: time and count the calls into each layer.

The benchmark touches no file under ``src/``.  A layer is measured from
outside, by wrapping the public functions through which the rest of the
program enters it: methods are patched on the class that defines them,
module-level functions in every ``repro.*`` namespace that binds them
(``from .rng import node_rng`` makes a second binding the defining
module's patch would miss).  Each wrapper pushes a frame on one parent
stack, so an entry point's *self* time is its span minus the spans of
the wrapped calls made inside it; time in code that is not in the table
lands in the nearest wrapped caller.

Entry points listed in ``WHOLE_SPANS`` are few and long (a scenario, a
kernel run, a snapshot) and are kept whole, with their parent's id and
the run's id.  Everything else is hot — hundreds of thousands of calls
per operation — and is aggregated into three integers per entry point.
Nothing is written anywhere until the operation has ended.

The table below is also the written-down prediction the choosing-metrics
method asks for: ``moves`` names, per layer, the end-to-end metric and
workload a change to that layer should move, and ``ZERO_ON`` the counts
that must stay zero on the workloads that bypass a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

_SCHEME_CLASSES = (
    "repro.crypto.rsa:RsaScheme",
    "repro.crypto.schnorr:SchnorrScheme",
    "repro.crypto.simulated:SimulatedScheme",
)
_DELIVERY_CLASSES = (
    "SynchronousRounds",
    "BoundedDelay",
    "AdversarialOrder",
    "LossyDelivery",
    "PartitionedDelivery",
)
_METRICS_METHODS = (
    "record",
    "record_broadcast",
    "record_delivery",
    "record_deliveries",
    "record_drop",
    "record_drops",
    "settle",
    "merge",
)


@dataclass(frozen=True)
class Layer:
    """One layer of the program, named after its module.

    :ivar entry_points: ``module:function`` or ``module:Class.method``
        specs of the wrapped functions.
    :ivar moves: ``(end-to-end metric, workload)`` pairs a change to this
        layer should move; every other pairing is predicted unchanged.
    """

    name: str
    entry_points: tuple[str, ...]
    moves: tuple[tuple[str, str], ...]


LAYERS: tuple[Layer, ...] = (
    Layer(
        "crypto",
        (
            "repro.crypto.encoding:encode",
            "repro.crypto.encoding:byte_size",
            "repro.crypto.signing:sign_value",
            "repro.crypto.signing:cached_verify",
            "repro.crypto.chain:verify_chain",
            *(
                f"{cls}.{method}"
                for cls in _SCHEME_CLASSES
                for method in ("generate_keypair", "sign", "verify")
            ),
        ),
        moves=(("run_s_p50", "paper-stack"),),
    ),
    Layer(
        "auth",
        (
            "repro.auth.local:run_key_distribution",
            "repro.harness.runner:setup_authentication",
            "repro.auth.agreement_based:run_agreement_key_distribution",
            # The protocol steps, so that the time a node spends answering
            # challenges is the auth layer's and not the kernel loop's.
            "repro.auth.local:KeyDistributionProtocol.on_round",
            "repro.auth.agreement_based:AgreementKeyDistributionProtocol.setup",
            "repro.auth.agreement_based:AgreementKeyDistributionProtocol.on_round",
        ),
        moves=(("run_s_p50", "paper-stack"), ("run_s_p50", "keydist-sync")),
    ),
    Layer(
        "sim.kernel",
        tuple(
            f"repro.sim.kernel:EventKernel.{method}"
            for method in ("__init__", "run", "enqueue", "enqueue_batch")
        ),
        moves=(("envelopes_per_s", "fd-flood"), ("envelopes_per_s", "keydist-sync")),
    ),
    Layer(
        "sim.node",
        tuple(
            f"repro.sim.node:NodeContext.{method}"
            for method in ("send", "broadcast", "send_batch")
        ),
        moves=(("run_s_p50", "fd-flood"), ("run_s_p50", "keydist-sync")),
    ),
    Layer(
        "sim.network",
        (
            "repro.sim.network:make_delivery",
            *(
                f"repro.sim.network:{cls}.{method}"
                for cls in _DELIVERY_CLASSES
                for method in ("bind", "arrival_tick", "batch_arrivals")
            ),
        ),
        moves=(("run_s_p50", "fd-flood"), ("run_s_p50", "mux-lossy")),
    ),
    Layer(
        "sim.rng",
        ("repro.sim.rng:node_rng", "repro.sim.rng:instance_rng"),
        moves=(
            ("run_s_p50", "fd-flood"),
            ("run_s_p50", "warm-sweep"),
            ("peak_rss_mib", "warm-sweep"),
        ),
    ),
    Layer(
        "sim.metrics",
        tuple(f"repro.sim.metrics:Metrics.{method}" for method in _METRICS_METHODS),
        moves=(
            ("run_s_p50", "fd-flood"),
            ("run_s_p50", "keydist-sync"),
            ("run_s_p50", "mux-sync"),
        ),
    ),
    Layer(
        "sim.batch",
        tuple(
            f"repro.sim.batch:BatchPlane.{method}"
            for method in ("deliver", "capture", "groups_for")
        ),
        moves=(
            ("run_s_p50", "mux-sync"),
            ("peak_rss_mib", "mux-sync"),
            ("run_s_p50", "mux-lossy"),
            ("peak_rss_mib", "mux-lossy"),
        ),
    ),
    Layer(
        "sim.multiplex",
        (
            "repro.sim.multiplex:InstanceMux.setup",
            "repro.sim.multiplex:InstanceMux.on_round",
            "repro.sim.multiplex:collect_instances",
        ),
        moves=(("run_s_p50", "mux-sync"), ("run_s_p50", "mux-lossy")),
    ),
    Layer(
        "agreement",
        (
            "repro.agreement.eigtree:ingest_rle",
            "repro.agreement.eigtree:ingest_rle_batch",
            "repro.agreement.eigtree:encode_report",
            "repro.agreement.eigtree:resolve_sweep",
            "repro.agreement.eigtree:SuccinctEigStore.resolve",
            # Protocol steps, as for auth: the EIG bookkeeping around the
            # functions above belongs to this layer, not to the mux.
            "repro.agreement.oral:OralAgreementProtocol.on_round",
            "repro.agreement.oral:OralAgreementProtocol.on_round_batch",
            "repro.agreement.extension:ExtendedAgreementProtocol.on_round",
            "repro.agreement.signed:SignedAgreementProtocol.on_round",
        ),
        moves=(("run_s_p50", "oral-jitter"), ("run_s_p50", "mux-lossy")),
    ),
    Layer(
        "fd",
        (
            "repro.fd.authenticated:ChainFDProtocol.on_round",
            "repro.fd.nonauth:EchoFDProtocol.on_round",
            "repro.fd.smallrange:SilentZeroBroadcastProtocol.on_round",
            "repro.fd.smallrange:OptimisticBinaryChainProtocol.on_round",
            "repro.fd.timeout:TimeoutFDProtocol.on_round",
            "repro.fd.adaptive:AdaptiveTimeoutFDProtocol.on_round",
        ),
        moves=(("run_s_p50", "fd-flood"), ("run_s_p50", "warm-sweep")),
    ),
    Layer(
        "sim.snapshot",
        (
            "repro.sim.snapshot:capture_kernel",
            "repro.sim.snapshot:restore_kernel",
            "repro.sim.snapshot:retune_protocols",
        ),
        moves=(("run_s_p50", "warm-sweep"), ("peak_rss_mib", "warm-sweep")),
    ),
    Layer(
        "harness",
        (
            "repro.harness.runner:run_fd_scenario",
            "repro.harness.runner:run_ba_scenario",
            "repro.harness.sweep:sweep",
            "repro.harness.parallel:sweep_prefix_shared",
        ),
        moves=(
            *(
                ("setup_s", workload)
                for workload in (
                    "paper-stack",
                    "keydist-sync",
                    "fd-flood",
                    "mux-sync",
                    "mux-lossy",
                    "oral-jitter",
                    "warm-sweep",
                )
            ),
            ("run_s_p50", "warm-sweep"),
        ),
    ),
)

#: The entry points kept as whole spans: few and long.
WHOLE_SPANS = frozenset(
    {
        "repro.auth.local:run_key_distribution",
        "repro.harness.runner:setup_authentication",
        "repro.auth.agreement_based:run_agreement_key_distribution",
        "repro.sim.kernel:EventKernel.run",
        "repro.sim.snapshot:capture_kernel",
        "repro.sim.snapshot:restore_kernel",
        "repro.sim.snapshot:retune_protocols",
        "repro.harness.runner:run_fd_scenario",
        "repro.harness.runner:run_ba_scenario",
        "repro.harness.sweep:sweep",
        "repro.harness.parallel:sweep_prefix_shared",
    }
)

#: Name of the span the worker opens around the whole traced operation.
ROOT = "workload"

#: Counts predicted to be zero: metric -> the workloads that bypass the
#: mechanism it counts.  A miss is printed, not failed (a later change may
#: legitimately route a workload through another layer) — except
#: ``sim.multiplex.engine_fallbacks``, which the oracle requires to be 0.
_NON_MUX = ("paper-stack", "keydist-sync", "fd-flood", "oral-jitter", "warm-sweep")
ZERO_ON: dict[str, tuple[str, ...]] = {
    "sim.kernel.enqueue_calls": ("mux-sync",),
    "sim.network.arrival_tick_calls": ("paper-stack", "keydist-sync", "mux-sync", "mux-lossy"),
    "sim.network.batch_arrivals_calls": ("mux-sync", *_NON_MUX),
    "sim.batch.calls": _NON_MUX,
    "sim.multiplex.calls": _NON_MUX,
    "sim.snapshot.calls": (
        "paper-stack", "keydist-sync", "fd-flood", "mux-sync", "mux-lossy", "oral-jitter",
    ),
    "agreement.resolve_fallback_share": ("mux-sync",),
}


def resolve(spec: str) -> tuple[Any, str, Callable]:
    """``(owner, attribute, function)`` for an entry-point spec.

    The owner of a method is the class in the MRO that defines it, so an
    inherited method is patched once, where it lives.

    :raises AttributeError: when the name no longer exists in ``src/``.
    """
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    cls_name, _, method = path.partition(".")
    if not method:
        return module, cls_name, getattr(module, cls_name)
    cls = getattr(module, cls_name)
    getattr(cls, method)  # fail here, by name, if it is gone
    owner = next(base for base in cls.__mro__ if method in vars(base))
    return owner, method, vars(owner)[method]


# -- observers: counts the call counters cannot give ------------------------
#
# Each takes the tracer's counter dict and the function about to be timed
# and returns a function of the same signature.


def _count_arrival(counters: dict[str, int], fn: Callable) -> Callable:
    def arrival_tick(*args, **kwargs):
        arrival = fn(*args, **kwargs)
        counters["decisions"] += 1
        if arrival is None:
            counters["drops"] += 1
        return arrival

    return arrival_tick


def _count_batch_arrivals(counters: dict[str, int], fn: Callable) -> Callable:
    def batch_arrivals(*args, **kwargs):
        arrivals = fn(*args, **kwargs)
        counters["decisions"] += len(arrivals)
        counters["batch_recipients"] += len(arrivals)
        counters["drops"] += arrivals.count(None)
        return arrivals

    return batch_arrivals


def _count_ticks(counters: dict[str, int], fn: Callable) -> Callable:
    def run(kernel, *args, **kwargs):
        before = kernel.tick
        try:
            return fn(kernel, *args, **kwargs)
        finally:
            counters["ticks"] += kernel.tick - before

    return run


def _count_fallbacks(counters: dict[str, int], fn: Callable) -> Callable:
    def setup(mux, *args, **kwargs):
        result = fn(mux, *args, **kwargs)
        if mux.engine_used != mux.engine:
            counters["engine_fallbacks"] += 1
        return result

    return setup


def _count_snapshot_bytes(counters: dict[str, int], fn: Callable) -> Callable:
    def capture_kernel(*args, **kwargs):
        snapshot = fn(*args, **kwargs)
        counters["snapshot_bytes"] += snapshot.size_bytes
        return snapshot

    return capture_kernel


_OBSERVERS: dict[str, Callable[[dict[str, int], Callable], Callable]] = {
    ".arrival_tick": _count_arrival,
    ".batch_arrivals": _count_batch_arrivals,
    ":EventKernel.run": _count_ticks,
    ":InstanceMux.setup": _count_fallbacks,
    ":capture_kernel": _count_snapshot_bytes,
}
_COUNTERS = (
    "decisions", "drops", "batch_recipients", "ticks", "engine_fallbacks", "snapshot_bytes",
)


class Tracer:
    """Wraps the table's entry points and accumulates their calls and time."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.entries: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.inclusive_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        #: ``(id, parent id, name, start ns, end ns)``; parent 0 = none.
        self.spans: list[tuple[int, int, str, int, int]] = []
        # One accumulator of child time per open wrapped call; the bottom
        # element absorbs the outermost call's time.
        self._child_ns: list[int] = [0]
        self._open_spans: list[int] = [0]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------

    def _slot(self, entry: str, layer: str) -> int:
        self.entries.append(entry)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.inclusive_ns.append(0)
        self.self_ns.append(0)
        return len(self.entries) - 1

    def _timed(self, fn: Callable, slot: int, span: str | None) -> Callable:
        calls, inclusive, self_ns = self.calls, self.inclusive_ns, self.self_ns
        child_ns = self._child_ns
        now = time.perf_counter_ns
        if span is None:

            def hot(*args, **kwargs):
                child_ns.append(0)
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = now() - start
                    calls[slot] += 1
                    inclusive[slot] += elapsed
                    self_ns[slot] += elapsed - child_ns.pop()
                    child_ns[-1] += elapsed

            return hot

        spans, open_spans = self.spans, self._open_spans

        def whole(*args, **kwargs):
            span_id = len(spans) + 1
            spans.append((span_id, open_spans[-1], span, 0, 0))
            open_spans.append(span_id)
            child_ns.append(0)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                elapsed = end - start
                open_spans.pop()
                spans[span_id - 1] = (span_id, spans[span_id - 1][1], span, start, end)
                calls[slot] += 1
                inclusive[slot] += elapsed
                self_ns[slot] += elapsed - child_ns.pop()
                child_ns[-1] += elapsed

        return whole

    def install(self) -> None:
        """Patch every entry point of :data:`LAYERS`."""
        # id(object) -> every ``repro.*`` module global bound to it.
        bindings: dict[int, list[tuple[Any, str]]] = {}
        for name, module in list(sys.modules.items()):
            if module is not None and name.partition(".")[0] == "repro":
                for bound, value in vars(module).items():
                    bindings.setdefault(id(value), []).append((module, bound))
        patched: set[tuple[int, str]] = set()
        for layer in LAYERS:
            for entry in layer.entry_points:
                owner, attr, original = resolve(entry)
                if (id(owner), attr) in patched:
                    continue  # inherited: already patched where it is defined
                patched.add((id(owner), attr))
                if isinstance(owner, type):
                    # Name an inherited method after the class it lives in.
                    entry = f"{owner.__module__}:{owner.__name__}.{attr}"
                fn = original
                for suffix, observe in _OBSERVERS.items():
                    if entry.endswith(suffix):
                        fn = observe(self.counters, fn)
                span = entry if entry in WHOLE_SPANS else None
                wrapper = functools.update_wrapper(
                    self._timed(fn, self._slot(entry, layer.name), span), original
                )
                targets = [(owner, attr)] if isinstance(owner, type) else bindings[id(original)]
                for target, bound in targets:
                    self._undo.append((target, bound, original))
                    setattr(target, bound, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def call(self, operation: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run the traced operation inside the root span, whose self time
        is what no layer accounts for."""
        return self._timed(operation, self._slot(ROOT, "trace"), ROOT)(*args, **kwargs)

    # -- reading ----------------------------------------------------------

    def calls_to(self, *suffixes: str) -> int:
        """Calls summed over the entry points ending in any suffix."""
        return sum(
            count
            for entry, count in zip(self.entries, self.calls)
            if entry.endswith(suffixes)
        )

    def seconds_in(self, suffix: str) -> float:
        """Inclusive seconds summed over the entry points ending in ``suffix``."""
        return sum(
            ns for entry, ns in zip(self.entries, self.inclusive_ns) if entry.endswith(suffix)
        ) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in zip(self.layer_of, self.calls) if name == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in zip(self.layer_of, self.self_ns) if name == layer) / 1e9

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this operation except the two the
        worker adds: ``trace.overhead_x`` (needs the untraced timing) and
        ``harness.import_s`` (measured during set-up)."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer.name}.calls"] = self.layer_calls(layer.name)
            out[f"{layer.name}.self_s"] = self.layer_self_s(layer.name)
        out.update((name, read(self)) for name, (_, _, read) in _NAMED.items())
        out["trace.unattributed_s"] = self.layer_self_s("trace")
        return out

    def root_seconds(self) -> float:
        """Duration of the traced operation."""
        return self.inclusive_ns[self.entries.index(ROOT)] / 1e9

    def dump(self) -> dict[str, Any]:
        """The spans and the per-entry-point table, for ``--trace-out``."""
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": i, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                for i, parent, name, start, end in self.spans
            ],
            "entry_points": [
                {
                    "name": entry,
                    "layer": layer,
                    "calls": calls,
                    "inclusive_ns": inclusive,
                    "self_ns": self_ns,
                }
                for entry, layer, calls, inclusive, self_ns in zip(
                    self.entries, self.layer_of, self.calls, self.inclusive_ns, self.self_ns
                )
            ],
        }


@contextmanager
def installed(run_id: str) -> Iterator[Tracer]:
    """A tracer whose wrappers are in place for the duration of the block."""
    tracer = Tracer(run_id)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _calls(*suffixes: str) -> tuple[str, str, Callable[[Tracer], float]]:
    return ("count", "lower", lambda tracer: tracer.calls_to(*suffixes))


#: The named metrics beside ``<layer>.calls`` / ``<layer>.self_s``:
#: name -> (unit, better, how to read it off a tracer).
_NAMED: dict[str, tuple[str, str, Callable[[Tracer], float]]] = {
    "crypto.encode_calls": _calls(":encode"),
    "crypto.sign_calls": _calls("Scheme.sign"),
    "crypto.verify_calls": _calls("Scheme.verify"),
    "crypto.verify_memo_hit_share": (
        "ratio",
        "higher",
        lambda t: (
            1 - _ratio(t.calls_to("Scheme.verify"), t.calls_to(":cached_verify"))
            if t.calls_to(":cached_verify")
            else 0.0
        ),
    ),
    "sim.kernel.enqueue_calls": _calls(":EventKernel.enqueue"),
    "sim.kernel.enqueue_batch_calls": _calls(":EventKernel.enqueue_batch"),
    "sim.kernel.ticks": ("count", "lower", lambda t: t.counters["ticks"]),
    "sim.node.send_calls": _calls(":NodeContext.send"),
    "sim.node.send_batch_calls": _calls(":NodeContext.send_batch"),
    "sim.network.arrival_tick_calls": _calls(".arrival_tick"),
    "sim.network.batch_arrivals_calls": _calls(".batch_arrivals"),
    "sim.network.batch_recipients": ("count", "lower", lambda t: t.counters["batch_recipients"]),
    "sim.network.drop_share": ("ratio", "lower", lambda t: _ratio(t.counters["drops"], t.counters["decisions"])),
    "sim.rng.stream_constructions": _calls(":node_rng"),
    "sim.metrics.record_calls": _calls(":Metrics.record"),
    "sim.metrics.record_broadcast_calls": _calls(":Metrics.record_broadcast"),
    "sim.metrics.settle_calls": _calls(":Metrics.settle"),
    "sim.batch.deliver_calls": _calls(":BatchPlane.deliver"),
    "sim.batch.capture_calls": _calls(":BatchPlane.capture"),
    "sim.multiplex.on_round_calls": _calls(":InstanceMux.on_round"),
    "sim.multiplex.engine_fallbacks": (
        "count", "lower", lambda t: t.counters["engine_fallbacks"],
    ),
    "agreement.resolve_calls": _calls(":SuccinctEigStore.resolve"),
    "agreement.resolve_sweep_calls": _calls(":resolve_sweep"),
    "agreement.resolve_fallback_share": (
        "ratio",
        "lower",
        lambda t: _ratio(t.calls_to(":resolve_sweep"), t.calls_to(":SuccinctEigStore.resolve")),
    ),
    "agreement.ingest_rle_batch_calls": _calls(":ingest_rle_batch"),
    "fd.step_calls": ("count", "lower", lambda t: t.layer_calls("fd")),
    "sim.snapshot.capture_s": ("s", "lower", lambda t: t.seconds_in(":capture_kernel")),
    "sim.snapshot.restore_s": ("s", "lower", lambda t: t.seconds_in(":restore_kernel")),
    "sim.snapshot.bytes": ("B", "lower", lambda t: t.counters["snapshot_bytes"]),
}

#: name -> (unit, better) of every per-layer metric, in printing order.
#: ``BENCHMARK.json`` repeats this table; the smoke test keeps them equal.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{
        f"{layer.name}.{kind}": (unit, "lower")
        for layer in LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    **{name: (unit, better) for name, (unit, better, _) in _NAMED.items()},
    "harness.import_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_x": ("x", "lower"),
}


def is_time(name: str) -> bool:
    """Whether a per-layer metric is a host time (noisy) — every other
    one is a count or a ratio of counts and must repeat bit-for-bit for
    the same seed."""
    return PER_LAYER[name][0] in ("s", "x")
