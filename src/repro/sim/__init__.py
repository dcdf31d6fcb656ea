"""Network simulator realising (and relaxing) the paper's model of computation.

Fully interconnected network with authenticated immediate senders (N2),
driven by an event kernel (:mod:`repro.sim.kernel`) under a pluggable
delivery model (:mod:`repro.sim.network`).  The default model is the
paper's: lock-step rounds with reliable next-round delivery (N1, bound
known); ``BoundedDelay`` and ``AdversarialOrder`` relax the timing half
for the E12 experiments.  See :mod:`repro.sim.kernel` for the semantics
and the determinism contract, and for :func:`run_protocols`, the
one-shot lock-step-by-default entry.
"""

from .batch import BatchPlane, BatchRecord, ChannelBatch
from .kernel import EventKernel, RunResult, run_protocols
from .message import Envelope, mux_unwrap, mux_wrap, payload_kind
from .metrics import Metrics
from .multiplex import (
    MUX_OUTCOMES,
    InstanceAggregate,
    InstanceMux,
    InstanceOutcome,
    collect_instances,
)
from .network import (
    DELIVERY_MODELS,
    AdversarialOrder,
    BoundedDelay,
    DeliveryModel,
    LossyDelivery,
    PartitionedDelivery,
    SynchronousRounds,
    available_deliveries,
    make_delivery,
)
from .node import NodeContext, NodeState, Protocol, assemble_protocols, node_keys
from .rng import instance_rng, node_rng
from .snapshot import (
    SNAPSHOT_VERSION,
    KernelSnapshot,
    capture_kernel,
    clear_checkpoint_policy,
    observed_state,
    restore_kernel,
    retune_protocols,
    set_checkpoint_policy,
)
from .trace import Trace, TraceEvent
from .views import ReceivedMessage, View

__all__ = [
    "AdversarialOrder",
    "BatchPlane",
    "BatchRecord",
    "BoundedDelay",
    "ChannelBatch",
    "DELIVERY_MODELS",
    "DeliveryModel",
    "Envelope",
    "EventKernel",
    "InstanceAggregate",
    "InstanceMux",
    "InstanceOutcome",
    "KernelSnapshot",
    "LossyDelivery",
    "MUX_OUTCOMES",
    "Metrics",
    "PartitionedDelivery",
    "NodeContext",
    "NodeState",
    "Protocol",
    "ReceivedMessage",
    "RunResult",
    "SNAPSHOT_VERSION",
    "SynchronousRounds",
    "Trace",
    "TraceEvent",
    "View",
    "assemble_protocols",
    "available_deliveries",
    "capture_kernel",
    "clear_checkpoint_policy",
    "collect_instances",
    "instance_rng",
    "make_delivery",
    "mux_unwrap",
    "mux_wrap",
    "node_keys",
    "node_rng",
    "observed_state",
    "payload_kind",
    "restore_kernel",
    "retune_protocols",
    "run_protocols",
    "set_checkpoint_policy",
]
