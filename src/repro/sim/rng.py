"""Deterministic per-node randomness derivation.

Every run is driven by one master seed; each node receives an independent
``random.Random`` stream derived by hashing ``(master seed, node id)``.
Two guarantees follow:

* reruns with the same seed reproduce every message bit-for-bit, which the
  regression tests rely on; and
* a node's stream is statistically independent of its peers', so the
  challenge nonces ``r_j`` of the key distribution protocol are
  unpredictable to other nodes *within the simulation's threat model*.
"""

from __future__ import annotations

import hashlib
import random

from ..types import NodeId


def node_rng(master_seed: int | str, node: NodeId, purpose: str = "") -> random.Random:
    """A deterministic ``Random`` for ``node`` under ``master_seed``.

    :param purpose: optional extra domain separator, letting one node hold
        several independent streams (e.g. key generation vs challenges).
    """
    digest = hashlib.sha256(
        f"repro/{master_seed}/{node}/{purpose}".encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def instance_rng(
    master_seed: int | str, node: NodeId, instance: int, purpose: str = ""
) -> random.Random:
    """A deterministic ``Random`` for one *protocol instance* at ``node``.

    Namespaced by ``(master_seed, node, instance)``: two instances
    multiplexed at the same node draw statistically independent streams,
    and an instance's stream does not depend on which *other* instances
    share its run.
    ``instance`` is folded into the :func:`node_rng` purpose separator, so
    instance streams can never collide with a node's plain streams.
    """
    return node_rng(master_seed, node, f"instance/{instance}/{purpose}")


# -- stream state capture (checkpoint/resume) -----------------------------
#
# Snapshot audit: every ``random.Random`` a run consumes must live inside
# the kernel's object graph so :mod:`repro.sim.snapshot` captures its
# position.  The inventory —
#
# * node streams: ``NodeContext.rng`` (one per context, built here);
# * instance streams: built by :func:`instance_rng` on an instance's first
#   ``rng`` read and held by its mux slot, which carries the stream's
#   identity (seed, node, instance, channel) until then; the slot lets go
#   of the stream (with the protocol) when the instance halts, since a
#   halted instance is never stepped again;
# * link streams, as positions: the flat ``n * n`` tables of pre-drawn
#   outcome arrays (``_links``, aliased by ``_fanouts``; pickled as raw
#   bytes) and drawn counts (``_drawn``) of :mod:`repro.sim.network`'s
#   ``_LinkStreamDelivery`` instances; a refill rebuilds the stream here,
#   replays it and drops it again;
#
# — all reachable from the :class:`~repro.sim.kernel.EventKernel`, so a
# whole-graph pickle carries every stream position and no stream can
# silently desync on resume.  Code introducing a *new* ad-hoc
# ``random.Random`` must park it on an object the kernel reaches.
#
# Two construction sites are deliberately exempt, both outside run state:
# ``repro.crypto.schnorr`` seeds a throwaway stream from the group's bit
# sizes alone (a run-independent constant), and ``repro.crypto.numtheory``
# falls back to an unseeded stream only for primality *witness* selection
# when the caller passes none (the verdict, not the draws, is what's
# consumed).
