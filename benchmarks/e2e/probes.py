"""Isolated probes for the per-call layers (``run.py --probes``; not gated).

On the per-envelope entry points a Python wrapper costs about as much as
the call it wraps, so the trace's ``self_s`` overstates them (see
``trace.overhead_x``).  These probes time the same public functions bare,
in a loop over inputs shaped like the workloads', and print nanoseconds
per call (median of :data:`ROUNDS` rounds).  They make no claim by
themselves: a change is judged on the end-to-end metrics.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.auth import challenge_body, trusted_dealer_setup
from repro.crypto import encode, extend_chain, sign_leaf, verify_chain
from repro.crypto.signing import clear_verify_cache
from repro.sim import Envelope, EventKernel, Metrics, Protocol, make_delivery, run_protocols

ROUNDS = 5
N = 128
CHAIN_DEPTH = 10
SCHEMES = ("simulated-hmac", "schnorr-512", "rsa-512")


def per_call_ns(work: Callable[[], int]) -> float:
    """Median over :data:`ROUNDS` of ``work()``'s duration per unit of the
    count it returns."""
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter_ns()
        units = work()
        samples.append((time.perf_counter_ns() - start) / units)
    return statistics.median(samples)


class _Flood(Protocol):
    """Every node broadcasts one constant for ``rounds`` rounds: all
    kernel, no protocol."""

    def __init__(self, rounds: int) -> None:
        self._rounds = rounds

    def on_round(self, ctx, inbox) -> None:
        if ctx.round == self._rounds:
            ctx.halt()
        else:
            ctx.broadcast(("flood", 0))


def probe_encode() -> float:
    # Key distribution's challenge bodies; a nonce range per round keeps
    # every body's integers out of the scalar memo.
    batches = [
        [challenge_body(i % N, (i + 1) % N, (salt << 64) + i) for i in range(20_000)]
        for salt in range(1, ROUNDS + 1)
    ]

    def work() -> int:
        bodies = batches.pop()
        for body in bodies:
            encode(body)
        return len(bodies)

    return per_call_ns(work)


def probe_chain(scheme: str) -> tuple[float, float]:
    """``(sign ns, verify ns)`` per signature of a depth-10 chain."""
    keypairs, directories = trusted_dealer_setup(CHAIN_DEPTH + 1, scheme=scheme, seed="probe")
    values = iter(range(2 * ROUNDS))
    chains = []

    def build() -> int:
        chain = sign_leaf(keypairs[0].secret, ("v", next(values)))
        for signer in range(1, CHAIN_DEPTH):
            chain = extend_chain(keypairs[signer].secret, signer - 1, chain)
        chains.append(chain)
        return CHAIN_DEPTH

    def verify() -> int:
        clear_verify_cache()
        verdict = verify_chain(chains.pop(), CHAIN_DEPTH - 1, directories[CHAIN_DEPTH])
        if not verdict.ok:
            raise AssertionError(f"probe chain rejected: {verdict.reason}")
        return CHAIN_DEPTH

    return per_call_ns(build), per_call_ns(verify)


def probe_arrivals() -> tuple[float, float]:
    """``(arrival_tick ns, batch_arrivals ns per recipient)`` for
    ``loss:0.2`` at n=128, the model bound to a real kernel."""
    model = make_delivery("loss:0.2")
    EventKernel([_Flood(0) for _ in range(N)], seed="probe", delivery=model)
    payload = ("flood", 0)
    envelopes = [
        Envelope(sender, recipient, payload, 0)
        for sender in range(N)
        for recipient in range(N)
        if recipient != sender
    ]
    others = [[node for node in range(N) if node != sender] for sender in range(N)]

    def scalar() -> int:
        arrival_tick = model.arrival_tick
        for envelope in envelopes:
            arrival_tick(envelope, 0)
        return len(envelopes)

    def bulk() -> int:
        for sender in range(N):
            model.batch_arrivals(sender, others[sender], 0)
        return len(envelopes)

    return per_call_ns(scalar), per_call_ns(bulk)


def probe_record() -> float:
    payload = ("flood", 0)
    envelopes = [Envelope(i % N, (i + 1) % N, payload, i % 10) for i in range(100_000)]

    def work() -> int:
        record = Metrics().record
        for envelope in envelopes:
            record(envelope)
        return len(envelopes)

    return per_call_ns(work)


def probe_kernel(delivery: str | None) -> float:
    def work() -> int:
        run = run_protocols(
            [_Flood(6) for _ in range(N)], seed="probe", delivery=make_delivery(delivery)
        )
        return run.metrics.messages_total

    return per_call_ns(work)


def main() -> int:
    results: dict[str, float] = {"crypto.encode_ns": probe_encode()}
    for scheme in SCHEMES:
        sign_ns, verify_ns = probe_chain(scheme)
        results[f"crypto.sign_ns[{scheme}]"] = sign_ns
        results[f"crypto.verify_ns[{scheme}]"] = verify_ns
    (
        results["sim.network.arrival_tick_ns"],
        results["sim.network.batch_arrival_ns_per_recipient"],
    ) = probe_arrivals()
    results["sim.metrics.record_ns"] = probe_record()
    results["sim.kernel.envelope_ns[sync]"] = probe_kernel(None)
    results["sim.kernel.envelope_ns[bounded:1]"] = probe_kernel("bounded:1")
    print("== isolated probes (bare calls, not gated) ==")
    for name, value in results.items():
        print(f"  {name:<46}{value:>12.1f} ns")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
