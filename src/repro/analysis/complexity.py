"""Closed-form message/round complexity of every protocol in the library.

These are the paper's quantitative claims, as formulas.  Each function's
docstring cites where the claim appears; the benchmarks check the
simulator's *measured* counts against these formulas exactly (not
asymptotically), which is the strongest reproduction the paper admits —
it reports no testbed numbers, only counts.
"""

from __future__ import annotations

from ..types import validate_fault_budget, validate_node_count


def keydist_messages(n: int) -> int:
    """Key distribution messages: **3·n·(n−1)** (paper section 3.1).

    "The message complexity of the protocol is 3·n·(n−1), as each node
    needs three messages to convince any other node of its test predicate."
    """
    validate_node_count(n)
    return 3 * n * (n - 1)


def keydist_rounds() -> int:
    """Key distribution rounds: **3** (paper section 3.1)."""
    return 3


def fd_auth_messages(n: int, t: int | None = None) -> int:
    """Authenticated chain-FD messages, failure-free: **n − 1** (section 5).

    "This protocol works with the minimal number of messages of n−1
    (cf. [Baum-Waidner])."  The count is independent of ``t``: the chain
    spends ``t`` messages and the dissemination ``n − 1 − t``.
    """
    validate_node_count(n)
    if t is not None:
        validate_fault_budget(t, n)
    return n - 1


def fd_auth_rounds(t: int) -> int:
    """Authenticated chain-FD rounds, failure-free: **t + 1**.

    ``t`` chain hops plus one dissemination step.
    """
    return t + 1


def fd_nonauth_messages(n: int, t: int) -> int:
    """Non-authenticated FD messages: **(t+1)(n−1) = O(n·t)** (section 5).

    "Hadzilacos and Halpern state that non-authenticated protocols for
    arbitrary failures need O(n·t) messages ... With a constant portion of
    the nodes being faulty this makes O(n²) messages."  Our echo baseline
    realises the bound with one sender broadcast plus ``t`` echo
    broadcasts.
    """
    validate_fault_budget(t, n)
    return (t + 1) * (n - 1)


def fd_nonauth_rounds() -> int:
    """Echo-FD rounds: 2 (send, echo)."""
    return 2


def smallrange_messages(n: int, value: int) -> int:
    """Small-range (binary, silence-decodes-0) messages, failure-free.

    ``n − 1`` when the value is 1, **0** when it is 0 — the "assigning
    values to missing messages" saving of section 5.
    """
    validate_node_count(n)
    return (n - 1) if value == 1 else 0


def sm_messages(n: int, t: int | None = None) -> int:
    """SM(t) signed-messages BA, failure-free: **(n−1) + (n−1)(n−2)**.

    One sender broadcast; every receiver relays the (single) value once to
    the ``n − 2`` nodes that have not signed it.  Θ(n²) — the cost the
    FD→BA extension avoids in failure-free runs (experiment E7).
    ``t`` does not change the failure-free count (for ``t >= 1``).
    """
    validate_node_count(n)
    if t is not None and t == 0:
        return n - 1  # no relay round at all
    return (n - 1) + (n - 1) * (n - 2)


def extension_messages(n: int, t: int | None = None) -> int:
    """Extended FD→BA, failure-free: same as chain FD — **n − 1**.

    The Hadzilacos-Halpern property the paper invokes: "the extended
    protocol requires in its failure-free runs the same number of messages
    as the underlying Failure Discovery protocol."
    """
    return fd_auth_messages(n, t)


def om_envelopes(n: int, t: int) -> int:
    """OM(t)/EIG *envelope* count, failure-free (batched per node pair).

    Round 1: ``n − 1`` sender broadcasts; rounds 2..t+1: every non-sender
    broadcasts one (batched) report envelope to the other ``n − 1`` nodes.
    """
    validate_fault_budget(t, n)
    return (n - 1) + t * (n - 1) * (n - 1)


def om_reports(n: int, t: int) -> int:
    """OM(t)/EIG individual path-report count — the classical exponential
    message measure.

    Level ``k`` (2 <= k <= t+1) carries one report per (path of length
    k−1 not containing the relayer, relayer, recipient) triple:
    ``sum over k of P(n-1, k-2)·(n-k+1)·(n-1)`` where paths start at the
    sender and all ids are distinct.
    """
    validate_fault_budget(t, n)
    total = 0
    paths_prev = 1  # number of length-1 paths: just (sender,)
    length = 1
    for round_ in range(2, t + 2):
        # Reports in this round: for each path of length ``length`` not
        # containing the relayer; there are (n - length) eligible relayers
        # per path, each broadcasting to (n - 1) recipients.
        total += paths_prev * (n - length) * (n - 1)
        paths_prev = paths_prev * (n - length)
        length += 1
    return total


def akd_envelopes(n: int, t: int) -> int:
    """Agreement-based key distribution, aggregate:
    **n·[(n−1) + t(n−1)²]** envelopes (paper section 3's cost argument).

    n concurrent OM(t) instances, one per key, each costing
    :func:`om_envelopes`.  Benchmark E11 checks the measured aggregate
    against this and the per-instance counts against
    :func:`akd_instance_envelopes`.
    """
    return n * om_envelopes(n, t)


def akd_instance_envelopes(n: int, t: int) -> int:
    """One agreement-based key-distribution instance: **(n−1) + t(n−1)²**.

    Exactly :func:`om_envelopes` — named separately so the E11 mux table
    reads as the paper's per-instance claim.  The instance multiplexer's
    per-instance meters (:mod:`repro.sim.multiplex`) measure this
    directly.
    """
    return om_envelopes(n, t)


def om_collapsed_reports(n: int, t: int) -> int:
    """OM(t)/EIG report count under the succinct engine's run-length wire
    form, in a *unanimous* (failure-free) run: **t·(n−1)²**.

    Every honest report about a fully uniform level collapses to a single
    run, so the per-recipient report count is one per (relayer, recipient,
    round) triple: ``n − 1`` relayers (every non-sender holds reportable
    paths) × ``n − 1`` recipients × ``t`` report rounds.  Compare
    :func:`om_reports`, the dense count the same run *stands for* — the
    byte meters still charge the dense equivalent (see
    ``repro.agreement.eigtree``), so this formula predicts representation
    compression, not a protocol change.
    """
    validate_fault_budget(t, n)
    return t * (n - 1) * (n - 1)


def amortized_messages_local(n: int, t: int, runs: int) -> int:
    """Total messages for ``runs`` FD instances under local authentication:
    one key distribution plus ``runs`` chain-FD runs (Summary claim)."""
    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    return keydist_messages(n) + runs * fd_auth_messages(n, t)


def amortized_messages_nonauth(n: int, t: int, runs: int) -> int:
    """Total messages for ``runs`` FD instances without authentication."""
    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    return runs * fd_nonauth_messages(n, t)


def crossover_runs(n: int, t: int) -> int:
    """The smallest number of FD runs after which establishing local
    authentication pays off (Summary: "the effort of establishing local
    authentication once results in a substantial reduction of messages in
    subsequent failure-discovery protocols").

    Solving ``3n(n−1) + k(n−1) < k(t+1)(n−1)`` gives ``k > 3n / t``.

    :raises ValueError: if ``t == 0`` (both protocols then cost n−1 per
        run and key distribution never amortizes).
    """
    validate_fault_budget(t, n)
    if t == 0:
        raise ValueError("no crossover exists for t=0 (equal per-run cost)")
    k = 3 * n // t
    return k + 1
