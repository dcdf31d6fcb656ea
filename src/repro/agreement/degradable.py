"""Degradable agreement (the paper's "further research" pointer).

The paper's summary hopes for "improvements in the area of ... the
parameters of weaker types of agreement, e.g. Degradable Agreement",
citing Vaidya & Pradhan.  Degradable agreement has two fault budgets
``t <= u``: up to ``t`` faults the protocol guarantees full Byzantine
Agreement; between ``t+1`` and ``u`` faults it may *degrade* to a weaker
guarantee instead of failing arbitrarily.

We provide a signed-message instantiation,
:class:`DegradableSignedAgreement`: structurally SM(u) (relay window
``u`` rounds) with the decision rule

* extraction set ``V`` a singleton -> decide the value (full agreement),
* otherwise -> decide the default **and flag degradation**.

With authentic key bindings (global authentication, or local
authentication whose key distribution ran among correct nodes) the
classical SM argument gives full BA for any ``f <= u`` — authentication
is exactly what makes graceful degradation cheap, which is the point of
placing this next to the paper.

The *interesting* degradation in this library's setting is degradation of
**authentication itself**: under local authentication attacked during key
distribution (mixed predicates, cross claims), signature verification is
no longer consistent across correct nodes, the extraction sets diverge,
and runs degrade — some correct nodes decide the value, others the
default, and the ``degraded`` flag records it.  ``tests/agreement`` and
experiment E10 construct that scenario, and contrast it with chain-FD
where the same attack is *discovered* (paper Theorem 4) rather than
silently degrading — precisely why the paper claims local authentication
for Failure Discovery but leaves general agreement as future work.
"""

from __future__ import annotations

from typing import Any

from ..auth.directory import KeyDirectory
from ..crypto.keys import KeyPair
from ..errors import ConfigurationError
from ..sim import NodeContext, Protocol, assemble_protocols, node_keys
from ..types import NodeId, validate_fault_budget
from .problem import DEFAULT_VALUE
from .signed import SignedAgreementProtocol

#: Output key: True when the node decided the default because its
#: extraction set was not a singleton (degraded outcome).
OUTPUT_DEGRADED = "degraded"


class DegradableSignedAgreement(SignedAgreementProtocol):
    """SM with split budgets ``(t, u)`` and a degradation flag.

    :param t: the *guaranteed* budget (reported, and used by analyses).
    :param u: the *degradable* budget; the relay window runs ``u`` rounds,
        so the protocol lasts ``u + 2`` rounds total.
    """

    def __init__(
        self,
        n: int,
        t: int,
        u: int,
        keypair: KeyPair,
        directory: KeyDirectory,
        value: Any = None,
        default: Any = DEFAULT_VALUE,
    ) -> None:
        validate_fault_budget(t, n)
        validate_fault_budget(u, n)
        if u < t:
            raise ConfigurationError(f"need u >= t, got t={t}, u={u}")
        # The base class's "t" is its relay window; give it u.
        super().__init__(n, u, keypair, directory, value=value, default=default)
        self.guaranteed_budget = t
        self.degradable_budget = u

    def _decide(self, ctx: NodeContext) -> None:
        degraded = len(self._extracted) != 1
        ctx.state.outputs[OUTPUT_DEGRADED] = degraded
        super()._decide(ctx)


def make_degradable_protocols(
    n: int,
    t: int,
    u: int,
    value: Any,
    keypairs: dict[NodeId, KeyPair],
    directories: dict[NodeId, KeyDirectory],
    adversaries: dict[NodeId, Protocol] | None = None,
    default: Any = DEFAULT_VALUE,
) -> list[Protocol]:
    """Assemble the per-node protocol list for one degradable-BA run."""
    return assemble_protocols(
        n,
        t,
        lambda node: DegradableSignedAgreement(
            n, t, u, *node_keys(keypairs, directories, node),
            value=value if node == 0 else None, default=default,
        ),
        adversaries,
    )
