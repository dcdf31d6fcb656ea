"""Named attack scenarios for the discovery experiments (E6).

Each scenario packages: which nodes are Byzantine, how they misbehave
during key distribution and/or the FD run, and what the paper's theorems
predict about the outcome.  The E6 benchmark and the integration tests
iterate this catalogue.

A scenario's FD-phase corruption is its ``adversary`` field: a deferred
:class:`~repro.faults.AdversarySpec` factory the scenario runners accept
as ``adversary=`` — one corruption vocabulary for the whole library,
with the ``≤ t`` budget enforced when the spec is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..auth.directory import KeyDirectory
from ..crypto.keys import KeyPair
from ..errors import ConfigurationError
from ..faults import (
    AdversaryCoordination,
    AdversarySpec,
    CrossClaimAttack,
    FabricatingChainNode,
    ImpersonatingChainNode,
    MixedPredicateAttack,
    SharedKeyAttack,
    SilentProtocol,
    garbling_chain_node,
    withholding_chain_node,
)
from ..sim import Protocol
from ..types import NodeId


@dataclass
class AttackScenario:
    """A named Byzantine scenario against key distribution + chain FD.

    :ivar name: stable identifier used in reports.
    :ivar faulty: the Byzantine node set.
    :ivar kd_adversaries: builds the key-distribution phase's Byzantine
        behaviours (fresh per run).
    :ivar adversary: the FD-phase corruption — the ``(keypairs,
        directories) -> AdversarySpec`` factory the scenario runners
        accept as ``adversary=``.  The key-material-dependent behaviours
        ride in the spec's ``overrides``, and building the spec enforces
        the ``≤ t`` corruption budget: a scenario cannot claim a
        resilience its faulty set exceeds.
    :ivar expects_discovery: whether, per the paper's theorems, at least
        one correct node must discover a failure in the FD run (scenarios
        that merely corrupt the *directories* without touching the FD run
        may legitimately complete undiscovered — the corruption only
        matters once a corrupted key signs something).
    :ivar description: what the scenario exercises.
    """

    name: str
    faulty: set[NodeId]
    kd_adversaries: Callable[[], dict[NodeId, Protocol]]
    adversary: Callable[
        [dict[NodeId, KeyPair], dict[NodeId, KeyDirectory]], AdversarySpec
    ]
    expects_discovery: bool = True
    description: str = ""


def _shared_key_chain_scenario(n: int, t: int) -> AttackScenario:
    """Faulty pair shares a key; the in-chain one signs with it.

    Receivers assign the signature to *both* sharers — consistently, which
    is why the paper notes key sharing does not break G3 and why this run
    legitimately completes without discovery."""
    coordination = AdversaryCoordination()
    a, b = t, n - 1  # one in the chain, one receiver

    def kd() -> dict[NodeId, Protocol]:
        return {
            a: SharedKeyAttack(coordination, "shared"),
            b: SharedKeyAttack(coordination, "shared"),
        }

    def fd(keypairs, directories) -> AdversarySpec:
        shared = coordination.known_keypairs()["shared"]
        return AdversarySpec(
            overrides={a: ImpersonatingChainNode(n, t, shared), b: SilentProtocol()},
            t=t,
        )

    return AttackScenario(
        name="shared-key-chain",
        faulty={a, b},
        kd_adversaries=kd,
        adversary=fd,
        # Key sharing is the benign case of the paper's G3 discussion:
        # "still all correct recipients of the signed message assign it to
        # the same node" — every correct node makes the same
        # multi-assignment, the chain verifies everywhere, and F1-F3 hold
        # without any discovery being necessary.
        expects_discovery=False,
        description=(
            "two faulty nodes register one key (paper G3 discussion); the "
            "in-chain one extends the chain with it — consistent "
            "multi-assignment, legitimately undiscovered"
        ),
    )


def _cross_claim_scenario(n: int, t: int) -> AttackScenario:
    """The paper's mixed-manner distribution: two faulty nodes cross-claim
    two keys so correct observers assign signatures to different nodes;
    one of them then signs inside the chain."""
    coordination = AdversaryCoordination()
    a, b = t, n - 1
    group_one = {node for node in range(n) if node % 2 == 0 and node not in (a, b)}

    def kd() -> dict[NodeId, Protocol]:
        return {
            a: CrossClaimAttack(coordination, group_one, "x", "y"),
            b: CrossClaimAttack(coordination, group_one, "y", "x"),
        }

    def fd(keypairs, directories) -> AdversarySpec:
        key_x = coordination.known_keypairs()["x"]
        return AdversarySpec(
            overrides={a: ImpersonatingChainNode(n, t, key_x), b: SilentProtocol()},
            t=t,
        )

    return AttackScenario(
        name="cross-claim-chain",
        faulty={a, b},
        kd_adversaries=kd,
        adversary=fd,
        expects_discovery=True,
        description=(
            "cooperating faulty nodes distribute predicates in a mixed "
            "manner (paper section 3.2) and then sign in the chain — the "
            "Theorem 4 situation"
        ),
    )


def _mixed_predicate_scenario(n: int, t: int) -> AttackScenario:
    """A single faulty chain node gives different predicates to different
    correct nodes, creating assignment classes, then signs in the chain:
    the class that cannot assign must discover."""
    coordination = AdversaryCoordination()
    a = t
    group_one = {node for node in range(n) if node % 2 == 1 and node != a}

    def kd() -> dict[NodeId, Protocol]:
        return {a: MixedPredicateAttack(coordination, group_one, "p", "q")}

    def fd(keypairs, directories) -> AdversarySpec:
        key_p = coordination.known_keypairs()["p"]
        return AdversarySpec(
            overrides={a: ImpersonatingChainNode(n, t, key_p)}, t=t
        )

    return AttackScenario(
        name="mixed-predicate-chain",
        faulty={a},
        kd_adversaries=kd,
        adversary=fd,
        expects_discovery=True,
        description=(
            "faulty node distributes different test predicates to correct "
            "node classes (paper section 3.2), then signs in the chain"
        ),
    )


def _withholding_scenario(n: int, t: int) -> AttackScenario:
    def fd(keypairs, directories) -> AdversarySpec:
        node = withholding_chain_node(
            n, t, keypairs[1], directories[1], withhold_from={2}
        )
        return AdversarySpec(overrides={1: node}, t=t)

    return AttackScenario(
        name="withholding-chain-node",
        faulty={1},
        kd_adversaries=dict,
        adversary=fd,
        expects_discovery=True,
        description="chain node drops the chain message to its successor",
    )


def _garbling_scenario(n: int, t: int) -> AttackScenario:
    def fd(keypairs, directories) -> AdversarySpec:
        node = garbling_chain_node(n, t, keypairs[1], directories[1])
        return AdversarySpec(overrides={1: node}, t=t)

    return AttackScenario(
        name="garbling-chain-node",
        faulty={1},
        kd_adversaries=dict,
        adversary=fd,
        expects_discovery=True,
        description="chain node forwards the chain with a corrupted signature",
    )


def _fabricating_scenario(n: int, t: int) -> AttackScenario:
    def fd(keypairs, directories) -> AdversarySpec:
        node = FabricatingChainNode(n, t, keypairs[1], "forged-value")
        return AdversarySpec(overrides={1: node}, t=t)

    return AttackScenario(
        name="fabricating-chain-node",
        faulty={1},
        kd_adversaries=dict,
        adversary=fd,
        expects_discovery=True,
        description=(
            "chain node discards the chain and restarts it from its own "
            "leaf with a substituted value"
        ),
    )


def _crash_scenario(n: int, t: int) -> AttackScenario:
    def fd(keypairs, directories) -> AdversarySpec:
        return AdversarySpec(overrides={1: SilentProtocol()}, t=t)

    return AttackScenario(
        name="crashed-chain-node",
        faulty={1},
        kd_adversaries=dict,
        adversary=fd,
        expects_discovery=True,
        description="chain node crashed before the run",
    )


def attack_catalogue(n: int, t: int) -> list[AttackScenario]:
    """All E6 scenarios instantiated for the given network shape.

    Requires ``t >= 1`` (the attacks place a faulty node inside the chain)
    and ``n >= t + 3`` (at least two receivers).
    """
    if t < 1 or n < t + 3:
        raise ConfigurationError(
            f"attack catalogue needs t >= 1 and n >= t+3, got n={n}, t={t}"
        )
    return [
        _withholding_scenario(n, t),
        _garbling_scenario(n, t),
        _fabricating_scenario(n, t),
        _crash_scenario(n, t),
        _shared_key_chain_scenario(n, t),
        _cross_claim_scenario(n, t),
        _mixed_predicate_scenario(n, t),
    ]
