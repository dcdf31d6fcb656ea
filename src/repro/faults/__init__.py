"""Byzantine fault library: the adversary plane, generic behaviours and
targeted attacks.

* :mod:`repro.faults.adversary` — the declarative adversary plane:
  :class:`AdversarySpec` names which nodes are corrupt, how each
  misbehaves, which delivery power the run grants, and (optionally) an
  *adaptive* strategy committing corruptions online, with the paper's
  ``≤ t`` budget enforced at construction (static) and commitment time
  (adaptive);
* :mod:`repro.faults.behaviors` — crash (with recovery), silence, drop,
  tamper, scripted, plus the loss-/partition-exploiting ``ack-lie`` and
  ``equivocate`` lies of experiment E14;
* :mod:`repro.faults.keyattacks` — the key-distribution attacks of the
  paper's section 3.2 (key sharing, cross claiming, mixed predicates);
* :mod:`repro.faults.fdattacks` — attacks on the Failure Discovery
  protocols (equivocation, fabrication, impersonation, withholding,
  garbling).

Attacks that only tests deploy (a delayed or duplicating chain node, a
foreign-predicate claim, a signature forger) live in ``tests/_attacks.py``.
"""

from .adversary import (
    ADAPTIVE_STRATEGIES,
    BEHAVIOR_GRAMMAR,
    BEHAVIOR_KINDS,
    PARSEABLE_KINDS,
    AdaptiveCoordinator,
    AdaptiveCorruptible,
    AdversaryObservation,
    AdversarySpec,
    Behavior,
    behavior_grammar_help,
    build_behavior,
    make_adversary,
    parse_behavior,
    register_adaptive_strategy,
)
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
from .fdattacks import (
    EquivocatingSender,
    FabricatingChainNode,
    ImpersonatingChainNode,
    garbling_chain_node,
    withholding_chain_node,
)
from .keyattacks import (
    AdversaryCoordination,
    CrossClaimAttack,
    MixedPredicateAttack,
    SharedKeyAttack,
)

__all__ = [
    "ADAPTIVE_STRATEGIES",
    "AckLieProtocol",
    "AdaptiveCoordinator",
    "AdaptiveCorruptible",
    "AdversaryCoordination",
    "AdversaryObservation",
    "AdversarySpec",
    "BEHAVIOR_GRAMMAR",
    "BEHAVIOR_KINDS",
    "Behavior",
    "CrashProtocol",
    "EquivocatingProtocol",
    "CrossClaimAttack",
    "EquivocatingSender",
    "FabricatingChainNode",
    "ImpersonatingChainNode",
    "MixedPredicateAttack",
    "PARSEABLE_KINDS",
    "RandomNoiseProtocol",
    "RushMirrorProtocol",
    "ScriptedProtocol",
    "SharedKeyAttack",
    "SilentProtocol",
    "TamperingProtocol",
    "behavior_grammar_help",
    "build_behavior",
    "garbling_chain_node",
    "make_adversary",
    "parse_behavior",
    "register_adaptive_strategy",
    "withholding_chain_node",
]
