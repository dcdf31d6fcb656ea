"""The FD→BA extension against the full attack catalogue.

The extension's guarantee is *Byzantine Agreement* — stronger than F1-F3:
whatever the catalogue throws at the chain phase, all correct nodes must
end up with one common decision, and with the sender's value when the
sender is correct.  These runs exercise the alarm flood and SM fallback
under every scenario, under global authentication (the setting in which
the Hadzilacos-Halpern extension is stated).
"""

from __future__ import annotations

import pytest

from repro.agreement import OUTPUT_PATH, evaluate_ba, make_extended_protocols
from repro.auth import trusted_dealer_setup
from repro.harness import attack_catalogue
from repro.sim import run_protocols

N, T = 8, 2

# Scenarios whose kd phase corrupts directories need local auth and are
# not part of the extension's stated setting; keep the FD-phase-only ones.
FD_ONLY = [s for s in attack_catalogue(N, T) if not s.kd_adversaries()]


@pytest.fixture(scope="module")
def world():
    return trusted_dealer_setup(N, seed="ext-attacks")


@pytest.mark.parametrize("scenario", FD_ONLY, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 7])
def test_extension_reaches_ba_under_attack(world, scenario, seed):
    keypairs, directories = world
    adversaries = dict(scenario.adversary(keypairs, directories).overrides)
    protocols = make_extended_protocols(
        N, T, "the-value", keypairs, directories, adversaries=adversaries
    )
    result = run_protocols(protocols, seed=seed)
    correct = set(range(N)) - scenario.faulty
    evaluation = evaluate_ba(result, correct, 0, "the-value")
    assert evaluation.ok, f"{scenario.name}: {evaluation.detail}"


@pytest.mark.parametrize("scenario", FD_ONLY, ids=lambda s: s.name)
def test_correct_nodes_never_split_paths(world, scenario):
    """The Dolev-Strong all-or-none property under every attack."""
    keypairs, directories = world
    adversaries = dict(scenario.adversary(keypairs, directories).overrides)
    protocols = make_extended_protocols(
        N, T, "v", keypairs, directories, adversaries=adversaries
    )
    result = run_protocols(protocols, seed=3)
    paths = {
        state.outputs[OUTPUT_PATH]
        for state in result.states
        if state.node not in scenario.faulty and OUTPUT_PATH in state.outputs
    }
    assert len(paths) == 1, f"{scenario.name}: mixed paths {paths}"


@pytest.mark.parametrize("scenario", FD_ONLY, ids=lambda s: s.name)
def test_discovering_scenarios_fall_back(world, scenario):
    """Whenever the chain phase would discover, the extension must route
    everyone into the fallback (discoveries become alarms, not ends)."""
    if not scenario.expects_discovery:
        pytest.skip("scenario completes cleanly; fd path expected")
    keypairs, directories = world
    adversaries = dict(scenario.adversary(keypairs, directories).overrides)
    protocols = make_extended_protocols(
        N, T, "v", keypairs, directories, adversaries=adversaries
    )
    result = run_protocols(protocols, seed=5)
    paths = {
        state.outputs[OUTPUT_PATH]
        for state in result.states
        if state.node not in scenario.faulty and OUTPUT_PATH in state.outputs
    }
    assert paths == {"fallback"}, scenario.name
