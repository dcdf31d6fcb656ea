"""scripts/reach_check.py: the allowlist and the diff, without a probe run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach_check.py"


@pytest.fixture(scope="module")
def reach_check():
    spec = importlib.util.spec_from_file_location("reach_check_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def defs(reach_check):
    return reach_check.inventory()


def test_every_allowed_key_names_a_def_and_gives_a_reason(reach_check, defs):
    keys = {d.key for d in defs.values()}
    for key, reason in reach_check.ALLOWED.items():
        assert key in keys, key
        assert reason.strip(), key


def test_inventory_keys_are_unique(defs):
    keys = [d.key for d in defs.values()]
    assert len(keys) == len(set(keys))


def test_diff_names_the_one_unreached_def(reach_check, defs):
    allowed = reach_check.ALLOWED
    reached = {ref for ref, d in defs.items() if d.key not in allowed}
    assert reach_check.problems(defs, reached) == []
    missing = min(reached, key=lambda ref: defs[ref].key)
    failures = reach_check.problems(defs, reached - {missing})
    assert len(failures) == 1
    assert defs[missing].key in failures[0] and defs[missing].path in failures[0]


def test_diff_fails_on_a_stale_allowlist_entry(reach_check, defs):
    allowed = dict(reach_check.ALLOWED, **{"repro.nowhere:gone": "deleted"})
    reached = {ref for ref, d in defs.items() if d.key not in allowed}
    assert reach_check.problems(defs, reached, allowed) == [
        "stale ALLOWED entry, names no def: repro.nowhere:gone"
    ]
    ref, d = next((ref, d) for ref, d in defs.items() if d.key in allowed)
    assert set(reach_check.problems(defs, reached | {ref}, allowed)) == {
        "stale ALLOWED entry, names no def: repro.nowhere:gone",
        f"stale ALLOWED entry, reached: {d.key}",
    }
