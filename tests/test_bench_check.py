"""``scripts/bench_check.py`` is a read-only gate unless told otherwise.

The suite itself is replaced by a canned report: what is under test is
what the gate does to the baseline *file*, not the measurements.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_check.py"

CANNED = {
    "schema": 1,
    "small": True,
    "repeats": 1,
    "python": "0.0.0",
    "experiments": {"point": {"seconds": 0.5, "counts": {"messages": 3}}},
}


@pytest.fixture()
def bench_check(monkeypatch):
    """The script as a module, measuring :data:`CANNED` instantly."""
    spec = importlib.util.spec_from_file_location("bench_check_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(
        module.regress, "run_suite", lambda small, repeats: copy.deepcopy(CANNED)
    )
    return module


@pytest.fixture()
def baseline(tmp_path):
    """A committed baseline whose bytes no rewrite would reproduce."""
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps({"small": CANNED, "note": "hand-written"}))
    return path


def test_default_run_leaves_the_baseline_bytes_untouched(bench_check, baseline):
    before = baseline.read_bytes()
    assert bench_check.main(["--out", str(baseline)]) == 0
    assert baseline.read_bytes() == before


def test_quick_run_leaves_the_baseline_bytes_untouched(bench_check, baseline, tmp_path):
    before = baseline.read_bytes()
    fresh = tmp_path / "fresh.json"
    assert bench_check.main(["--quick", "--out", str(baseline), "--quick-out", str(fresh)]) == 0
    assert baseline.read_bytes() == before
    assert json.loads(fresh.read_text())["small"] == CANNED


def test_refresh_rewrites_on_green_and_keeps_other_sections(bench_check, baseline):
    before = baseline.read_bytes()
    assert bench_check.main(["--out", str(baseline), "--refresh"]) == 0
    assert baseline.read_bytes() != before
    assert json.loads(baseline.read_text()) == {"small": CANNED, "note": "hand-written"}


def test_refresh_is_refused_on_a_red_gate(bench_check, baseline):
    moved = copy.deepcopy(CANNED)
    moved["experiments"]["point"]["counts"]["messages"] = 4
    baseline.write_text(json.dumps({"small": moved}))
    before = baseline.read_bytes()
    assert bench_check.main(["--out", str(baseline), "--refresh"]) == 1
    assert baseline.read_bytes() == before
