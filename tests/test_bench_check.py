"""``scripts/bench_check.py`` is a read-only gate unless told otherwise.

The ledger itself is replaced by canned sections: what is under test is
what the gate does with a difference, and to the baseline *file*, not the
measurements.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from functools import partial
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_check.py"


def section(small, **points):
    """A ledger section holding ``points`` (name -> messages count)."""
    return {
        "schema": 1,
        "small": small,
        "python": "0.0.0",
        "experiments": {
            name: {"counts": {"messages": messages}} for name, messages in points.items()
        },
    }


CANNED = {
    "small": section(True, point=3, other=5),
    "full": section(False, point=7, grid=9),
    "memory": {"probe": 100},
}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_check_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def bench_check(monkeypatch, tmp_path):
    """The script as a module, measuring :data:`CANNED` instantly, its
    default paths under ``tmp_path``."""
    module = load_script()
    monkeypatch.setattr(
        module.regress,
        "run_suite",
        lambda small: copy.deepcopy(CANNED["small" if small else "full"]),
    )
    monkeypatch.setattr(module, "measure_memory", lambda: dict(CANNED["memory"]))
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    return module


@pytest.fixture()
def baseline(tmp_path):
    """A committed baseline whose bytes no rewrite would reproduce."""
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps({**CANNED, "note": "hand-written"}))
    return path


def rewrite(baseline, edit):
    """Apply ``edit`` to the baseline's document; return the new bytes."""
    document = json.loads(baseline.read_text())
    edit(document)
    baseline.write_text(json.dumps(document))
    return baseline.read_bytes()


def test_default_run_leaves_the_baseline_bytes_untouched(bench_check, baseline):
    before = baseline.read_bytes()
    assert bench_check.main(["--out", str(baseline)]) == 0
    assert baseline.read_bytes() == before


def test_quick_run_leaves_the_baseline_bytes_untouched(bench_check, baseline, tmp_path):
    before = baseline.read_bytes()
    fresh = tmp_path / "fresh.json"
    assert bench_check.main(["--quick", "--out", str(baseline), "--quick-out", str(fresh)]) == 0
    assert baseline.read_bytes() == before
    assert json.loads(fresh.read_text()) == {"small": CANNED["small"]}


def test_refresh_rewrites_on_green_and_keeps_other_sections(bench_check, baseline):
    """Green against a baseline that lacks a point and a probe the run
    has: the refresh rewrites all three sections from the run and keeps
    what it does not own."""

    def drop(document):
        del document["small"]["experiments"]["other"]
        del document["memory"]["probe"]

    before = rewrite(baseline, drop)
    assert bench_check.main(["--out", str(baseline), "--refresh"]) == 0
    assert baseline.read_bytes() != before
    assert json.loads(baseline.read_text()) == {**CANNED, "note": "hand-written"}


def test_refresh_from_a_quick_run_is_refused(bench_check, baseline):
    before = baseline.read_bytes()
    with pytest.raises(SystemExit):
        bench_check.main(["--quick", "--refresh", "--out", str(baseline)])
    assert baseline.read_bytes() == before


def move_a_count(document):
    document["small"]["experiments"]["point"]["counts"]["messages"] = 4


@pytest.mark.parametrize("args", [[], ["--quick"]], ids=["whole", "quick"])
def test_a_changed_count_fails_the_gate(bench_check, baseline, args, capsys):
    rewrite(baseline, move_a_count)
    assert bench_check.main(["--out", str(baseline)] + args) == 1
    assert "point: COUNTS CHANGED" in capsys.readouterr().err


def test_refresh_is_refused_on_a_red_gate(bench_check, baseline):
    before = rewrite(baseline, move_a_count)
    assert bench_check.main(["--out", str(baseline), "--refresh"]) == 1
    assert baseline.read_bytes() == before


@pytest.mark.parametrize(
    "where,args",
    [("small", []), ("small", ["--quick"]), ("full", ["--refresh"]), ("memory", [])],
    ids=lambda value: value if isinstance(value, str) else "".join(value) or "gate",
)
def test_a_vanished_point_fails_the_gate_by_name(bench_check, baseline, where, args, capsys):
    """A baseline name the fresh run of the same section no longer
    produces — renamed, deleted or skipped — is a failure that names it,
    and not even ``--refresh`` drops it from the file."""

    def add(document):
        entries = document[where] if where == "memory" else document[where]["experiments"]
        entries["renamed_away"] = copy.deepcopy(next(iter(entries.values())))

    before = rewrite(baseline, add)
    assert bench_check.main(["--out", str(baseline)] + args) == 1
    assert baseline.read_bytes() == before
    assert "renamed_away: MISSING" in capsys.readouterr().err


def test_a_full_section_point_is_not_missing_from_a_quick_run(bench_check, baseline):
    """``--quick`` gates the section it ran, not the ones it skipped."""
    assert "grid" not in CANNED["small"]["experiments"]
    assert bench_check.main(["--quick", "--out", str(baseline)]) == 0


def test_a_memory_probe_past_its_threshold_fails_the_gate(bench_check, baseline):
    before = rewrite(baseline, lambda document: document["memory"].update(probe=50))
    assert bench_check.main(["--out", str(baseline), "--refresh"]) == 1
    assert baseline.read_bytes() == before


def test_a_memory_probe_does_not_see_what_an_earlier_probe_left(monkeypatch):
    """A probe run leaves process-global state behind (memos, lazily
    imported modules); the same point probed again must read the same
    peak, not one lowered by what the first probe cached."""
    from repro.harness.workloads import akd_point

    module = load_script()
    probe = partial(akd_point, 8, 1, seed=1)
    monkeypatch.setattr(module, "memory_probes", lambda: {"first": probe, "again": probe})
    peaks = module.measure_memory()
    assert peaks["first"] == peaks["again"] > 0
