"""Tier-1 smoke test of the end-to-end benchmark (tiny scale, in-process).

Keeps three things from drifting apart silently: ``BENCHMARK.json`` (what
the driver is promised), the tables in :mod:`e2e.trace` / :mod:`e2e.run`
(what is measured), and the names in ``src/`` the trace wraps.  A rename
in ``src/`` must break this test, not the numbers.
"""

from __future__ import annotations

import argparse
import json
import re

import pytest

from e2e import run, trace
from e2e.workloads import WORKLOADS

MANIFEST = json.loads(run.MANIFEST.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [workload.name for workload in WORKLOADS]
TINY = argparse.Namespace(scale="tiny", seed=0, seconds=0.0)


def test_manifest_has_exactly_the_contract_keys():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= MANIFEST["run_seconds"] <= 60


def test_manifest_names_units_and_limits():
    workloads, end_to_end, per_layer = (
        MANIFEST[key] for key in ("workloads", "end_to_end", "per_layer")
    )
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [entry["name"] for entry in workloads + end_to_end + per_layer]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in end_to_end:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in per_layer:
        assert set(entry) == {"name", "unit", "better"}
    for entry in end_to_end + per_layer:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(entry for entry in end_to_end if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in end_to_end)


def test_manifest_repeats_the_benchmarks_own_tables():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS
    ]
    assert {e["name"]: e["unit"] for e in MANIFEST["end_to_end"]} == run.END_TO_END
    assert {e["name"]: (e["unit"], e["better"]) for e in MANIFEST["per_layer"]} == trace.PER_LAYER


def test_every_layer_names_what_it_should_move():
    layers = {layer.name for layer in trace.LAYERS}
    for layer in trace.LAYERS:
        assert layer.moves, f"{layer.name} predicts nothing"
        for metric, workload in layer.moves:
            assert metric in run.END_TO_END
            assert workload in WORKLOAD_NAMES
    # Every per-layer metric belongs to a layer with a prediction (or is
    # the trace's own bookkeeping).
    for metric in trace.PER_LAYER:
        assert any(metric.startswith(f"{name}.") for name in layers | {"trace"}), metric
    for metric, workloads in trace.ZERO_ON.items():
        assert metric in trace.PER_LAYER
        assert set(workloads) <= set(WORKLOAD_NAMES)


def test_every_wrapped_entry_point_still_resolves():
    for layer in trace.LAYERS:
        for entry in layer.entry_points:
            owner, attr, function = trace.resolve(entry)
            assert callable(function), entry
            assert getattr(owner, attr) is function, f"{entry} is still patched"
    assert trace.WHOLE_SPANS <= {e for layer in trace.LAYERS for e in layer.entry_points}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_workload_prints_exactly_the_declared_metrics(name, capsys):
    end_to_end = run.measure(name, TINY, traced=False)
    per_layer = run.measure(name, TINY, traced=True)
    for result in (end_to_end, per_layer):
        assert result["failures"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert per_layer["metrics"]["sim.multiplex.engine_fallbacks"] == 0
    assert per_layer["detail"]["prediction_misses"] == []

    for result, traced, declared in (
        (end_to_end, False, MANIFEST["end_to_end"]),
        (per_layer, True, MANIFEST["per_layer"]),
    ):
        line = json.loads(run.contract_line(result, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            entry["name"]: entry["unit"] for entry in declared
        }

    run.print_end_to_end(name, end_to_end)
    run.print_per_layer(name, per_layer)
    printed = capsys.readouterr().out
    for metric in [*run.END_TO_END, "failed_ops_share", *trace.PER_LAYER]:
        assert re.search(rf"^  {re.escape(metric)} ", printed, re.MULTILINE), metric
