"""The counts ledger's rows, checked without running them.

``benchmarks/regress.py`` names every ``BENCH_9.json`` point as a row of
(workload, parameter points) over the workload registry.  A renamed
workload, a renamed parameter or a dropped point fails here in
milliseconds rather than in the whole-ledger run of
``scripts/bench_check.py``.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from repro.harness import get_workload

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def regress():
    """The ledger module exactly as the gate imports it."""
    spec = importlib.util.spec_from_file_location(
        "bench_check_rows", ROOT / "scripts" / "bench_check.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate.regress


@pytest.mark.parametrize("section", ["small", "full"])
def test_row_names_are_the_baseline_points(regress, section):
    names = [row.name for row in regress.rows(section == "small")]
    baseline = json.loads((ROOT / "BENCH_9.json").read_text())[section]["experiments"]
    assert len(names) == len(set(names))
    assert set(names) == set(baseline)


@pytest.mark.parametrize("section", ["small", "full"])
def test_every_point_binds_to_its_workload(regress, section):
    for row in regress.rows(section == "small"):
        signature = inspect.signature(get_workload(row.workload))
        for params in row.points:
            try:
                signature.bind(**params)
            except TypeError as exc:
                pytest.fail(f"{row.name}: {row.workload}{signature} rejects {params}: {exc}")
