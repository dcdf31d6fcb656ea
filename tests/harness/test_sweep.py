"""Sweep utilities: grids, ordering, standard sizes, lazy pool import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.harness import grid, sizes_with_budgets, standard_sizes, sweep


class TestGrid:
    def test_cartesian_product_in_order(self):
        points = grid(n=[4, 8], seed=[0, 1])
        assert points == [
            {"n": 4, "seed": 0},
            {"n": 4, "seed": 1},
            {"n": 8, "seed": 0},
            {"n": 8, "seed": 1},
        ]

    def test_single_axis(self):
        assert grid(x=[1]) == [{"x": 1}]

    def test_empty_axis_empties_grid(self):
        assert grid(x=[], y=[1, 2]) == []


class TestSweep:
    def test_applies_function_and_keeps_params(self):
        points = sweep(grid(a=[1, 2], b=[10]), lambda a, b: a + b)
        assert [(p.params, p.result) for p in points] == [
            ({"a": 1, "b": 10}, 11),
            ({"a": 2, "b": 10}, 12),
        ]

    def test_importing_the_harness_loads_no_process_pool(self):
        """A serial sweep needs no pool, so ``import repro.harness`` leaves
        ``concurrent.futures`` (and multiprocessing with it) unloaded."""
        code = (
            "import sys\n"
            "import repro.harness\n"
            "assert 'concurrent.futures' not in sys.modules, 'pool imported eagerly'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestStandardSizes:
    def test_small_is_prefix_of_full(self):
        small, full = standard_sizes(small=True), standard_sizes()
        assert small == full[: len(small)]

    def test_budgets(self):
        pairs = sizes_with_budgets([4, 10, 16])
        assert pairs == [(4, 1), (10, 3), (16, 5)]
