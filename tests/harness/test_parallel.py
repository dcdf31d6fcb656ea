"""Parallel sweep executor: determinism, ordering, pickling errors, registry."""

from __future__ import annotations

import json
import pickle
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    default_workers,
    grid,
    set_default_workers,
    sweep,
    sweep_parallel,
)
from repro.harness.workloads import fd_point, keydist_point, oral_point


def _square(x, seed):
    """Module-level (picklable) point function."""
    return {"value": x * x, "seed": seed}


def _adversary_point(x, seed, adversary):
    """Module-level point function taking an adversary spec param."""
    return adversary.delivery


class TestSweepParallelContract:
    def test_identical_to_serial_for_fixed_seed_grid(self):
        points = grid(x=[1, 2, 3, 4], seed=[0, 7])
        serial = sweep(points, _square)
        parallel = sweep_parallel(points, _square, workers=3)
        assert serial == parallel

    def test_results_byte_identical_to_serial(self):
        """The determinism contract, at full strength: the canonical
        serialization of every point matches byte for byte.  (Raw pickles
        of the whole list are not compared — pickle encodes object-sharing
        topology, which a worker round-trip legitimately changes without
        changing any value.)"""
        points = grid(n=[4, 8], seed=[0, 1])
        serial = sweep(points, keydist_point)
        parallel = sweep_parallel(points, keydist_point, workers=2)
        assert serial == parallel

        def canonical(sweep_points):
            return json.dumps(
                [[p.params, p.result] for p in sweep_points], sort_keys=True
            ).encode()

        assert canonical(serial) == canonical(parallel)

    def test_scenario_points_identical(self):
        points = [
            {"n": n, "t": (n - 1) // 3, "seed": n, "protocol": "chain"}
            for n in (4, 8)
        ]
        assert sweep(points, fd_point) == sweep_parallel(points, fd_point, workers=2)

    def test_oral_points_identical(self):
        points = [{"n": 7, "t": 2, "seed": s} for s in (0, 1)]
        assert sweep(points, oral_point) == sweep_parallel(
            points, oral_point, workers=2
        )

    def test_preserves_point_order(self):
        points = [{"x": x, "seed": 0} for x in range(8)]
        results = sweep_parallel(points, _square, workers=4)
        assert [p.params["x"] for p in results] == list(range(8))
        assert [p.result["value"] for p in results] == [x * x for x in range(8)]


class TestRegistryDispatch:
    def test_sweep_by_name_matches_sweep_by_function(self):
        points = grid(n=[4, 8], seed=[0])
        assert sweep(points, "keydist") == sweep(points, keydist_point)

    def test_parallel_by_name_matches_serial(self):
        points = grid(n=[4, 8], seed=[0, 1])
        assert sweep_parallel(points, "keydist", workers=2) == sweep(
            points, keydist_point
        )

    def test_name_dispatch_never_warns_or_degrades(self):
        """A registered name is always picklable: no fallback warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = sweep_parallel(
                [{"n": 4, "seed": 0}, {"n": 4, "seed": 1}], "keydist", workers=2
            )
        assert [p.result["n"] for p in results] == [4, 4]

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            sweep([{"n": 4, "seed": 0}], "no-such-workload")


class TestFallbacks:
    @pytest.mark.parametrize("workers", [2, 4], ids=lambda w: f"workers={w}")
    def test_unpicklable_fn_raises_and_runs_nothing(self, workers):
        """A closure cannot cross the process boundary: the pool's
        pickling error propagates, and no job runs in this process
        instead."""
        captured = []

        def closure(x, seed):  # closes over `captured`: not picklable
            captured.append(x)
            return x + seed

        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            sweep_parallel(
                [{"x": 1, "seed": 2}, {"x": 2, "seed": 2}], closure, workers=workers
            )
        assert captured == []

    def test_unpicklable_param_raises(self):
        """A sweep whose *adversary parameter* (not its workload
        callable) cannot cross the process boundary raises that value's
        pickling error."""
        from repro.faults import AdversarySpec, SilentProtocol

        class Unpicklable(SilentProtocol):
            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        spec = AdversarySpec(overrides=((1, Unpicklable()),), t=1)

        points = [
            {"x": 1, "seed": 0, "adversary": spec},
            {"x": 2, "seed": 0, "adversary": spec},
        ]
        with pytest.raises(TypeError, match="deliberately unpicklable"):
            sweep_parallel(points, _adversary_point, workers=2)

    def test_picklable_adversary_specs_do_not_degrade(self):
        from repro.faults import make_adversary

        spec = make_adversary("1=silent;delivery=loss:0.2", t=1)
        points = [{"x": 1, "seed": 0, "adversary": spec}]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = sweep_parallel(points, _adversary_point, workers=2)
        assert results[0].result == spec.delivery

    def test_single_worker_is_serial(self):
        assert sweep_parallel([{"x": 2, "seed": 0}], _square, workers=1) == sweep(
            [{"x": 2, "seed": 0}], _square
        )

    def test_empty_points(self):
        assert sweep_parallel([], _square, workers=4) == []


class TestDefaultWorkers:
    def test_configurable(self):
        previous = default_workers()
        try:
            set_default_workers(2)
            assert default_workers() == 2
            points = grid(x=[1, 2], seed=[0])
            assert sweep_parallel(points, _square) == sweep(points, _square)
        finally:
            set_default_workers(previous)
