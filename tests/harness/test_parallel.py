"""The sweep executor pooled: determinism, ordering, pickling errors, registry.

Every pooled sweep here is checked against the same sweep at
``workers=1``, the serial path."""

from __future__ import annotations

import json
import pickle
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.harness import grid, set_default_workers, sweep
from repro.harness.workloads import fd_point, keydist_point, oral_point


def _square(x, seed):
    """Module-level (picklable) point function."""
    return {"value": x * x, "seed": seed}


def _adversary_point(x, seed, adversary):
    """Module-level point function taking an adversary spec param."""
    return adversary.delivery


class TestPooledSweepContract:
    def test_identical_to_serial_for_fixed_seed_grid(self):
        points = grid(x=[1, 2, 3, 4], seed=[0, 7])
        serial = sweep(points, _square, workers=1)
        parallel = sweep(points, _square, workers=3)
        assert serial == parallel

    def test_results_byte_identical_to_serial(self):
        """The determinism contract, at full strength: the canonical
        serialization of every point matches byte for byte.  (Raw pickles
        of the whole list are not compared — pickle encodes object-sharing
        topology, which a worker round-trip legitimately changes without
        changing any value.)"""
        points = grid(n=[4, 8], seed=[0, 1])
        serial = sweep(points, keydist_point, workers=1)
        parallel = sweep(points, keydist_point, workers=2)
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
        assert sweep(points, fd_point, workers=1) == sweep(points, fd_point, workers=2)

    def test_oral_points_identical(self):
        points = [{"n": 7, "t": 2, "seed": s} for s in (0, 1)]
        assert sweep(points, oral_point, workers=1) == sweep(
            points, oral_point, workers=2
        )

    def test_preserves_point_order(self):
        points = [{"x": x, "seed": 0} for x in range(8)]
        results = sweep(points, _square, workers=4)
        assert [p.params["x"] for p in results] == list(range(8))
        assert [p.result["value"] for p in results] == [x * x for x in range(8)]


class TestRegistryDispatch:
    def test_sweep_by_name_matches_sweep_by_function(self):
        points = grid(n=[4, 8], seed=[0])
        assert sweep(points, "keydist") == sweep(points, keydist_point)

    def test_parallel_by_name_matches_serial(self):
        points = grid(n=[4, 8], seed=[0, 1])
        assert sweep(points, "keydist", workers=2) == sweep(
            points, keydist_point, workers=1
        )

    def test_name_dispatch_never_warns_or_degrades(self):
        """A registered name is always picklable: no fallback warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = sweep(
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
            sweep(
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
            sweep(points, _adversary_point, workers=2)

    def test_picklable_adversary_specs_do_not_degrade(self):
        from repro.faults import make_adversary

        spec = make_adversary("1=silent;delivery=loss:0.2", t=1)
        points = [{"x": 1, "seed": 0, "adversary": spec}]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = sweep(points, _adversary_point, workers=2)
        assert results[0].result == spec.delivery

    @pytest.mark.parametrize(
        "workers,count", [(1, 2), (4, 1)], ids=["one-worker", "one-point"]
    )
    def test_one_worker_or_point_runs_in_process(self, workers, count):
        """The pool starts only for more than one worker *and* point:
        otherwise even an unpicklable closure runs, in this process."""
        captured = []

        def closure(x, seed):
            captured.append(x)
            return x + seed

        points = [{"x": x, "seed": 2} for x in range(count)]
        results = sweep(points, closure, workers=workers)
        assert [p.result for p in results] == [x + 2 for x in range(count)]
        assert captured == list(range(count))

    def test_empty_points(self):
        assert sweep([], _square, workers=4) == []


class TestDefaultWorkers:
    @pytest.fixture()
    def two_workers(self):
        set_default_workers(2)
        yield
        set_default_workers(1)

    def test_configurable(self, two_workers):
        points = grid(x=[1, 2], seed=[0])
        assert sweep(points, _square) == sweep(points, _square, workers=1)

    def test_sweep_follows_the_configured_default(self, two_workers):
        """Without ``workers=``, ``sweep`` pools as configured: a lambda
        then meets the pool's pickling error instead of running."""
        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            sweep([{"x": 1}, {"x": 2}], lambda x: x)

    def test_explicit_workers_override_the_default(self, two_workers):
        results = sweep([{"x": 1}, {"x": 2}], lambda x: -x, workers=1)
        assert [p.result for p in results] == [-1, -2]
