"""The workload registry: every benchmark sweep as a named point function."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    available_workloads,
    get_workload,
    resolve_workload,
    workload_deliveries,
    workload_suite,
)
from repro.harness.workloads import WORKLOADS

#: The registry contract the benchmark suites rely on: one name per
#: E1-E11 sweep family (E1/E2/E3 share "fd"/"keydist"; E8 is the round
#: table; the rest are experiment-specific).
EXPECTED = {
    "akd",
    "akd-shard",
    "ba",
    "e10-scheme",
    "e10-walltime",
    "e11-feasibility",
    "e11-methods",
    "e4-crossover",
    "e5-binary",
    "e5-optimistic",
    "e6-scenario",
    "e7-ba-compare",
    "e7-fallback",
    "e8-rounds",
    "e9-chain-bytes",
    "e9-compression",
    "e12-ba",
    "e12-fd",
    "e12-oral",
    "e13-loss",
    "e13-partition",
    "e13-timeout-fd",
    "e14-adaptive",
    "e14-equivocation",
    "fd",
    "keydist",
    "oral",
}


class TestRegistry:
    def test_expected_names_registered(self):
        assert set(available_workloads()) == EXPECTED

    def test_every_workload_is_picklable(self):
        """The property that makes registry sweeps parallelizable."""
        for name in available_workloads():
            fn = get_workload(name)
            assert pickle.loads(pickle.dumps(fn)) is fn

    def test_resolve_passes_callables_through(self):
        fn = get_workload("fd")
        assert resolve_workload(fn) is fn
        assert resolve_workload("fd") is fn

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match="keydist"):
            get_workload("nope")

    def test_every_workload_names_a_suite(self):
        """list-workloads shows provenance: no registration without it."""
        for name in available_workloads():
            assert workload_suite(name) != "-", name

    def test_suite_lookup_raises_for_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            workload_suite("nope")

    def test_delivery_metadata(self):
        """E12/E13 sweeps and the arrival-columned akd points advertise
        their delivery axes; everything else is lock-step only."""
        degraded = ("sync", "bounded", "loss", "partition")
        expected = {
            "akd": degraded,
            "akd-shard": degraded,
            "e13-loss": ("loss",),
            "e13-timeout-fd": degraded,
            "e13-partition": ("partition",),
            "e14-adaptive": degraded,
            "e14-equivocation": ("partition",),
        }
        for name in available_workloads():
            if name.startswith("e12-"):
                assert workload_deliveries(name) == ("sync", "bounded", "rush")
            else:
                assert workload_deliveries(name) == expected.get(
                    name, ("sync",)
                ), name

    def test_delivery_lookup_raises_for_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            workload_deliveries("nope")

    def test_duplicate_registration_rejected(self):
        from repro.harness.workloads import workload

        with pytest.raises(ConfigurationError, match="registered twice"):
            workload("fd")(lambda: None)
        assert WORKLOADS["fd"].fn is get_workload("fd")


class TestPointFunctions:
    """One cheap smoke run per new point family (the E-suites assert the
    full tables; here we pin the result *shapes* the suites rely on)."""

    def test_e4_crossover(self):
        result = get_workload("e4-crossover")(8, 2, seed=8)
        assert result["measured"] == result["predicted"]
        assert result["all_ok"]

    def test_e5_points(self):
        binary = get_workload("e5-binary")(4, 0, seed=4)
        assert binary["fd_ok"] and binary["messages"] == 0
        attacked = get_workload("e5-optimistic")(16, 5, 1, seed=3, withhold=True)
        assert not attacked["weak_agreement"] and not attacked["any_discovery"]

    def test_e6_scenario(self):
        result = get_workload("e6-scenario")(8, 2, "cross-claim-chain", seed=1)
        assert result["fd_ok"] and result["g12_violations"] == 0

    def test_e6_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError, match="unknown attack scenario"):
            get_workload("e6-scenario")(8, 2, "no-such-attack", seed=1)

    def test_e7_points(self):
        compare = get_workload("e7-ba-compare")(8, 2, seed=8)
        assert compare["ext_messages"] == 7 < compare["sm_messages"]
        fallback = get_workload("e7-fallback")(8, 2, seed=0, silent_node=1)
        assert fallback["ba_ok"] and fallback["messages"] > 7

    def test_e9_compression_matches_closed_forms(self):
        from repro.analysis import om_collapsed_reports, om_reports

        result = get_workload("e9-compression")(7, 2, seed=7)
        assert result["runs_total"] == om_collapsed_reports(7, 2)
        assert result["dense_items"] == om_reports(7, 2)
        assert result["wire_bytes"] < result["dense_bytes"]

    def test_e10_points(self):
        result = get_workload("e10-scheme")(6, 1, "simulated-hmac", seed=5)
        assert result["fd_ok"]

    def test_e11_points(self):
        methods = get_workload("e11-methods")(4, 1, seed=4)
        assert methods["agreement_messages"] > methods["local_messages"]
        boundary = get_workload("e11-feasibility")(6, 2, seed=6)
        assert not boundary["agreement_feasible"] and boundary["local_pair_ok"]

    def test_e12_sync_matches_plain_oral_counts(self):
        """The delivery sweep's lock-step row measures the same run the
        E9 oral workload does (same seed, same counts)."""
        plain = get_workload("oral")(7, 2, seed=3)
        sync = get_workload("e12-oral")(7, 2, delivery="sync", seed=3)
        assert sync["messages"] == plain["messages"]
        assert sync["rounds"] == plain["rounds"]
        assert sync["agreed"] and plain["agreed"]

    def test_e12_points_reject_bad_faulty(self):
        with pytest.raises(ConfigurationError, match="faulty"):
            get_workload("e12-fd")(7, 2, faulty=7)

    def test_e12_trace_param_dumps_event_log(self):
        result = get_workload("e12-fd")(
            5, 1, delivery="bounded:2", seed=1, trace=True
        )
        assert "DISCOVERS" in result["trace"] or "halts" in result["trace"]
        assert "@t" in result["trace"]

    def test_e14_adaptive_point_shapes(self):
        point = get_workload("e14-adaptive")
        clean = point(7, 2, delivery="bounded:12", protocol="adaptive", seed=1)
        assert not clean["spurious"] and clean["decided"] == 7
        static = point(7, 2, delivery="bounded:12", protocol="timeout", seed=1)
        assert static["spurious"]
        committed = point(
            7, 2, delivery="loss:0.3", protocol="timeout",
            attack="adaptive:silence-muffled", seed=5,
        )
        assert committed["committed"] == 1 and not committed["spurious"]

    def test_e14_points_reject_bad_axes(self):
        point = get_workload("e14-adaptive")
        with pytest.raises(ConfigurationError, match="protocol"):
            point(7, 2, protocol="chain")
        with pytest.raises(ConfigurationError, match="attack"):
            point(7, 2, attack="gremlin")

    def test_e14_equivocation_point(self):
        result = get_workload("e14-equivocation")(8, 2, heal=4, seed=1)
        assert result["attack"] == "equivocate"
        assert result["heal"] == 4 and result["defer"]
        assert result["decided"] >= 7
