"""The workload registry: every benchmark sweep as a named point function."""

from __future__ import annotations

import pickle

import pytest

from repro.auth import run_agreement_key_distribution
from repro.errors import ConfigurationError
from repro.harness import (
    available_workloads,
    get_workload,
    resolve_workload,
    workload_deliveries,
    workload_suite,
)
from repro.harness.workloads import COUNT_SCHEME, WORKLOADS

#: One small point per registered workload: the registry contract that
#: every entry is a pure function of its params (seed included).  The
#: counts ledger gates only the points it names; this table reaches the
#: rest, and a new workload without a row here fails
#: ``test_tiny_covers_every_workload``.
TINY: dict[str, dict] = {
    "akd": dict(n=4, t=1, seed=1),
    "ba": dict(n=4, t=1, seed=1, adversary="1=silent"),
    "e11-feasibility": dict(n=6, t=2, seed=1),
    "e11-methods": dict(n=4, t=1, seed=1),
    "e12-ba": dict(n=4, t=1, delivery="bounded:2", faulty=1, seed=1),
    "e12-fd": dict(n=4, t=1, delivery="rush", faulty=1, seed=1),
    "e12-oral": dict(n=4, t=1, delivery="bounded:2", faulty=1, seed=1),
    "e13-loss": dict(n=4, t=1, loss=0.3, faulty=1, seed=1),
    "e13-partition": dict(n=4, t=1, heal=3, seed=1),
    "e13-timeout-fd": dict(n=4, t=1, delivery="loss:0.2", faulty=1, seed=1),
    "e14-adaptive": dict(n=4, t=1, delivery="loss:0.3", protocol="timeout",
                         attack="adaptive:silence-muffled", seed=1),
    "e14-equivocation": dict(n=4, t=1, heal=3, seed=1),
    "e4-crossover": dict(n=4, t=1, seed=1),
    "e5-optimistic": dict(n=4, t=1, value=1, seed=1, withhold=True),
    "e6-scenario": dict(n=4, t=1, scenario="garbling-chain-node", seed=1),
    "e8-rounds": dict(n=4, t=1, seed=1),
    "e9-chain-bytes": dict(n=4, t=1, seed=1),
    "e9-compression": dict(n=4, t=1, seed=1),
    "fd": dict(n=4, t=1, seed=1, auth="local"),
    "keydist": dict(n=4, seed=1),
    "oral": dict(n=4, t=1, seed=1),
}


class TestRegistry:
    def test_tiny_covers_every_workload(self):
        assert sorted(TINY) == available_workloads()

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_workload_is_a_pure_function_of_its_params(self, name):
        """Two in-process runs of one point agree on every result key."""
        fn = get_workload(name)
        assert fn(**TINY[name]) == fn(**TINY[name])

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
        binary = get_workload("fd")(4, 0, seed=4, protocol="smallrange", value=0)
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
        ba = get_workload("ba")
        extension = ba(8, 2, seed=8)
        signed = ba(8, 2, seed=8, protocol="signed")
        assert extension["ba_ok"] and signed["ba_ok"]
        assert extension["messages"] == 7 < signed["messages"]
        fallback = ba(8, 2, seed=0, adversary="1=silent")
        assert fallback["ba_ok"] and fallback["messages"] > 7

    def test_e9_compression_matches_closed_forms(self):
        from repro.analysis import om_collapsed_reports, om_reports

        result = get_workload("e9-compression")(7, 2, seed=7)
        assert result["runs_total"] == om_collapsed_reports(7, 2)
        assert result["dense_items"] == om_reports(7, 2)
        assert result["wire_bytes"] < result["dense_bytes"]

    def test_e10_points(self):
        from repro.analysis import keydist_messages

        result = get_workload("fd")(6, 1, seed=5, auth="local")
        assert result["fd_ok"]
        assert result["total_messages"] - result["messages"] == keydist_messages(6)

    def test_e11_points(self):
        methods = get_workload("e11-methods")(4, 1, seed=4)
        assert methods["agreement_messages"] > methods["local_messages"]
        boundary = get_workload("e11-feasibility")(6, 2, seed=6)
        assert not boundary["agreement_feasible"] and boundary["local_pair_ok"]

    @pytest.mark.parametrize("adversary", [None, "3=noise"])
    def test_akd_point_summarises_the_direct_run(self, adversary):
        per_instance = run_agreement_key_distribution(
            4, 1, scheme=COUNT_SCHEME, seed=2, adversary=adversary
        ).per_instance
        point = get_workload("akd")(4, 1, seed=2, adversary=adversary)
        messages = [agg.messages for agg in per_instance.values()]
        assert point["instances"] == 4
        assert point["messages"] == sum(messages)
        assert point["bytes"] == sum(agg.bytes for agg in per_instance.values())
        assert point["instance_messages_min"] == min(messages)
        assert point["instance_messages_max"] == max(messages)
        assert point["agreed"]

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
