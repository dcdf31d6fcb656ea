"""``scripts/ab_pairs.py``: the verdict over canned paired readings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Ten parent readings of a lower-is-better metric: median 1.0, IQR 0.045.
PARENT = [0.95, 0.97, 0.98, 0.99, 1.00, 1.00, 1.01, 1.02, 1.03, 1.05]


@pytest.mark.parametrize(
    "change, better, bound, outcome",
    [
        # Faster in 10/10 pairs by far more than the parent's own spread.
        ([p * 0.6 for p in PARENT], "lower", 0.25, "gain"),
        # The same readings of a higher-is-better metric are a regression.
        ([p * 0.6 for p in PARENT], "higher", 0.25, "regression"),
        ([p * 1.4 for p in PARENT], "lower", 0.25, "regression"),
        # 8/10 wins is not nine tenths, however large the two gaps.
        ([0.5] * 8 + [1.1, 1.2], "lower", 0.25, "within bound"),
        # 10/10 wins, but by less than the parent's inter-quartile distance.
        ([p - 0.01 for p in PARENT], "lower", 0.25, "within bound"),
        # Neither: the spread is wider than the bound, so not "unchanged".
        ([0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.4, 0.6, 1.0], "lower", 0.1, "unresolved"),
        # ... unless every run of the change beats every run of the parent.
        ([0.94, 0.5, 0.94, 0.5, 0.94, 0.5, 0.94, 0.5, 0.94, 0.5], "lower", 0.1, "gain"),
    ],
)
def test_verdict(ab_pairs, change, better, bound, outcome):
    assert ab_pairs.verdict(PARENT, change, better, bound)[0] == outcome


def test_ties_count_for_neither_side(ab_pairs):
    change = [p * 0.5 for p in PARENT[:8]] + PARENT[8:]  # two exact ties
    outcome, reason = ab_pairs.verdict(PARENT, change, "lower", 0.25)
    assert outcome == "within bound" and "8/10" in reason


def test_workload_repeats(ab_pairs):
    args = ab_pairs.parse_args(
        ["--parent", "HEAD~1", "--workload", "mux-sync", "--workload", "oral-jitter"]
    )
    assert args.workload == ["mux-sync", "oral-jitter"]
    assert ab_pairs.parse_args(["--parent", "X", "--workload", "fd-flood"]).workload == [
        "fd-flood"
    ]


def test_combined_summary_lists_every_workload_and_metric(ab_pairs):
    declared = [
        {"name": "run_s_p50", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
    ]
    canned = {
        "mux-sync": {
            "parent": {"run_s_p50": PARENT, "peak_rss_mib": [158.0] * 10},
            "change": {"run_s_p50": PARENT, "peak_rss_mib": [127.0] * 10},
        },
        "fd-flood": {
            "parent": {"run_s_p50": PARENT, "peak_rss_mib": [78.0] * 10},
            "change": {"run_s_p50": [p * 1.4 for p in PARENT], "peak_rss_mib": [78.0] * 10},
        },
    }
    verdicts = {}
    for workload, readings in canned.items():
        judged = ab_pairs.judge(declared, readings)
        assert [name for name, *_ in judged] == ["run_s_p50", "peak_rss_mib"]
        verdicts[workload] = [(name, outcome) for name, _, _, outcome, _ in judged]
    lines = ab_pairs.summary_lines(verdicts)
    assert [line.split() for line in lines] == [
        ["mux-sync", "run_s_p50", "within", "bound"],
        ["mux-sync", "peak_rss_mib", "gain"],
        ["fd-flood", "run_s_p50", "regression"],
        ["fd-flood", "peak_rss_mib", "within", "bound"],
    ]
