"""E6 — attack discovery rates (paper Theorems 2 and 4).

Claims: after the key distribution protocol G1 and G2 hold (Theorem 2);
all correct nodes assign every submessage to the same node or at least
one discovers a failure (Theorem 4); F1-F3 are preserved under local
authentication (Lemma 3).

Regenerates the discovery matrix: every attack scenario × multiple seeds,
reporting F1-F3 verdicts, discovery rates and G-property counts.  This is
the reproduction of the paper's correctness argument as measurement: the
theorems predict 100% condition-compliance and discovery exactly where
expected, at every seed.
"""

from __future__ import annotations

from conftest import SWEEP_SCHEME, once

from repro.harness import LOCAL, attack_catalogue, run_fd_scenario
from repro.analysis import check_mark, render_table

N, T = 8, 2
SEEDS = range(8)


def test_e6_discovery_matrix(report, benchmark, psweep):
    def sweep():
        scenarios = [s.name for s in attack_catalogue(N, T)]
        points = psweep(
            [
                {"n": N, "t": T, "scenario": name, "seed": seed}
                for name in scenarios
                for seed in SEEDS
            ],
            "e6-scenario",
        )
        rows = []
        total = len(SEEDS)
        for index, name in enumerate(scenarios):
            cells = [p.result for p in points[index * total : (index + 1) * total]]
            ok_runs = sum(bool(c["fd_ok"]) for c in cells)
            discoveries = sum(bool(c["any_discovery"]) for c in cells)
            g12_violations = sum(c["g12_violations"] for c in cells)
            expected_discoveries = total if cells[0]["expects_discovery"] else 0
            rows.append(
                [
                    name,
                    f"{ok_runs}/{total}",
                    f"{discoveries}/{total}",
                    f"{expected_discoveries}/{total}",
                    g12_violations,
                    check_mark(
                        ok_runs == total
                        and discoveries == expected_discoveries
                        and g12_violations == 0
                    ),
                ]
            )
            assert ok_runs == total, name
            assert discoveries == expected_discoveries, name
            assert g12_violations == 0, name

        report(
            render_table(
                ["scenario", "F1-F3 hold", "discovered", "theorem predicts", "G1/G2 viol.", "verdict"],
                rows,
                title=f"E6  attack discovery matrix, n={N}, t={T}, {len(SEEDS)} seeds",
            )
        )


    once(benchmark, sweep)

def test_e6_attack_run_wallclock(benchmark):
    scenario = next(
        s for s in attack_catalogue(N, T) if s.name == "cross-claim-chain"
    )

    def one_run():
        return run_fd_scenario(
            N,
            T,
            "v",
            auth=LOCAL,
            scheme=SWEEP_SCHEME,
            seed=1,
            kd_adversaries=scenario.kd_adversaries(),
            adversary=scenario.adversary,
            faulty=scenario.faulty,
        )

    outcome = benchmark(one_run)
    assert outcome.fd.ok
