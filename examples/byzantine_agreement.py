#!/usr/bin/env python3
"""Cheap Byzantine Agreement via the FD→BA extension.

Failure Discovery matters because it upgrades: Hadzilacos & Halpern showed
(and the paper leans on) that an FD protocol extends to full Byzantine
Agreement whose *failure-free* runs cost the same as the FD protocol.
This example runs the extension three ways:

1. failure-free — BA reached with just n−1 messages (the FD path);
2. with a crashed chain node — the alarm flood fires, everyone falls back
   to SM(t), and agreement still holds (at honest-run-of-SM-like cost);
3. direct SM(t) for comparison — Θ(n²) messages even when nothing fails.

Run:  python examples/byzantine_agreement.py
"""

from repro.agreement import OUTPUT_PATH, evaluate_ba
from repro.analysis import render_table, sm_messages
from repro.harness import GLOBAL, run_ba_scenario


def main() -> None:
    n, t = 10, 3
    value = "elect-leader-7"
    rows = []

    clean = run_ba_scenario(n, t, value, protocol="extension", auth=GLOBAL, seed=1)
    assert clean.ba.ok
    paths = {s.outputs.get(OUTPUT_PATH) for s in clean.run.states}
    rows.append(["extension, failure-free", clean.run.metrics.messages_total,
                 clean.run.metrics.rounds_used, "/".join(sorted(p for p in paths if p))])

    crashed = run_ba_scenario(
        n, t, value, protocol="extension", auth=GLOBAL, seed=2,
        adversary="1=silent",
    )
    assert crashed.ba.ok, crashed.ba.detail
    paths = {
        s.outputs.get(OUTPUT_PATH)
        for s in crashed.run.states
        if s.node != 1 and s.outputs.get(OUTPUT_PATH)
    }
    rows.append(["extension, crashed chain node", crashed.run.metrics.messages_total,
                 crashed.run.metrics.rounds_used, "/".join(sorted(paths))])

    direct = run_ba_scenario(n, t, value, protocol="signed", auth=GLOBAL, seed=3)
    assert direct.ba.ok
    rows.append(["SM(t) direct, failure-free", direct.run.metrics.messages_total,
                 direct.run.metrics.rounds_used, "n/a"])

    print(f"n={n}, t={t}, sender value {value!r}\n")
    print(render_table(["scenario", "messages", "rounds", "path"], rows,
                       title="Byzantine Agreement three ways"))
    print(
        f"\nfailure-free extension: {clean.run.metrics.messages_total} messages"
        f" vs direct SM(t): {sm_messages(n, t)} — the FD detour is what makes"
        "\nauthenticated agreement cheap when nothing goes wrong."
    )

    decisions = {s.decision for s in crashed.run.states if s.node != 1 and s.decided}
    print(f"\ncrashed-node run still agreed on: {decisions}")


if __name__ == "__main__":
    main()
