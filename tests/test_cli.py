"""CLI: every subcommand runs, reports correctly, and exits meaningfully."""

from __future__ import annotations

import json
import pickle
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.harness import attack_catalogue
from repro.harness.runner import FD_PROTOCOLS

README = Path(__file__).resolve().parents[1] / "README.md"


def _row(out: str, key: str) -> str:
    """The value column of ``key``'s row in a ``run`` key/value table."""
    for line in out.splitlines():
        name, _, value = line.partition(" ")
        if name == key:
            return value.strip()
    raise AssertionError(f"no {key!r} row in:\n{out}")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fd", "--scheme", "rot13"])


class TestKeydist:
    def test_prints_formula_and_measured(self, capsys):
        assert main(["keydist", "--n", "5", "--scheme", "simulated-hmac"]) == 0
        out = capsys.readouterr().out
        assert "60" in out  # 3*5*4
        assert "rounds" in out


class TestFd:
    def test_chain_global(self, capsys):
        assert main(
            ["fd", "--n", "6", "--t", "1", "--scheme", "simulated-hmac"]
        ) == 0
        assert _row(capsys.readouterr().out, "fd_ok") == "True"

    def test_chain_local_includes_keydist(self, capsys):
        assert main(
            ["fd", "--n", "6", "--t", "1", "--auth", "local",
             "--scheme", "simulated-hmac"]
        ) == 0
        out = capsys.readouterr().out
        assert "90" in out  # 3*6*5 keydist messages

    def test_echo_protocol(self, capsys):
        assert main(
            ["fd", "--n", "6", "--t", "2", "--protocol", "echo"]
        ) == 0
        out = capsys.readouterr().out
        assert "15" in out  # (2+1)*(6-1)

    @pytest.mark.parametrize("protocol", list(FD_PROTOCOLS))
    def test_every_protocol_runs_with_a_value_it_accepts(self, protocol, capsys):
        """``--value`` is coerced as ``run --param`` values are, so ``1``
        reaches the small-range protocols as the int in their binary
        domain, not the string ``"1"``."""
        t = "0" if protocol == "smallrange" else "1"  # sound only for t = 0
        assert main(
            ["fd", "--n", "6", "--t", t, "--protocol", protocol, "--value", "1",
             "--scheme", "simulated-hmac"]
        ) == 0
        assert _row(capsys.readouterr().out, "fd_ok") == "True"

    @pytest.mark.parametrize("protocol", list(FD_PROTOCOLS))
    def test_every_protocol_runs_without_a_value(self, protocol, capsys):
        """No ``--value``: the protocol's own default value, through both
        the subcommand and ``run`` (``smallrange`` is sound only at t = 0)."""
        t = "0" if protocol == "smallrange" else "2"
        assert main(["fd", "--n", "8", "--t", t, "--protocol", protocol]) == 0
        assert main(
            ["run", "--workload", "fd", "--param", "n=8", "--param", f"t={t}",
             "--param", f"protocol={protocol}"]
        ) == 0
        capsys.readouterr()


class TestBa:
    def test_extension(self, capsys):
        assert main(
            ["ba", "--n", "6", "--t", "1", "--scheme", "simulated-hmac"]
        ) == 0
        assert _row(capsys.readouterr().out, "ba_ok") == "True"


class TestAmortize:
    def test_ledger_and_crossover(self, capsys):
        assert main(
            ["amortize", "--n", "8", "--t", "2", "--runs", "14",
             "--scheme", "simulated-hmac"]
        ) == 0
        out = capsys.readouterr().out
        assert "crossover: measured 13, closed form 13" in out

    def test_one_run_is_the_smallest_ledger(self, capsys):
        assert main(
            ["amortize", "--n", "8", "--t", "2", "--runs", "1",
             "--scheme", "simulated-hmac"]
        ) == 0
        out = capsys.readouterr().out
        assert "crossover: measured None, closed form 13" in out

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_non_positive_runs_exit_2_naming_the_flag(self, runs, capsys):
        assert main(["amortize", "--n", "8", "--t", "2", "--runs", runs]) == 2
        captured = capsys.readouterr()
        assert "--runs" in captured.err
        assert captured.out == ""


class TestAttack:
    def test_list(self, capsys):
        assert main(["attack", "--list", "--n", "8", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "cross-claim-chain" in out
        assert "mixed-predicate-chain" in out

    def test_run_named_attack(self, capsys):
        assert main(
            ["attack", "--name", "garbling-chain-node", "--n", "8", "--t", "2",
             "--scheme", "simulated-hmac"]
        ) == 0
        out = capsys.readouterr().out
        assert "discovery" in out

    def test_unknown_attack_exits_2(self, capsys):
        assert main(
            ["attack", "--name", "no-such-attack", "--n", "8", "--t", "2"]
        ) == 2


class TestListWorkloads:
    def test_lists_names_and_suites(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for token in ("akd", "keydist", "e11-methods", "E11", "suite"):
            assert token in out

    def test_lists_supported_delivery_models(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "deliveries" in out
        assert "sync,bounded,rush" in out  # the E12 sweeps


class TestRunWorkload:
    def test_runs_registry_entry_without_pytest(self, capsys):
        assert main(
            ["run", "--workload", "keydist", "--param", "n=5",
             "--param", "seed=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "60" in out  # 3*5*4 messages

    def test_coerces_string_params(self, capsys):
        assert main(
            ["run", "--workload", "oral", "--param", "n=7", "--param", "t=2",
             "--param", "value=w"]
        ) == 0
        out = capsys.readouterr().out
        assert "78" in out  # (n-1) + t(n-1)^2 envelopes
        assert "'w'" in out  # the decision is the string, not a coerced number

    def test_akd_mux_workload_runs(self, capsys):
        assert main(
            ["run", "--workload", "akd", "--param", "n=4", "--param", "t=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "instance_messages_min" in out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["run", "--workload", "no-such"]) == 2

    def test_infeasible_params_exit_1_with_message(self, capsys):
        """An infeasible ``(n, t)`` is a ConfigurationError: message and
        exit 2, as from every other command, no traceback."""
        assert main(
            ["run", "--workload", "akd", "--param", "n=6", "--param", "t=2"]
        ) == 2
        err = capsys.readouterr().err
        assert "workload akd" in err and "n > 3t" in err

    def test_bad_param_name_exits_1(self, capsys):
        assert main(
            ["run", "--workload", "keydist", "--param", "bogus=1"]
        ) == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_param_exits_nonzero(self, capsys):
        """A usage error like the others: message on stderr, exit 2 —
        not a ``SystemExit(str)`` escaping ``main`` with status 1."""
        assert main(["run", "--workload", "keydist", "--param", "n5"]) == 2
        assert "--param expects key=value, got 'n5'" in capsys.readouterr().err

    def test_trace_dumps_structured_event_log(self, capsys):
        assert main(
            ["run", "--workload", "e12-fd", "--param", "n=5", "--param", "t=1",
             "--param", "delivery=bounded:2", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "structured event log" in out
        assert "@t" in out          # delivery timestamps
        assert "halts" in out

    def test_trace_on_traceless_workload_exits_2(self, capsys):
        assert main(
            ["run", "--workload", "keydist", "--param", "n=4", "--trace"]
        ) == 2
        assert "does not support --trace" in capsys.readouterr().err


class TestCheckpointResume:
    RUN = [
        "run", "--workload", "e13-timeout-fd", "--param", "n=8",
        "--param", "t=1", "--param", "delivery=bounded:2",
        "--param", "seed=3",
    ]

    @pytest.fixture
    def recipes(self, capsys, tmp_path):
        """(run's table, the recipes it wrote) for :attr:`RUN` every 3 ticks."""
        assert main(
            self.RUN + ["--checkpoint-every", "3",
                        "--checkpoint-dir", str(tmp_path / "ckpt")]
        ) == 0
        out = capsys.readouterr().out
        files = sorted((tmp_path / "ckpt").glob("*.json"))
        assert [f"checkpoint written: {f}" for f in files] == [
            line for line in out.splitlines() if line.startswith("checkpoint")
        ]
        assert files, "no checkpoint recipes on disk"
        table = out[: out.index("checkpoint written")]
        return table, files

    def _resume_fails(self, capsys, path, needle):
        assert main(["resume", str(path)]) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        return captured

    def _edited(self, tmp_path, recipe, **changes):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps({**json.loads(recipe.read_text()), **changes}))
        return path

    def test_resume_prints_the_run_table(self, capsys, recipes):
        """Every recipe replays into the table ``run`` printed, byte for
        byte, plus one line naming the boundary it checked."""
        table, files = recipes
        for path in files:
            assert main(["resume", str(path)]) == 0
            tick = int(path.stem.split("tick")[1])
            assert capsys.readouterr().out == (
                table + f"\nreplay matched {path} at run0 tick {tick}\n"
            )

    def test_second_kernel_recipe_resumes(self, capsys, tmp_path):
        """``run1`` is the protocol kernel after key distribution."""
        assert main(
            ["run", "--workload", "fd", "--param", "n=8", "--param", "t=2",
             "--param", "auth=local", "--checkpoint-every", "1",
             "--checkpoint-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        path = tmp_path / "run1-tick000001.json"
        assert main(["resume", str(path)]) == 0
        assert f"replay matched {path} at run1 tick 1" in capsys.readouterr().out

    def test_every_truncation_exits_2(self, capsys, recipes, tmp_path):
        raw = recipes[1][0].read_bytes()
        cut = tmp_path / "cut.json"
        for length in range(len(raw)):
            cut.write_bytes(raw[:length])
            assert main(["resume", str(cut)]) == 2, f"prefix of {length} bytes"
        assert "checkpoint recipe" in capsys.readouterr().err

    def test_pickle_payload_never_runs(self, capsys, tmp_path):
        sentinel = tmp_path / "ran"

        class Payload:
            def __reduce__(self):
                return (open, (str(sentinel), "w"))

        path = tmp_path / "hostile.ckpt"
        path.write_bytes(pickle.dumps(Payload()))
        self._resume_fails(capsys, path, "unreadable as UTF-8 JSON")
        assert not sentinel.exists()

    def test_edited_activity_names_the_entry(self, capsys, recipes, tmp_path):
        recipe = recipes[1][0]
        state = json.loads(recipe.read_text())["state"]
        state["activity"][3][0] += 1
        path = self._edited(tmp_path, recipe, state=state)
        captured = self._resume_fails(capsys, path, "activity[3] differs")
        assert captured.out == ""

    def test_edited_counter_names_it(self, capsys, recipes, tmp_path):
        recipe = recipes[1][0]
        state = json.loads(recipe.read_text())["state"]
        state["bytes"] += 1
        self._resume_fails(
            capsys, self._edited(tmp_path, recipe, state=state), ": bytes differs"
        )

    def test_tick_past_completion_exits_2(self, capsys, recipes, tmp_path):
        path = self._edited(tmp_path, recipes[1][0], tick=999)
        captured = self._resume_fails(capsys, path, "replay never reached")
        assert "at run0 tick 999" in captured.err

    @pytest.mark.parametrize(
        "changes, needle",
        [
            ({"workload": "no-such-workload"}, "no-such-workload"),
            ({"param": ["n=8", 8]}, "'param' must hold KEY=VALUE strings"),
            ({"tick": -3}, "'tick' must be int >= 1, got -3"),
            ({"every": 0}, "'every' must be int >= 1, got 0"),
            ({"run": True}, "'run' must be int >= 0, got True"),
            ({"version": 99}, "'version' is 99, this build reads 1"),
            ({"state": [1, 2]}, "'state' must be dict"),
        ],
        ids=["workload", "param", "tick", "every", "run", "version", "state"],
    )
    def test_bad_field_exits_2(self, capsys, recipes, tmp_path, changes, needle):
        self._resume_fails(capsys, self._edited(tmp_path, recipes[1][0], **changes), needle)

    def test_missing_field_exits_2(self, capsys, recipes, tmp_path):
        recipe = json.loads(recipes[1][0].read_text())
        del recipe["every"]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(recipe))
        self._resume_fails(capsys, path, "field 'every' must be int >= 1, got None")

    def test_non_positive_every_exits_2(self, capsys, tmp_path):
        assert main(
            self.RUN + ["--checkpoint-every", "0",
                        "--checkpoint-dir", str(tmp_path)]
        ) == 2
        assert "positive tick count" in capsys.readouterr().err

    def test_every_without_dir_exits_2(self, capsys):
        assert main(self.RUN + ["--checkpoint-every", "4"]) == 2
        assert "together" in capsys.readouterr().err

    def test_dir_without_every_exits_2(self, capsys, tmp_path):
        assert main(self.RUN + ["--checkpoint-dir", str(tmp_path)]) == 2
        assert "together" in capsys.readouterr().err

    def test_resume_missing_file_exits_2(self, capsys, tmp_path):
        self._resume_fails(capsys, tmp_path / "nope.json", "unreadable as UTF-8 JSON")

    def test_resume_corrupt_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff garbage")
        self._resume_fails(capsys, bad, "unreadable as UTF-8 JSON")


class TestDeliveryKnob:
    def test_fd_accepts_delivery_spec(self, capsys):
        assert main(
            ["fd", "--n", "5", "--t", "1", "--delivery", "bounded:1"]
        ) == 0
        out = capsys.readouterr().out
        assert "bounded:1" in out

    def test_ba_accepts_delivery_spec(self, capsys):
        assert main(
            ["ba", "--n", "5", "--t", "1", "--protocol", "signed",
             "--delivery", "rush"]
        ) == 0
        assert "rush" in capsys.readouterr().out

    def test_unknown_delivery_spec_errors(self, capsys):
        """A typo'd spec gets the CLI contract — message naming the
        valid specs plus exit 2 — not a traceback."""
        assert main(["fd", "--n", "5", "--t", "1", "--delivery", "warp"]) == 2
        err = capsys.readouterr().err
        assert "unknown delivery" in err
        for name in ("bounded", "loss", "partition", "rush", "sync"):
            assert name in err

    def test_extra_delivery_field_exits_2(self, capsys):
        """A field beyond the spec grammar is refused, not dropped."""
        spec = "loss:0.2:2:9"
        assert main(["fd", "--n", "5", "--t", "1", "--delivery", spec]) == 2
        assert repr(spec) in capsys.readouterr().err

    def test_keydist_accepts_delivery_spec(self, capsys):
        assert main(
            ["keydist", "--n", "5", "--scheme", "simulated-hmac",
             "--delivery", "bounded:1"]
        ) == 0
        assert "bounded:1" in capsys.readouterr().out

    def test_attack_accepts_delivery_spec(self, capsys):
        assert main(
            ["attack", "--n", "7", "--t", "2", "--name",
             "crashed-chain-node", "--scheme", "simulated-hmac",
             "--delivery", "sync"]
        ) == 0
        assert "crashed-chain-node" in capsys.readouterr().out

    def test_amortize_accepts_delivery_spec(self, capsys):
        assert main(
            ["amortize", "--n", "6", "--t", "1", "--runs", "3",
             "--scheme", "simulated-hmac", "--delivery", "sync"]
        ) == 0
        assert "amortization ledger" in capsys.readouterr().out


class TestAdversaryKnob:
    def test_fd_accepts_adversary_spec(self, capsys):
        assert main(
            ["fd", "--n", "7", "--t", "2", "--scheme", "simulated-hmac",
             "--adversary", "5=crash@1;6=silent"]
        ) == 0
        assert "5=crash@1;6=silent" in capsys.readouterr().out

    def test_fd_timeout_protocol_with_loss(self, capsys):
        assert main(
            ["fd", "--n", "7", "--t", "2", "--scheme", "simulated-hmac",
             "--protocol", "timeout", "--delivery", "loss:0.2"]
        ) == 0
        assert _row(capsys.readouterr().out, "drops").isdigit()

    def test_unknown_behaviour_errors(self, capsys):
        assert main(
            ["fd", "--n", "5", "--t", "1", "--adversary", "2=gremlin"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown behaviour" in err and "silent" in err

    def test_unknown_behaviour_error_lists_the_live_grammar(self, capsys):
        """The exit-2 message derives from the parse table, so new
        behaviours (and their argument shapes) are always advertised."""
        assert main(
            ["fd", "--n", "5", "--t", "1", "--adversary", "2=gremlin"]
        ) == 2
        err = capsys.readouterr().err
        for token in ("ack-lie[@T]", "equivocate[@T]", "crash@R[-S]"):
            assert token in err

    def test_malformed_item_error_mentions_adaptive_grammar(self, capsys):
        assert main(
            ["fd", "--n", "5", "--t", "1", "--adversary", "bogus"]
        ) == 2
        assert "adaptive:STRATEGY" in capsys.readouterr().err

    def test_unknown_adaptive_strategy_errors(self, capsys):
        assert main(
            ["fd", "--n", "5", "--t", "1", "--adversary", "adaptive:gremlin"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown adaptive strategy" in err
        assert "silence-muffled" in err

    def test_fd_adaptive_protocol_runs(self, capsys):
        assert main(
            ["fd", "--n", "7", "--t", "2", "--scheme", "simulated-hmac",
             "--protocol", "adaptive", "--delivery", "bounded:3"]
        ) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "ok" in out

    def test_fd_reports_adaptive_commitments(self, capsys):
        assert main(
            ["fd", "--n", "7", "--t", "2", "--scheme", "simulated-hmac",
             "--protocol", "timeout", "--seed", "5",
             "--adversary", "adaptive:silence-muffled;delivery=loss:0.3"]
        ) == 0
        assert _row(capsys.readouterr().out, "committed").endswith("=silent")

    def test_over_budget_adversary_errors(self, capsys):
        assert main(
            ["fd", "--n", "5", "--t", "1", "--adversary", "2=silent;3=silent"]
        ) == 2
        assert "budget" in capsys.readouterr().err

    def test_ba_accepts_adversary_spec(self, capsys):
        assert main(
            ["ba", "--n", "7", "--t", "2", "--protocol", "signed",
             "--scheme", "simulated-hmac", "--adversary", "6=rush;delivery=rush"]
        ) == 0
        assert "6=rush" in capsys.readouterr().out


class TestFormulas:
    def test_prints_all_claims(self, capsys):
        assert main(["formulas", "--n", "16", "--t", "5"]) == 0
        out = capsys.readouterr().out
        for token in ("3n(n-1)", "n-1", "(t+1)(n-1)", "720", "15", "90", "10"):
            assert token in out

    def test_t_zero_omits_crossover(self, capsys):
        assert main(["formulas", "--n", "4", "--t", "0"]) == 0
        out = capsys.readouterr().out
        assert "crossover" not in out


def _alias_cases() -> list[tuple[list[str], list[str]]]:
    """(subcommand argv, the ``run`` argv it aliases) at n = 7, t = 2."""
    hmac = ["--scheme", "simulated-hmac"]
    size = ["--n", "7", "--t", "2", *hmac]
    params = ["--param", "n=7", "--param", "t=2", "--param", "scheme=simulated-hmac"]
    cases = []
    for protocol in FD_PROTOCOLS:
        cases.append((["fd", *size, "--protocol", protocol],
                      ["run", "--workload", "fd", *params, "--param", f"protocol={protocol}"]))
    for protocol in ("extension", "signed"):
        cases.append((["ba", *size, "--protocol", protocol],
                      ["run", "--workload", "ba", *params, "--param", f"protocol={protocol}"]))
    for delivery in ("sync", "bounded:2"):
        cases.append((["keydist", "--n", "7", *hmac, "--delivery", delivery],
                      ["run", "--workload", "keydist", "--param", "n=7",
                       "--param", "scheme=simulated-hmac", "--param", f"delivery={delivery}"]))
    for scenario in attack_catalogue(7, 2):
        cases.append((["attack", *size, "--name", scenario.name],
                      ["run", "--workload", "e6-scenario", *params,
                       "--param", f"scenario={scenario.name}"]))
    return cases


class TestAliases:
    @pytest.mark.parametrize(
        "alias, run",
        [pytest.param(*case, id=f"{case[0][0]}-{case[0][-1]}") for case in _alias_cases()],
    )
    def test_alias_prints_and_exits_as_run(self, alias, run, capsys):
        """A scenario subcommand is ``run --workload`` under its own
        flags: the same table on stdout and the same exit code."""
        code = main(alias)
        out = capsys.readouterr().out
        assert (code, out) == (main(run), capsys.readouterr().out)

    def test_false_verdict_exits_1(self, capsys):
        """Key distribution under skew misses its paper counts, and
        some node ends without every genuine predicate."""
        assert main(["keydist", "--n", "7", "--scheme", "simulated-hmac",
                     "--delivery", "bounded:2"]) == 1
        out = capsys.readouterr().out
        assert _row(out, "keydist_ok") == "False"
        assert _row(out, "accepted") == "False"


def _documented_commands(text: str) -> list[list[str]]:
    """The ``repro-fd`` command lines of ``text``, continuations joined,
    as argument vectors without the program name."""
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        if line.strip().startswith("repro-fd "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


class TestDocumentedCommands:
    def test_every_documented_command_exits_0(self, capsys, monkeypatch, tmp_path):
        """The README Quickstart and this module's docstring, run in
        order (``resume`` reads the recipe the line before wrote)."""
        quickstart = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
        block = quickstart.split("```bash", 1)[1].split("```", 1)[0]
        commands = _documented_commands(block) + _documented_commands(cli.__doc__)
        assert len(commands) > 20
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, " ".join(argv)
            capsys.readouterr()


class TestInfeasibleConfig:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fd", "--n", "2", "--t", "5"], "fault budget t=5"),
            (["keydist", "--n", "0"], "node count must be >= 2"),
            (["formulas", "--n", "0", "--t", "0"], "node count must be >= 2"),
            (["attack", "--n", "3", "--t", "2"], "attack catalogue needs"),
        ],
        ids=["fd", "keydist", "formulas", "attack"],
    )
    def test_exits_2_with_the_message(self, argv, message, capsys):
        """An infeasible (n, t) is a ConfigurationError: message on
        stderr and exit 2 from every command, never a traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
