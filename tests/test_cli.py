"""CLI: every subcommand runs, reports correctly, and exits meaningfully."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


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
        out = capsys.readouterr().out
        assert "F1-F3" in out and "ok" in out

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


class TestBa:
    def test_extension(self, capsys):
        assert main(
            ["ba", "--n", "6", "--t", "1", "--scheme", "simulated-hmac"]
        ) == 0
        out = capsys.readouterr().out
        assert "agreement/validity" in out and "ok" in out


class TestAmortize:
    def test_ledger_and_crossover(self, capsys):
        assert main(
            ["amortize", "--n", "8", "--t", "2", "--runs", "14",
             "--scheme", "simulated-hmac"]
        ) == 0
        out = capsys.readouterr().out
        assert "crossover: measured 13, closed form 13" in out


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
        """Workload-level errors print like every other subcommand —
        message + nonzero exit, no traceback."""
        assert main(
            ["run", "--workload", "akd", "--param", "n=6", "--param", "t=2"]
        ) == 1
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

    def test_checkpoints_written_and_resumable(self, capsys, tmp_path):
        assert main(
            self.RUN + ["--checkpoint-every", "3",
                        "--checkpoint-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "checkpoint written" in out
        files = sorted(tmp_path.glob("*.ckpt"))
        assert files, "no checkpoint files on disk"
        assert main(["resume", str(files[0])]) == 0
        out = capsys.readouterr().out
        assert "resumed at tick" in out
        assert "rounds executed" in out

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
        assert main(["resume", str(tmp_path / "nope.ckpt")]) == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_resume_corrupt_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["resume", str(bad)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_resume_version_mismatch_exits_2(self, capsys, tmp_path):
        import dataclasses
        import pickle

        from repro.harness import run_fd_scenario

        snap = run_fd_scenario(
            8, 1, "v", protocol="timeout", delivery="bounded:2", seed=3,
            checkpoint_at=2,
        )
        stale = tmp_path / "stale.ckpt"
        stale.write_bytes(pickle.dumps(dataclasses.replace(snap, version=0)))
        assert main(["resume", str(stale)]) == 2
        err = capsys.readouterr().err
        assert "version" in err and "re-create" in err


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
        out = capsys.readouterr().out
        assert "dropped by network" in out

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
        out = capsys.readouterr().out
        assert "committed (adaptive)" in out
        assert "=silent" in out

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
