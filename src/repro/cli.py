"""Command-line interface: run the paper's protocols from a shell.

Installed as the ``repro-fd`` console script::

    repro-fd keydist --n 8                      # paper Fig. 1
    repro-fd fd --n 8 --t 2 --auth local        # paper Fig. 2 on local auth
    repro-fd fd --n 8 --t 2 --protocol echo     # the O(n*t) baseline
    repro-fd fd --n 8 --t 2 --delivery bounded:3  # FD under delivery skew
    repro-fd fd --n 8 --t 2 --protocol timeout \\
        --delivery loss:0.2                     # timeout FD on a lossy net
    repro-fd fd --n 8 --t 2 --adversary '5=silent;6=crash@2' \\
        --delivery loss:0.1                     # the adversary plane
    repro-fd ba --n 8 --t 2                     # FD→BA extension
    repro-fd amortize --n 16 --t 5 --runs 20    # the Summary's ledger
    repro-fd attack --list                      # the §3.2 attack catalogue
    repro-fd attack --name cross-claim-chain    # run one attack
    repro-fd formulas --n 16 --t 5              # every complexity claim
    repro-fd list-workloads                     # the sweep registry
    repro-fd run --workload oral --param n=7 --param t=2
    repro-fd run --workload e12-fd --param delivery=rush \\
        --param faulty=1 --trace                # dump the event log

Every command prints the measured counts next to the paper's formula and
exits non-zero if any FD/BA condition is violated, so the CLI can serve
as a smoke-check in automation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .analysis import (
    crossover_runs,
    fd_auth_messages,
    fd_auth_rounds,
    fd_nonauth_messages,
    keydist_messages,
    keydist_rounds,
    render_table,
    sm_messages,
)
from .auth import run_key_distribution
from .crypto import DEFAULT_SCHEME, available_schemes
from .errors import ConfigurationError
from .harness import (
    GLOBAL,
    LOCAL,
    AmortizedSession,
    attack_catalogue,
    run_ba_scenario,
    run_fd_scenario,
)
from .harness.runner import FD_PROTOCOLS
from .sim import clear_checkpoint_policy, observed_state, set_checkpoint_policy


def _add_delivery(parser: argparse.ArgumentParser) -> None:
    from .sim import available_deliveries

    parser.add_argument(
        "--delivery",
        default=None,
        metavar="SPEC",
        help="delivery model spec: "
        + ", ".join(available_deliveries())
        + " (e.g. 'bounded:3', 'loss:0.2', 'partition:0-3|4-6@8/defer', "
        "'rush'; default sync — the paper's model — unless an "
        "--adversary spec grants a delivery power)",
    )


def _add_adversary(parser: argparse.ArgumentParser) -> None:
    from .faults.adversary import behavior_grammar_help

    parser.add_argument(
        "--adversary",
        default=None,
        metavar="SPEC",
        help="adversary plane spec: ';'-separated NODE=BEHAVIOR items "
        "plus optional delivery=SPEC and adaptive:STRATEGY (behaviours: "
        + behavior_grammar_help()
        + "; e.g. '5=silent;6=crash@2-5;delivery=loss:0.2' or "
        "'adaptive:silence-muffled'); the corruption budget is checked "
        "against --t, adaptive commitments at commitment time",
    )


def _shown_delivery(args: argparse.Namespace) -> str:
    """The delivery spec a run will actually use, for table rendering:
    the explicit ``--delivery``, else the adversary spec's delivery
    power, else the synchronous default."""
    if getattr(args, "delivery", None) is not None:
        return args.delivery
    adversary = getattr(args, "adversary", None)
    if adversary is not None:
        from .faults import make_adversary

        spec = make_adversary(adversary, t=getattr(args, "t", 0))
        if spec is not None and spec.delivery is not None:
            return spec.delivery
    return "sync"


def _add_common(parser: argparse.ArgumentParser, with_t: bool = True) -> None:
    parser.add_argument("--n", type=int, default=8, help="network size (default 8)")
    if with_t:
        parser.add_argument(
            "--t", type=int, default=2, help="fault budget (default 2)"
        )
    parser.add_argument("--seed", default=0, help="master seed (default 0)")
    parser.add_argument(
        "--scheme",
        default=DEFAULT_SCHEME,
        choices=available_schemes(),
        help=f"signature scheme (default {DEFAULT_SCHEME})",
    )


def _cmd_keydist(args: argparse.Namespace) -> int:
    result = run_key_distribution(
        args.n, scheme=args.scheme, seed=args.seed, delivery=args.delivery
    )
    accepted = all(
        directory.predicates_for(subject)
        == (result.keypairs[subject].predicate,)
        for node, directory in result.directories.items()
        for subject in result.keypairs
        if subject != node and subject in result.keypairs
    )
    print(
        render_table(
            ["quantity", "paper", "measured"],
            [
                ["messages", keydist_messages(args.n), result.messages],
                ["rounds", keydist_rounds(), result.rounds],
                ["delivery", "sync", _shown_delivery(args)],
            ],
            title=f"key distribution (paper Fig. 1), n={args.n}",
        )
    )
    synchronous = _shown_delivery(args) == "sync"
    ok = (
        result.messages == keydist_messages(args.n)
        and result.rounds == keydist_rounds()
        and synchronous
    ) or (not synchronous and accepted)
    print(f"\npredicates accepted everywhere: {accepted}")
    return 0 if ok else 1


def _cmd_fd(args: argparse.Namespace) -> int:
    outcome = run_fd_scenario(
        args.n,
        args.t,
        args.value,
        protocol=args.protocol,
        auth=args.auth,
        scheme=args.scheme,
        seed=args.seed,
        delivery=args.delivery,
        adversary=args.adversary,
    )
    metrics = outcome.run.metrics
    expected = (
        fd_auth_messages(args.n)
        if args.protocol == "chain"
        else fd_nonauth_messages(args.n, args.t)
        if args.protocol == "echo"
        else metrics.messages_total
    )
    print(
        render_table(
            ["quantity", "value"],
            [
                ["protocol", args.protocol],
                ["authentication", args.auth],
                ["delivery", _shown_delivery(args)],
                ["adversary", args.adversary or "-"],
                [
                    "committed (adaptive)",
                    "; ".join(f"{node}={spec}" for node, spec in outcome.committed)
                    or "-",
                ],
                ["messages", metrics.messages_total],
                ["dropped by network", metrics.drops_total],
                ["paper formula", expected],
                ["rounds", metrics.rounds_used],
                ["keydist messages", outcome.kd.messages if outcome.kd else 0],
                ["decisions", sorted(set(map(repr, outcome.run.decisions().values())))],
                ["discoveries", len(outcome.run.discoverers())],
                ["F1-F3", "ok" if outcome.fd.ok else outcome.fd.detail],
            ],
            title=f"failure discovery, n={args.n}, t={args.t}",
        )
    )
    return 0 if outcome.fd.ok else 1


def _cmd_ba(args: argparse.Namespace) -> int:
    outcome = run_ba_scenario(
        args.n,
        args.t,
        args.value,
        protocol=args.protocol,
        auth=args.auth,
        scheme=args.scheme,
        seed=args.seed,
        delivery=args.delivery,
        adversary=args.adversary,
    )
    metrics = outcome.run.metrics
    print(
        render_table(
            ["quantity", "value"],
            [
                ["protocol", args.protocol],
                ["delivery", _shown_delivery(args)],
                ["adversary", args.adversary or "-"],
                ["messages", metrics.messages_total],
                ["SM(t) direct would cost", sm_messages(args.n, args.t)],
                ["rounds", metrics.rounds_used],
                ["agreement/validity", "ok" if outcome.ba.ok else outcome.ba.detail],
            ],
            title=f"byzantine agreement, n={args.n}, t={args.t}",
        )
    )
    return 0 if outcome.ba.ok else 1


def _cmd_amortize(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ConfigurationError(f"--runs expects a positive run count, got {args.runs}")
    session = AmortizedSession(
        n=args.n, t=args.t, auth=LOCAL, scheme=args.scheme, seed=args.seed,
        delivery=args.delivery,
    )
    rows = []
    for k in range(args.runs):
        outcome = session.run(value=("run", k), seed=k)
        if not outcome.fd.ok:
            print(f"run {k}: F1-F3 violated: {outcome.fd.detail}", file=sys.stderr)
            return 1
        entry = session.ledger[-1]
        rows.append(
            [
                entry.runs,
                entry.local_total,
                entry.baseline_total,
                "local" if entry.amortized else "non-auth",
            ]
        )
    print(
        render_table(
            ["runs", "keydist + chain", "echo baseline", "cheaper"],
            rows,
            title=f"amortization ledger, n={args.n}, t={args.t}",
        )
    )
    measured = session.crossover_run()
    predicted = crossover_runs(args.n, args.t) if args.t else None
    print(f"\ncrossover: measured {measured}, closed form {predicted}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    catalogue = attack_catalogue(args.n, args.t)
    if args.list:
        print(
            render_table(
                ["name", "faulty nodes", "expects discovery", "description"],
                [
                    [s.name, sorted(s.faulty), s.expects_discovery, s.description]
                    for s in catalogue
                ],
                title="attack catalogue (paper section 3.2 + Fig. 2 checks)",
            )
        )
        return 0
    by_name = {s.name: s for s in catalogue}
    if args.name not in by_name:
        print(f"unknown attack {args.name!r}; try --list", file=sys.stderr)
        return 2
    scenario = by_name[args.name]
    outcome = run_fd_scenario(
        args.n,
        args.t,
        args.value,
        auth=LOCAL,
        scheme=args.scheme,
        seed=args.seed,
        kd_adversaries=scenario.kd_adversaries(),
        adversary=scenario.adversary,
        faulty=scenario.faulty,
        delivery=args.delivery,
    )
    discoverers = [
        s.node for s in outcome.run.states
        if s.node in outcome.correct and s.discovered_failure
    ]
    print(
        render_table(
            ["quantity", "value"],
            [
                ["scenario", scenario.name],
                ["faulty nodes", sorted(scenario.faulty)],
                ["F1-F3", "ok" if outcome.fd.ok else outcome.fd.detail],
                ["discovery", outcome.fd.any_discovery],
                ["theorem predicts discovery", scenario.expects_discovery],
                ["discoverers", discoverers],
            ],
            title=f"attack run, n={args.n}, t={args.t}",
        )
    )
    ok = (
        outcome.fd.ok
        and outcome.fd.any_discovery == scenario.expects_discovery
    )
    return 0 if ok else 1


def _cmd_formulas(args: argparse.Namespace) -> int:
    n, t = args.n, args.t
    rows = [
        ["key distribution messages", "3n(n-1)", keydist_messages(n)],
        ["key distribution rounds", "3", keydist_rounds()],
        ["chain FD messages", "n-1", fd_auth_messages(n)],
        ["chain FD rounds", "t+1", fd_auth_rounds(t)],
        ["echo FD messages", "(t+1)(n-1)", fd_nonauth_messages(n, t)],
        ["SM(t) messages (failure-free)", "(n-1)+(n-1)(n-2)", sm_messages(n, t)],
    ]
    if t >= 1:
        rows.append(["amortization crossover", "k > 3n/t", crossover_runs(n, t)])
    print(
        render_table(
            ["quantity", "formula", f"value at n={n}, t={t}"],
            rows,
            title="the paper's complexity claims",
        )
    )
    return 0


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    from .harness.workloads import WORKLOADS

    rows = [
        [name, entry.suite, ",".join(entry.deliveries)]
        for name, entry in sorted(WORKLOADS.items())
    ]
    print(
        render_table(
            ["workload", "suite", "deliveries"],
            rows,
            title="registered workloads (repro.harness.workloads)",
        )
    )
    return 0


def _coerce(value: str) -> object:
    """A command-line value as a bool, int or float if it reads as one,
    else the string itself."""
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _parse_workload_params(raw: Sequence[str]) -> dict[str, object]:
    """``key=value`` pairs with :func:`_coerce`'s int/float/bool coercion.

    :raises ConfigurationError: for an item that is not ``key=value``.
    """
    params: dict[str, object] = {}
    for item in raw:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--param expects key=value, got {item!r}")
        params[key] = _coerce(value)
    return params


def _cmd_run_workload(args: argparse.Namespace) -> int:
    import inspect

    from .harness import get_workload

    fn = get_workload(args.workload)
    params = _parse_workload_params(args.param)
    if args.trace:
        if "trace" not in inspect.signature(fn).parameters:
            print(
                f"workload {args.workload} does not support --trace "
                "(no 'trace' parameter)",
                file=sys.stderr,
            )
            return 2
        params["trace"] = True
    policy = None
    if args.checkpoint_every is not None or args.checkpoint_dir is not None:
        # Fail fast on half-configured checkpointing: a run that looked
        # checkpointed but wrote nothing is worse than an error.
        if args.checkpoint_every is None or args.checkpoint_dir is None:
            print(
                "--checkpoint-every and --checkpoint-dir must be given "
                "together (e.g. --checkpoint-every 8 --checkpoint-dir ckpt/)",
                file=sys.stderr,
            )
            return 2
        if args.checkpoint_every < 1:
            print(
                "--checkpoint-every expects a positive tick count, got "
                f"{args.checkpoint_every}",
                file=sys.stderr,
            )
            return 2
        written: list[Path] = []
        policy = set_checkpoint_policy(
            args.checkpoint_every, functools.partial(_write_recipe, args, written)
        )
    try:
        result = fn(**params)
    except (ConfigurationError, TypeError, ValueError) as exc:
        # Bad parameter names or infeasible (n, t) combinations: report
        # like every other subcommand — message + nonzero exit, no
        # traceback (the CLI doubles as an automation smoke-check).
        print(f"workload {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        if policy is not None:
            clear_checkpoint_policy()
    trace_dump = None
    if isinstance(result, dict):
        trace_dump = result.pop("trace", None)
    if isinstance(result, dict) and all(isinstance(k, str) for k in result):
        print(
            render_table(
                ["key", "value"],
                [[key, value] for key, value in result.items()],
                title=f"workload {args.workload}",
            )
        )
    else:
        print(result)
    if trace_dump is not None:
        print("\nstructured event log:")
        print(trace_dump)
    if policy is not None:
        for path in written:
            print(f"checkpoint written: {path}")
        if not written:
            print(
                "no checkpoints written (run finished before the first "
                f"multiple of {policy.every} ticks)"
            )
    return 0


# -- checkpoint recipes: a run is a pure function of its params and seed,
# so a checkpoint file holds the ``run`` arguments, a kernel label and tick,
# and the observed state there.  ``resume`` replays and checks it.

RECIPE_VERSION = 1
#: Field -> (JSON type, least value); ``bool`` is not an ``int`` here.
_RECIPE_FIELDS = {
    "version": (int, None), "workload": (str, None), "param": (list, None),
    "trace": (bool, None), "every": (int, 1), "run": (int, 0),
    "tick": (int, 1), "state": (dict, None),
}


class _ReplayDiverged(Exception):
    """Raised inside a resume replay, past the workload's error handling."""


def _write_recipe(
    args: argparse.Namespace, written: list[Path], label: int, kernel: Any
) -> None:
    """The ``run --checkpoint-every`` action: one recipe per boundary."""
    recipe = dict(
        version=RECIPE_VERSION, workload=args.workload, param=args.param,
        trace=args.trace, every=args.checkpoint_every, run=label,
        tick=kernel.tick, state=observed_state(kernel),
    )
    path = Path(args.checkpoint_dir, f"run{label}-tick{kernel.tick:06d}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(recipe), encoding="utf-8")
    written.append(path)


def _read_recipe(path: str) -> dict[str, Any]:
    """Parse and validate a recipe; the error names the bad field."""
    where = f"checkpoint recipe {path}"
    try:
        recipe = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{where}: unreadable as UTF-8 JSON ({exc})") from exc
    for key, (kind, low) in _RECIPE_FIELDS.items():
        value = recipe.get(key) if type(recipe) is dict else None
        if type(value) is not kind or (low is not None and value < low):
            least = "" if low is None else f" >= {low}"
            raise ConfigurationError(
                f"{where}: field {key!r} must be {kind.__name__}{least}, "
                f"got {value!r:.40}"
            )
    if recipe["version"] != RECIPE_VERSION:
        raise ConfigurationError(
            f"{where}: field 'version' is {recipe['version']}, "
            f"this build reads {RECIPE_VERSION}"
        )
    if not all(type(item) is str for item in recipe["param"]):
        raise ConfigurationError(f"{where}: field 'param' must hold KEY=VALUE strings")
    return recipe


def _cmd_resume(args: argparse.Namespace) -> int:
    recipe = _read_recipe(args.path)
    target = (recipe["run"], recipe["tick"])
    where = f"{args.path} at run{target[0]} tick {target[1]}"
    reached = []

    def check(label: int, kernel: Any) -> None:
        """At the recipe's boundary, raise naming the first state entry
        (``activity[3]`` for a list entry) the replay disagrees on."""
        if (label, kernel.tick) != target:
            return
        reached.append(target)
        for key, got in observed_state(kernel).items():
            want = recipe["state"].get(key)
            if want == got:
                continue
            if type(want) is list and type(got) is list and len(want) == len(got):
                index = next(i for i, (a, b) in enumerate(zip(want, got)) if a != b)
                key = f"{key}[{index}]"
            raise _ReplayDiverged(key)

    set_checkpoint_policy(recipe["every"], check)
    replay = argparse.Namespace(
        workload=recipe["workload"], param=recipe["param"],
        trace=recipe["trace"], checkpoint_every=None, checkpoint_dir=None,
    )
    try:
        status = _cmd_run_workload(replay)
    except _ReplayDiverged as exc:
        print(f"replay of {where}: {exc} differs from the recipe", file=sys.stderr)
        return 2
    finally:
        clear_checkpoint_policy()
    if status == 0 and not reached:
        print(f"replay never reached {where}", file=sys.stderr)
        return 2
    if status == 0:
        print(f"\nreplay matched {where}")
    return status


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_all

    tables = run_all(quick=not args.full)
    failures = []
    for table in tables:
        print(table.render())
        print()
        if not table.ok:
            failures.append(table.experiment)
    if failures:
        print(f"DEVIATIONS in: {failures}", file=sys.stderr)
        return 1
    print(f"all {len(tables)} experiments match the paper's formulas.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-fd",
        description=(
            "Reproduction of Borcherding (ICDCS 1995): Efficient Failure "
            "Discovery with Limited Authentication"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keydist", help="run the key distribution protocol (Fig. 1)")
    _add_common(p, with_t=False)
    _add_delivery(p)
    p.set_defaults(func=_cmd_keydist)

    p = sub.add_parser("fd", help="run a failure discovery protocol (Fig. 2)")
    _add_common(p)
    p.add_argument("--protocol", default="chain", choices=list(FD_PROTOCOLS))
    p.add_argument("--auth", default=GLOBAL, choices=[GLOBAL, LOCAL])
    p.add_argument("--value", default="demo-value", type=_coerce)
    _add_delivery(p)
    _add_adversary(p)
    p.set_defaults(func=_cmd_fd)

    p = sub.add_parser("ba", help="run a Byzantine agreement protocol")
    _add_common(p)
    p.add_argument("--protocol", default="extension", choices=["extension", "signed"])
    p.add_argument("--auth", default=GLOBAL, choices=[GLOBAL, LOCAL])
    p.add_argument("--value", default="demo-value")
    _add_delivery(p)
    _add_adversary(p)
    p.set_defaults(func=_cmd_ba)

    p = sub.add_parser("amortize", help="repeated FD runs: the Summary's ledger")
    _add_common(p)
    p.add_argument("--runs", type=int, default=20)
    _add_delivery(p)
    p.set_defaults(func=_cmd_amortize)

    p = sub.add_parser("attack", help="run scenarios from the attack catalogue")
    _add_common(p)
    p.add_argument("--list", action="store_true", help="list scenarios")
    p.add_argument("--name", default="cross-claim-chain")
    p.add_argument("--value", default="demo-value")
    _add_delivery(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("formulas", help="print every complexity claim")
    _add_common(p)
    p.set_defaults(func=_cmd_formulas)

    p = sub.add_parser(
        "list-workloads", help="list the registered sweep workloads"
    )
    p.set_defaults(func=_cmd_list_workloads)

    p = sub.add_parser(
        "run", help="run one registered workload outside pytest"
    )
    p.add_argument("--workload", required=True, help="registered name")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="workload parameter (repeatable); ints/floats/bools coerced",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="dump the run's structured event log (workloads with a "
        "'trace' parameter, e.g. the E12 delivery sweeps)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="write a checkpoint recipe every N ticks (requires "
        "--checkpoint-dir); resume later with 'repro-fd resume PATH'",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="directory for checkpoint recipes (run0-tickNNNNNN.json)",
    )
    p.set_defaults(func=_cmd_run_workload)

    p = sub.add_parser(
        "resume",
        help="replay a run from a checkpoint recipe, check it, finish it",
    )
    p.add_argument("path", help="checkpoint recipe written by --checkpoint-every")
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser(
        "report", help="regenerate all count experiments (E1-E8, E11-E14)"
    )
    p.add_argument("--full", action="store_true", help="full-size sweeps")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.errors.ConfigurationError` from any command — a
    malformed spec string, an infeasible ``(n, t)``, a bad checkpoint
    recipe — prints its message and exits 2, never a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
