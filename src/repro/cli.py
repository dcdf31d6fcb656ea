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
    repro-fd run --workload e12-fd --param n=7 --param t=2 \\
        --param delivery=rush --param faulty=1 --trace  # dump the event log

``keydist``, ``fd``, ``ba`` and ``attack --name`` are aliases of ``run
--workload keydist|fd|ba|e6-scenario``: their flags become the
workload's params, and they print the same key/value table of measured
counts (``formulas`` prints the paper's closed forms).  A run exits 1
when its workload's verdict key reads False (an FD/BA condition
violated, a count off the paper's), so the CLI can serve as a
smoke-check in automation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

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
from .crypto import DEFAULT_SCHEME, available_schemes
from .errors import ConfigurationError
from .harness import GLOBAL, LOCAL, AmortizedSession, attack_catalogue, get_workload
from .harness.runner import FD_PROTOCOLS
from .harness.workloads import WORKLOADS
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
    if not args.list:
        return _cmd_alias("e6-scenario", args)
    print(
        render_table(
            ["name", "faulty nodes", "expects discovery", "description"],
            [
                [s.name, sorted(s.faulty), s.expects_discovery, s.description]
                for s in attack_catalogue(args.n, args.t)
            ],
            title="attack catalogue (paper section 3.2 + Fig. 2 checks)",
        )
    )
    return 0


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


def _run(name: str, params: dict[str, object], footer: Callable[[], None] | None = None) -> int:
    """Run one registry workload and print its record as a key/value
    table, then its event log if it returned one, then ``footer()``.

    Returns the exit code: 2 on a :class:`ConfigurationError` (an
    infeasible ``(n, t)``, a malformed spec), 1 on a parameter the
    workload does not take or when the entry's verdict key reads False,
    else 0.
    """
    fn = get_workload(name)
    try:
        result = fn(**params)
    except (ConfigurationError, TypeError, ValueError) as exc:
        # Message + nonzero exit, no traceback: the CLI doubles as an
        # automation smoke-check.
        print(f"workload {name}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1
    if not isinstance(result, dict):  # a checkpoint_at prefix snapshot
        print(result)
    else:
        trace_dump = result.pop("trace", None)
        print(render_table(["key", "value"], list(map(list, result.items())),
                           title=f"workload {name}"))
        if trace_dump is not None:
            print(f"\nstructured event log:\n{trace_dump}")
    if footer is not None:
        footer()
    verdict = WORKLOADS[name].verdict
    return 1 if verdict is not None and not result[verdict] else 0


def _cmd_alias(workload: str, args: argparse.Namespace) -> int:
    """A scenario subcommand as ``run --workload``: each flag given (or
    defaulted) becomes a param, its value coerced as ``--param`` values
    are; ``attack --name`` is ``e6-scenario``'s ``scenario``."""
    params = {
        "scenario" if key == "name" else key: (
            _coerce(value) if isinstance(value, str) else value
        )
        for key, value in vars(args).items()
        if key not in ("command", "func", "list") and value is not None
    }
    return _run(workload, params)


def _cmd_run_workload(args: argparse.Namespace) -> int:
    import inspect

    params = _parse_workload_params(args.param)
    if args.trace:
        if "trace" not in inspect.signature(get_workload(args.workload)).parameters:
            print(
                f"workload {args.workload} does not support --trace "
                "(no 'trace' parameter)",
                file=sys.stderr,
            )
            return 2
        params["trace"] = True
    policy = footer = None
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

        def footer() -> None:
            for path in written:
                print(f"checkpoint written: {path}")
            if not written:
                print(
                    "no checkpoints written (run finished before the first "
                    f"multiple of {policy.every} ticks)"
                )

    try:
        return _run(args.workload, params, footer)
    finally:
        if policy is not None:
            clear_checkpoint_policy()


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
    if status == 2:
        return status
    if not reached:
        print(f"replay never reached {where}", file=sys.stderr)
        return 2
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
    p.set_defaults(func=functools.partial(_cmd_alias, "keydist"))

    p = sub.add_parser("fd", help="run a failure discovery protocol (Fig. 2)")
    _add_common(p)
    p.add_argument("--protocol", default="chain", choices=list(FD_PROTOCOLS))
    p.add_argument("--auth", default=GLOBAL, choices=[GLOBAL, LOCAL])
    p.add_argument("--value")
    _add_delivery(p)
    _add_adversary(p)
    p.set_defaults(func=functools.partial(_cmd_alias, "fd"))

    p = sub.add_parser("ba", help="run a Byzantine agreement protocol")
    _add_common(p)
    p.add_argument("--protocol", default="extension", choices=["extension", "signed"])
    p.add_argument("--auth", default=GLOBAL, choices=[GLOBAL, LOCAL])
    p.add_argument("--value")
    _add_delivery(p)
    _add_adversary(p)
    p.set_defaults(func=functools.partial(_cmd_alias, "ba"))

    p = sub.add_parser("amortize", help="repeated FD runs: the Summary's ledger")
    _add_common(p)
    p.add_argument("--runs", type=int, default=20)
    _add_delivery(p)
    p.set_defaults(func=_cmd_amortize)

    p = sub.add_parser("attack", help="run scenarios from the attack catalogue")
    _add_common(p)
    p.add_argument("--list", action="store_true", help="list scenarios")
    p.add_argument("--name", default="cross-claim-chain")
    p.add_argument("--value")
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
