#!/usr/bin/env python
"""Reach gate: every ``def`` in ``src/repro`` answers to an entry point.

    python scripts/reach_check.py

Runs what a user or an experiment runs — the entry set — under
``sys.setprofile`` and compares the code objects it called, keyed on
``(co_filename, co_firstlineno, co_name)``, with an AST inventory of
every ``def`` under ``src/repro``.  The entry set:

* every ``repro-fd`` subcommand: ``fd`` across the six FD protocols ×
  seven deliveries (``rush`` and both partition modes included) × twelve
  adversary specs, ``ba`` across the same deliveries and specs,
  ``keydist`` / ``amortize`` / ``attack`` / ``formulas`` /
  ``list-workloads`` / ``report``, ``run`` of every registry workload
  (with ``--trace`` where the workload takes it, ``akd`` under the
  ``noise`` / ``tamper`` / ``equivocate`` / ``rush`` behaviours) and a
  ``run --checkpoint-every`` + ``resume`` round trip;
* the counts ledger's small rows and its memory-probe points (in this
  process, without tracemalloc);
* the seven ``benchmarks/e2e`` operations at tiny scale;
* every script in ``examples/`` and the ``benchmarks/test_bench_e*``
  suites.

Exit 1 when a def is neither reached nor on :data:`ALLOWED`, or when an
:data:`ALLOWED` entry is stale (now reached, or naming no def).  A second
interpreter runs the tier-1 suite (``tests/`` and ``benchmarks/``, with a
fixed hypothesis seed) under the same profile, so the unreached defs
split into *test-only* and *never called*; both totals are printed.
Nothing printed depends on timing or on the string-hash seed.  Takes a
few minutes; CI runs it after the whole counts ledger.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

_TRACED = "resolved by benchmarks/e2e/trace.py"
_ORACLE = "ROADMAP item 18's semantic discovery oracle"
_HOOK = "test hook over a process-wide cache or store"

#: ``module:qualname`` -> why the def stays although no entry point
#: calls it.  An entry goes when its def goes or an entry point reaches it.
ALLOWED: dict[str, str] = {
    # Names benchmarks/e2e/trace.py resolves: a missing one makes the
    # traced e2e run end run_failed, so only a benchmark change drops them.
    "repro.sim.metrics:Metrics.record": _TRACED,
    "repro.sim.metrics:Metrics.record_delivery": _TRACED,
    "repro.sim.metrics:Metrics.record_drop": _TRACED,
    "repro.sim.metrics:Metrics.settle": _TRACED,
    "repro.sim.metrics:Metrics.merge": _TRACED,
    "repro.sim.network:DeliveryModel.arrival_tick": _TRACED,
    "repro.sim.network:DeliveryModel.batch_arrivals": _TRACED,
    "repro.sim.network:SynchronousRounds.arrival_tick": _TRACED,
    # Interface stubs and base-class defaults.
    "repro.crypto.keys:SignatureScheme.generate_keypair": "abstract scheme interface",
    "repro.crypto.keys:SignatureScheme.sign": "abstract scheme interface",
    "repro.crypto.keys:SignatureScheme.verify": "abstract scheme interface",
    "repro.crypto.keys:SignatureScheme.observe_unpickled_secret":
        "base no-op; only simulated-hmac keeps process-local key state",
    "repro.faults.keyattacks:_KeyAttackBase._claimed_keypair": "abstract per-attack hook",
    "repro.sim.network:_LinkStreamDelivery._chunk": "abstract per-model draw hook",
    "repro.sim.node:Protocol.on_round": "abstract round handler",
    "repro.sim.node:Protocol.on_round_batch": "base default for batch-capable protocols",
    "repro.sim.node:Protocol.retune": "base default: rejects every retune parameter",
    "repro.faults.adversary:AdaptiveCorruptible.on_round":
        "round-API delegation for a layer that nests the wrapper and calls on_round",
    "repro.fd.adaptive:AdaptiveTimeoutFDProtocol.retune":
        "its declared max_timeout fork axis (tunable), which no sweep forks yet",
    # Runs only in pool workers, where the profile does not reach.
    "repro.harness.sweep:_apply": "runs in sweep pool workers only",
    # Error paths.
    "repro.sim.kernel:EventKernel._horizon_report": "error message for a run past its horizon",
    "repro.harness.workloads:available_workloads": "builds the unknown-workload message",
    # ROADMAP item 18's oracle (the referee of a later change).
    "repro.fd.oracle:OracleVerdict.sound": _ORACLE,
    "repro.fd.oracle:OracleVerdict.complete": _ORACLE,
    "repro.fd.oracle:OracleVerdict.exact": _ORACLE,
    "repro.fd.oracle:reference_views": _ORACLE,
    "repro.fd.oracle:judge_run": _ORACLE,
    "repro.fd.oracle:certify_protocol": _ORACLE,
    "repro.sim.views:View.differs_from": _ORACLE,
    "repro.sim.views:ReceivedMessage.payload": _ORACLE,
    "repro.sim.views:_unwrap_wire_tuples": _ORACLE,
    # Mux view recording: what a recorded view of a mux consumer holds.
    "repro.sim.batch:BatchPlane.wrapped_for": "recorded views of a mux run",
    "repro.sim.batch:ChannelBatch.envelopes_for":
        "recorded views of a mux run; per-envelope inbox for an instance protocol",
    # Test hooks: reset or inspect process-wide caches and stores.
    "repro.crypto.signing:clear_verify_cache": _HOOK,
    "repro.agreement._paths:clear_path_tables": _HOOK,
    "repro.agreement._paths:path_table_info": _HOOK,
    "repro.agreement.eigtree:SuccinctEigStore.stored_entries": _HOOK,
    # The codec's full domain: values no protocol sends still encode.
    "repro.crypto.encoding:_encode_slow": "encoder path for values the fast path rejects",
    "repro.crypto.encoding:_enc_none": "encodes None",
    "repro.crypto.encoding:_enc_bool": "encodes bools",
    "repro.sim.message:_structural_size":
        "prices a composition wrapper around a compressed payload",
    # The event log's one query.
    "repro.sim.trace:Trace.of_kind": "the trace's query; tier-1 reads event logs through it",
}


class Def(NamedTuple):
    """One ``def`` of the inventory: its ``module:qualname`` key, the
    repo-relative file and the line span ``first .. last`` (decorators
    included, as ``co_firstlineno`` counts them)."""

    key: str
    path: str
    first: int
    last: int


def inventory(package: Path = PACKAGE) -> dict[tuple[str, int, str], Def]:
    """Every ``def`` under ``package``, keyed like a code object:
    ``(absolute file, first line, name)``."""
    defs: dict[tuple[str, int, str], Def] = {}
    root = package.parent
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _collect(tree, [], module, str(path.resolve()), path.relative_to(root.parent), defs)
    return defs


def _collect(node, scope, module, filename, relpath, defs) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            qualname = ".".join([*scope, child.name])
            defs[(filename, first, child.name)] = Def(
                f"{module}:{qualname}", str(relpath), first, child.end_lineno
            )
            _collect(child, [*scope, child.name, "<locals>"], module, filename, relpath, defs)
        elif isinstance(child, ast.ClassDef):
            _collect(child, [*scope, child.name], module, filename, relpath, defs)
        else:
            _collect(child, scope, module, filename, relpath, defs)


@contextlib.contextmanager
def profiled(codes: set):
    """Add every code object that runs inside the block to ``codes``.

    Every profile event's frame belongs to a function that was called,
    so the hook records without looking at the event."""

    def hook(frame, event, arg):
        codes.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def reached_keys(codes, defs) -> set[tuple[str, int, str]]:
    """The inventory keys among ``codes``."""
    keys = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in codes
    }
    return keys & set(defs)


def problems(defs, reached, allowed=ALLOWED) -> list[str]:
    """Gate failures, sorted: a def neither reached nor allowed, and an
    allowlist entry that is reached or names no def."""
    out = []
    by_key = {d.key: (ref, d) for ref, d in defs.items()}
    for ref, d in sorted(defs.items(), key=lambda item: (item[1].path, item[1].first)):
        if ref not in reached and d.key not in allowed:
            out.append(f"unreached, not on ALLOWED: {d.path}:{d.first} {d.key}")
    for key in sorted(allowed):
        if key not in by_key:
            out.append(f"stale ALLOWED entry, names no def: {key}")
        elif by_key[key][0] in reached:
            out.append(f"stale ALLOWED entry, reached: {key}")
    return out


def _lines(defs) -> int:
    """Source lines the defs span, each line counted once (a nested def
    lies inside its parent's span)."""
    return len({(d.path, line) for d in defs for line in range(d.first, d.last + 1)})


# -- the entry set ----------------------------------------------------------

N, T = 7, 2
DELIVERIES = [None, "sync", "bounded:2", "loss:0.1", "rush",
              "partition:0-2|3-6@4", "partition:0-2|3-6@4/defer"]
ADVERSARIES = [None, "1=silent", "1=crash@1-3", "1=noise", "1=rush", "1=drop@0.5",
               "1=tamper@0.5", "1=ack-lie", "0=equivocate", "2=equivocate@1",
               "adaptive:silence-muffled", "adaptive:gag-sender;delivery=loss:0.2"]
#: One point per registry workload, at CLI ``--param`` strings.
WORKLOAD_POINTS: dict[str, list[str]] = {
    "akd": ["n=4", "t=1", "seed=1"],
    "ba": ["n=4", "t=1", "seed=1", "adversary=1=silent"],
    "e11-feasibility": ["n=6", "t=2", "seed=1"],
    "e11-methods": ["n=4", "t=1", "seed=1"],
    "e12-ba": ["n=4", "t=1", "delivery=bounded:2", "faulty=1", "seed=1"],
    "e12-fd": ["n=4", "t=1", "delivery=rush", "faulty=1", "seed=1"],
    "e12-oral": ["n=4", "t=1", "delivery=bounded:2", "faulty=1", "seed=1"],
    "e13-loss": ["n=4", "t=1", "loss=0.3", "faulty=1", "seed=1"],
    "e13-partition": ["n=4", "t=1", "heal=3", "seed=1"],
    "e13-timeout-fd": ["n=4", "t=1", "delivery=loss:0.2", "faulty=1", "seed=1"],
    "e14-adaptive": ["n=4", "t=1", "delivery=loss:0.3", "protocol=timeout",
                     "attack=adaptive:silence-muffled", "seed=1"],
    "e14-equivocation": ["n=4", "t=1", "heal=3", "seed=1"],
    "e4-crossover": ["n=4", "t=1", "seed=1"],
    "e5-optimistic": ["n=4", "t=1", "value=1", "seed=1", "withhold=true"],
    "e6-scenario": ["n=4", "t=1", "scenario=garbling-chain-node", "seed=1"],
    "e8-rounds": ["n=4", "t=1", "seed=1"],
    "e9-chain-bytes": ["n=4", "t=1", "seed=1"],
    "e9-compression": ["n=4", "t=1", "seed=1"],
    "fd": ["n=4", "t=1", "seed=1", "auth=local"],
    "keydist": ["n=4", "seed=1"],
    "oral": ["n=4", "t=1", "seed=1"],
}


def _cli_runs() -> list[list[str]]:
    """Every ``repro-fd`` argument vector of the entry set."""
    import inspect

    from repro.crypto import available_schemes
    from repro.harness import attack_catalogue, get_workload
    from repro.harness.runner import FD_PROTOCOLS
    from repro.harness.workloads import WORKLOADS

    size = ["--n", str(N), "--t", str(T)]
    runs = [["formulas", *size], ["formulas", "--n", "4", "--t", "0"],
            ["list-workloads"], ["attack", "--list"], ["report"]]
    for delivery in DELIVERIES:
        shown = [] if delivery is None else ["--delivery", delivery]
        runs.append(["keydist", "--n", str(N), *shown])
        runs.append(["amortize", *size, "--runs", "3", *shown])
        for adversary in ADVERSARIES:
            chosen = [] if adversary is None else ["--adversary", adversary]
            for protocol in FD_PROTOCOLS:
                runs.append(["fd", *size, "--protocol", protocol, *shown, *chosen])
            for protocol in ("extension", "signed"):
                runs.append(["ba", *size, "--protocol", protocol, *shown, *chosen])
    for scheme in available_schemes():
        for auth in ("global", "local"):
            runs.append(["fd", "--n", "5", "--t", "1", "--auth", auth, "--scheme", scheme])
            runs.append(["ba", "--n", "5", "--t", "1", "--auth", auth, "--scheme", scheme])
    for scenario in attack_catalogue(N, T):
        runs.append(["attack", *size, "--name", scenario.name])
    for protocol in ("smallrange", "smallrange-optimistic"):
        runs.append(["fd", "--n", str(N), "--t", "0", "--protocol", protocol])
    if set(WORKLOAD_POINTS) != set(WORKLOADS):
        raise SystemExit(f"WORKLOAD_POINTS must name every workload: {sorted(WORKLOADS)}")
    for name, params in WORKLOAD_POINTS.items():
        run = ["run", "--workload", name, *(f"--param={p}" for p in params)]
        runs.append(run)
        if "trace" in inspect.signature(get_workload(name)).parameters:
            runs.append([*run, "--trace"])
    akd = ["run", "--workload", "akd", f"--param=n={N}", f"--param=t={T}"]
    for delivery in DELIVERIES[1:]:
        runs.append([*akd, f"--param=delivery={delivery}"])
        for behavior in ("noise", "tamper@0.5", "equivocate", "rush"):
            runs.append([*akd, f"--param=delivery={delivery}",
                         f"--param=adversary=6={behavior}"])
    return runs


def _quiet(call, *args, **kwargs):
    """``call`` with stdout and stderr swallowed; exceptions propagate."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return call(*args, **kwargs)


def run_entry_set() -> None:
    """Run every entry point once (output discarded)."""
    from repro import cli

    for argv in _cli_runs():
        _quiet(cli.main, argv)
    with tempfile.TemporaryDirectory() as ckpt:
        _quiet(cli.main, ["run", "--workload", "e13-timeout-fd", "--param=n=8",
                          "--param=t=1", "--checkpoint-every", "4", "--checkpoint-dir", ckpt])
        recipe = sorted(Path(ckpt).glob("*.json"))[0]
        _quiet(cli.main, ["resume", str(recipe)])

    for path in (REPO_ROOT / "benchmarks", REPO_ROOT / "scripts"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import bench_check
    import regress

    _quiet(regress.run_suite, True)
    for probe in bench_check.memory_probes().values():
        probe()

    from e2e import worker
    from e2e.workloads import WORKLOADS

    for workload in WORKLOADS:
        _quiet(worker.measure, workload.name, seed=0, scale="tiny", repeats=1)

    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        _quiet(runpy.run_path, str(example), run_name="__main__")

    import pytest

    suites = sorted(str(p) for p in (REPO_ROOT / "benchmarks").glob("test_bench_e*.py"))
    _quiet(pytest.main, ["-q", "-p", "no:cacheprovider", *suites])


def tier1_main(out: str) -> None:
    """Run the tier-1 suite under the profile; write the reached keys."""
    import pytest

    defs = inventory()
    codes: set = set()
    with profiled(codes):
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    keys = sorted(reached_keys(codes, defs))
    Path(out).write_text(json.dumps({"status": int(status), "reached": keys}))


def _spawn_tier1(out: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = (f"import sys; sys.path.insert(0, {str(REPO_ROOT / 'scripts')!r}); "
            f"import reach_check; reach_check.tier1_main({out!r})")
    return subprocess.Popen([sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _report(title: str, group: list[Def]) -> None:
    print(f"{title}: {len(group)} defs, {_lines(group)} lines")
    for d in group:
        print(f"  {d.path}:{d.first} {d.key}  [{ALLOWED.get(d.key, 'NOT ALLOWED')}]")


def main() -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    defs = inventory()
    with tempfile.TemporaryDirectory() as scratch:
        out = str(Path(scratch, "tier1.json"))
        tier1 = _spawn_tier1(out)
        codes: set = set()
        try:
            with profiled(codes):
                run_entry_set()
        finally:
            tier1.wait()
        reached = reached_keys(codes, defs)
        tested = json.loads(Path(out).read_text()) if tier1.returncode == 0 else None
    unreached = sorted((defs[ref] for ref in defs if ref not in reached),
                       key=lambda d: (d.path, d.first))
    print(f"reach: {len(defs)} defs ({_lines(defs.values())} lines) in src/repro; "
          f"the entry set reaches {len(reached)}")
    if tested is None:
        print("tier-1 pass did not finish: test-only and never-called totals unknown")
        _report("unreached", unreached)
    else:
        by_test = {defs[tuple(ref)].key for ref in tested["reached"]}
        print(f"tier-1 pass: pytest exit {tested['status']}")
        _report("never called", [d for d in unreached if d.key not in by_test])
        _report("test-only", [d for d in unreached if d.key in by_test])
    failures = problems(defs, reached)
    for line in failures:
        print(f"FAIL: {line}")
    print("reach gate: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
