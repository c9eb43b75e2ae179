"""Which ``src/repro`` functions the program's entry points run.

Every function under ``src/repro`` ships with an entry point that runs
it, or with a one-line reason in the allowlist. :data:`RECORD_PATH`
holds both: ``reached``, the functions the audit below saw run, and
``allowlist``, ``{function: reason}``. A function is named
``path::qualname``, the path relative to ``src/repro`` and the
qualified name as Python spells it (``Outer.<locals>.inner``), never by
line number. Two kinds are exempt by rule: ``@abstractmethod`` stubs and
dunder methods.

The tier-1 guard (``tests/test_reachability.py``) only parses ``src/``
with :mod:`ast` (:func:`problems`): it fails on a function that is
neither reached, allowlisted nor exempt, and on a recorded name that no
longer exists.

The audit runs the entry points listed in :func:`entry_points` -- the
experiments CLI (``--list``, ``run all`` on a cold trace cache, both
example sweeps, scenarios, ``--out``), the examples, a ``repro.serve
--listen`` session, ``repro.lint`` and the performance ledger's smoke
runs -- each as its own interpreter. A ``sitecustomize`` module on the
child's ``PYTHONPATH`` installs one :func:`tests.profile_hook.src_hook`
in every interpreter the entry point starts, its threads and its forked
children included, and each process appends every function it sees run
for the first time to its own file at once, so a worker killed by
``Pool.terminate`` still leaves its record. (The ledger starts its
server with a ``PYTHONPATH`` of its own, so that one process runs
unhooked; :func:`serve_session` drives the same listener.)

    PYTHONPATH=src python -m tests.reachability           # report
    PYTHONPATH=src python -m tests.reachability --check   # drift fails
    PYTHONPATH=src python -m tests.reachability --record  # rewrite

The audit takes a few minutes; CI's examples-smoke job runs
``--check``.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from tests.profile_hook import SRC, src_hook

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reachability.json")

#: Most seconds one entry point may take under the hook.
TIMEOUT_S = 900


# -- what src/ defines ----------------------------------------------------


def _exemption(node: ast.AST) -> Optional[str]:
    """The rule that exempts a function from needing an entry point."""
    name = node.name  # type: ignore[attr-defined]
    if name.startswith("__") and name.endswith("__"):
        return "dunder"
    for decorator in node.decorator_list:  # type: ignore[attr-defined]
        target = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(
            decorator, "id", None
        )
        if target == "abstractmethod":
            return "abstract"
    return None


def _collect(node: ast.AST, prefix: str, path: str, found: Dict[str, Optional[str]]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{path}::{prefix}{child.name}"
            rule = _exemption(child)
            # Same-named definitions (a property's getter and setter)
            # are exempt only together.
            found[name] = rule if found.get(name, rule) else None
            _collect(child, f"{prefix}{child.name}.<locals>.", path, found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, f"{prefix}{child.name}.", path, found)
        else:
            _collect(child, prefix, path, found)


def functions() -> Dict[str, Optional[str]]:
    """``{"path::qualname": exemption rule or None}`` for every function
    defined under ``src/repro``, nested ones included."""
    found: Dict[str, Optional[str]] = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        _collect(tree, "", os.path.relpath(path, SRC).replace(os.sep, "/"), found)
    return found


def load() -> Tuple[Set[str], Dict[str, str]]:
    """The recorded reached set and the allowlist."""
    with open(RECORD_PATH, encoding="utf-8") as handle:
        record = json.load(handle)
    return set(record["reached"]), record["allowlist"]


def problems() -> List[str]:
    """Every function with neither an entry point, an allowlist reason
    nor an exemption, and every recorded name that is stale."""
    defined = functions()
    reached, allowlist = load()
    found = []
    for name, rule in sorted(defined.items()):
        if rule is None and name not in reached and name not in allowlist:
            found.append(f"{name}: no entry point runs it and the allowlist has no reason")
    for name in sorted(reached | set(allowlist)):
        if name not in defined:
            found.append(f"{name}: recorded, but src/ no longer defines it")
        elif defined[name] is not None:
            found.append(f"{name}: exempt by rule ({defined[name]}), so not recorded")
    for name, reason in sorted(allowlist.items()):
        if name in reached:
            found.append(f"{name}: reached, so it needs no allowlist entry")
        if not reason.strip():
            found.append(f"{name}: allowlisted without a reason")
    return found


# -- the audit ------------------------------------------------------------

_SITECUSTOMIZE = """\
import sys
sys.path.append({root!r})
from tests.reachability import follow
follow({records!r})
"""


def follow(records: str) -> None:
    """Install the hook in this interpreter and every thread it starts:
    each function under ``src/repro`` seen running for the first time
    is appended to ``records/<pid>``, flushed at once. A forked child
    keeps the hook and the parent's seen set, and writes its own file."""
    seen: Set[object] = set()
    handle = None
    pid = 0

    def record(event: str, code) -> None:
        nonlocal handle, pid
        if event != "call" or code in seen:
            return
        seen.add(code)
        if pid != os.getpid():
            pid = os.getpid()
            handle = open(os.path.join(records, str(pid)), "a", encoding="utf-8")
        handle.write(f"{code.co_filename[len(SRC):]}::{code.co_qualname}\n")
        handle.flush()

    hook = src_hook(record)
    sys.setprofile(hook)
    threading.setprofile(hook)


def _python(*argv: str) -> List[str]:
    return [sys.executable, *argv]


def _scenario(**spec: object) -> str:
    return json.dumps(spec)


Step = Callable[[Dict[str, str]], None]


def _command(*argv: str, status: int = 0) -> Step:
    def run(env: Dict[str, str]) -> None:
        done = subprocess.run(_python(*argv), cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
        if done.returncode != status:
            raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}, not {status}")

    return run


def entry_points(scratch: str) -> List[Tuple[str, Step]]:
    """``(label, step)`` of each entry point the audit runs, in order:
    the first runs on a cold trace cache, the rest share it."""
    experiments = ("-m", "repro.experiments")
    crash_and_restart = {
        "events": [
            {"kind": "crash", "shard": 1, "at": 480},
            {"kind": "restart", "shard": 1, "at": 840},
        ]
    }
    steps = [
        ("run all", _command(*experiments, "run", "all", "--scale", "0.012", "--seed", "0")),
        ("--list", _command(*experiments, "--list")),
        ("run fig6 --out", _command(*experiments, "run", "fig6", "--scale", "0.012",
                                    "--seed", "0", "--out", os.path.join(scratch, "fig6"))),
        ("parallel replay", _command(*experiments, "run", _scenario(
            workload="flash-crowd", scale=0.1, seed=0,
            workload_params={"apps": 2, "num_keys": 4000, "requests_per_app": 8000},
            cluster={"shards": 4, "virtual_nodes": 4, "parallel_workers": 2},
        ))),
        ("live chaos serve", _command(*experiments, "run", _scenario(
            workload="zipf", scale=0.05,
            cluster={"shards": 4},
            serve={"rate": 3000, "duration_s": 0.4},
            faults=crash_and_restart,
        ))),
        # A split that hurts is reverted (app 19 at sensitivity's scale).
        ("cliff-only scenario --out", _command(*experiments, "run", _scenario(
            workload="memcachier", scheme="cliff-only", scale=0.25,
            workload_params={"apps": [19]},
        ), "--out", os.path.join(scratch, "cliff-only"))),
        # Rebalancing shrinks and grows every engine kind's budget.
        ("lsm cluster rebalance", _command(*experiments, "run", _scenario(
            workload="facebook", scheme="lsm", scale=0.05,
            cluster={"shards": 2}, rebalance={"epoch_requests": 500, "policy": "load"},
        ))),
        ("planned cluster rebalance", _command(*experiments, "run", _scenario(
            workload="memcachier", scheme="planned", plans="solver", scale=0.012,
            workload_params={"apps": [5, 19]},
            cluster={"shards": 2}, rebalance={"epoch_requests": 2000, "policy": "load"},
        ))),
        ("stale routing plan on disk", stale_plan),
        ("repro.serve --listen session", serve_session("default")),
        ("repro.serve --listen --scheme hill session", serve_session("hill")),
    ]
    for spec in ("sweep_spec.json", "faults_spec.json"):
        steps.append((f"sweep {spec}", _command(
            *experiments, "sweep", os.path.join("examples", spec), "--workers", "2",
            "--out", os.path.join(scratch, spec),
        )))
    for example in ("quickstart", "solver_vs_cliffhanger", "multi_tenant_rebalancing",
                    "cliff_scaling_demo", "sweep_demo"):
        steps.append((f"examples/{example}.py",
                      _command(os.path.join("examples", f"{example}.py"))))
    steps.append(("repro.lint src", _command("-m", "repro.lint", "src")))
    steps.append(("repro.lint on its failing fixtures", _command(
        "-m", "repro.lint", os.path.join("tests", "lint", "fixtures"), status=1)))
    for workload in ("replay_paper", "cluster_replay", "serve_read", "serve_write"):
        for trace in ("0", "1"):
            steps.append((f"ledger {workload} --trace {trace}", _command(
                os.path.join("benchmarks", "ledger", "run.py"), "--workload", workload,
                "--seed", "0", "--trace", trace, "--smoke",
                "--out", os.path.join(scratch, "ledger"),
            )))
    return steps


def stale_plan(env: Dict[str, str]) -> None:
    """A routing plan file on disk that belongs to another ring: the run
    that loads it routes afresh and writes the right plan over it."""
    plans = os.path.join(env["REPRO_TRACE_CACHE"], "*plan.npz")

    def run_on(shards: int) -> str:
        before = set(glob.glob(plans))
        _command("-m", "repro.experiments", "run", _scenario(
            workload="zipf", scale=0.02, seed=7, cluster={"shards": shards},
        ))(env)
        (written,) = set(glob.glob(plans)) - before
        return written

    two, three = run_on(2), run_on(3)
    shutil.copyfile(three, two)
    _command("-m", "repro.experiments", "run", _scenario(
        workload="zipf", scale=0.02, seed=7, cluster={"shards": 2},
    ))(env)


def _exchange(address: Tuple[str, int], data: bytes, half_close: bool = False) -> bytes:
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def serve_session(scheme: str) -> Step:
    """A ``repro.serve --listen`` session: set / get / delete / stats, a
    bad command, a bad key, an oversized set (its data block swallowed),
    ``quit``; a half-closed
    client; a client that stops reading its replies until the server
    pauses writing; then SIGINT."""

    def run(env: Dict[str, str]) -> None:
        server = subprocess.Popen(
            _python("-m", "repro.serve", "--listen", "127.0.0.1:0", "--scheme", scheme,
                    "--scale", "0.02", "--shards", "2", "--rebalance-epoch", "50"),
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stdout.readline()
            host, port = banner.split()[2].rsplit(":", 1)
            address = (host, int(port))
            # A tenant's key prefix reaches that tenant's engines.
            reply = _exchange(address, b"set zipf01:k 0 0 2\r\nhi\r\nget zipf01:k\r\n"
                              b"delete zipf01:k\r\ndelete zipf01:k\r\nstats\r\nbogus\r\n"
                              b"get " + b"x" * 300 + b"\r\nset big 0 0 1048577\r\n"
                              + b"x" * 1048577 + b"\r\nquit\r\n")
            assert reply.startswith(b"STORED\r\nVALUE zipf01:k 0 2\r\nhi\r\nEND\r\n"
                                    b"DELETED\r\nNOT_FOUND\r\n"), reply
            assert reply.endswith(b"ERROR\r\nCLIENT_ERROR bad key\r\n"
                                  b"SERVER_ERROR object too large for cache\r\n"), reply
            assert _exchange(address, b"get k\r\n", half_close=True) == b"END\r\n"
            value = b"v" * 500_000
            with socket.create_connection(address, timeout=60) as sock:
                sock.sendall(b"set big 0 0 %d\r\n%s\r\n" % (len(value), value))
                sock.sendall(b"get big\r\n" * 64)
                time.sleep(1.0)  # the replies pile up behind the unread socket
                sock.sendall(b"quit\r\n")
                received = 0
                while True:
                    chunk = sock.recv(1 << 20)
                    if not chunk:
                        break
                    received += len(chunk)
            assert received > 64 * len(value), received
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    return run


def audit(verbose: bool = True) -> Set[str]:
    """The functions under ``src/repro`` that the entry points run,
    exempt ones left out."""
    with tempfile.TemporaryDirectory() as scratch:
        hook_path = os.path.join(scratch, "hook")
        records = os.path.join(scratch, "records")
        os.makedirs(hook_path)
        os.makedirs(records)
        with open(os.path.join(hook_path, "sitecustomize.py"), "w", encoding="utf-8") as handle:
            handle.write(_SITECUSTOMIZE.format(root=ROOT, records=records))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((hook_path, os.path.join(ROOT, "src"))),
            REPRO_TRACE_CACHE=os.path.join(scratch, "traces"),
        )
        for label, step in entry_points(scratch):
            started = time.perf_counter()
            step(env)
            if verbose:
                print(f"{time.perf_counter() - started:7.1f}s  {label}", file=sys.stderr)
        seen: Set[str] = set()
        for path in glob.glob(os.path.join(records, "*")):
            with open(path, encoding="utf-8") as handle:
                seen.update(line.rstrip("\n") for line in handle)
    return {name for name, rule in functions().items() if rule is None and name in seen}


def write(reached: Set[str], allowlist: Dict[str, str]) -> None:
    with open(RECORD_PATH, "w", encoding="utf-8") as handle:
        json.dump({"reached": sorted(reached), "allowlist": dict(sorted(allowlist.items()))},
                  handle, indent=1)
        handle.write("\n")


def main(argv: List[str]) -> int:
    if argv not in ([], ["--check"], ["--record"]):
        print("usage: python -m tests.reachability [--check | --record]", file=sys.stderr)
        return 2
    reached = audit()
    recorded, allowlist = load()
    defined = functions()
    for name in sorted(recorded - reached):
        print(f"no longer reached: {name}")
    for name in sorted(reached - recorded):
        print(f"newly reached: {name}")
    unlisted = sorted(
        name for name, rule in defined.items()
        if rule is None and name not in reached and name not in allowlist
    )
    for name in unlisted:
        print(f"unreached, no reason: {name}")
    exempt = sum(rule is not None for rule in defined.values())
    print(f"{len(defined)} functions: {len(reached)} reached, {len(allowlist)} "
          f"allowlisted, {exempt} exempt by rule, {len(unlisted)} unaccounted for")
    if argv == ["--record"]:
        write(reached, allowlist)
        return 0
    return 1 if argv == ["--check"] and reached != recorded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
