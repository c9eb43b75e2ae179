"""Run one workload of the performance ledger.

    python3 benchmarks/ledger/run.py --workload serve_read --seed 0 \
        --seconds 20 --trace 0

Run from the root of a checkout. One run is one fresh interpreter with a
fresh temporary ``REPRO_TRACE_CACHE`` inside the checkout; that
interpreter is a child of this command, which outlives it only to see
that every process the run started -- the server, the parallel replay's
workers, ``multiprocessing``'s resource tracker -- has ended. With
``--trace 0`` it measures the end-to-end metrics, with ``--trace 1``
the per-layer metrics (see README.md). Either way it runs every
correctness check, prints each metric with its unit, median, quartiles
and sample count, writes the full result to ``--out``, and prints one
JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Nothing a run does may outlive this (the contract allows 180 s).
WATCHDOG_S = 170
#: The supervisor kills a run that ignored its own watchdog after this.
SUPERVISOR_DEADLINE_S = 174
#: How long what a finished run leaves behind gets to exit by itself
#: (the resource tracker does, on the end of its pipe) before SIGKILL.
LINGER_GRACE_S = 2.0
#: Set in the environment of the interpreter that does the measuring.
CHILD_MARK = "LEDGER_RUN_CHILD"


def parse_arguments(argv: List[str]) -> argparse.Namespace:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=HERE / "out", help="result directory"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs and phases: exercises every code path and "
        "check in seconds; the numbers mean nothing",
    )
    parser.add_argument(
        "--pin-digest",
        action="store_true",
        help="rewrite digest.json from this run instead of checking it",
    )
    return parser.parse_args(argv)


def provenance(arguments: argparse.Namespace) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit or "unknown",
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model or "unknown",
        "load_average_1m": os.getloadavg()[0],
        "smoke": arguments.smoke,
        "trace": bool(arguments.trace),
    }


def own_children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def supervise(argv: List[str]) -> int:
    """Run the measurement in a child interpreter; return its exit code
    only once no process it started is left.

    This process makes itself the subreaper of its descendants, so
    whatever the run orphans (it should orphan nothing but the resource
    tracker, which exits when the run does) is re-parented here, where
    it can be waited for -- and killed, if it does not end by itself.
    """
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("error: cannot become a subreaper", file=sys.stderr)
        return 2

    def terminated(signum, frame) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve())] + argv,
        env=dict(os.environ, **{CHILD_MARK: "1"}),
    )
    try:
        code = child.wait(timeout=SUPERVISOR_DEADLINE_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        code = 3
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        kill_after = time.monotonic() + LINGER_GRACE_S
        while True:
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                break  # no child left, running or zombie
            if time.monotonic() >= kill_after:
                for pid in own_children():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.005)
    return code


def main(argv: List[str]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    arguments = parse_arguments(argv)
    if os.environ.get(CHILD_MARK) != "1":
        return supervise(argv)

    from measure import Run

    arguments.out.mkdir(parents=True, exist_ok=True)
    scratch = arguments.out / f"tmp-{os.getpid()}"
    scratch.mkdir()
    run = Run(arguments, scratch, provenance(arguments))

    def give_up(signum, frame) -> None:
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(WATCHDOG_S)
    try:
        result = run.execute()
    finally:
        signal.alarm(0)
        run.reap()
        shutil.rmtree(scratch, ignore_errors=True)
    label = "traced" if arguments.trace else "plain"
    name = f"{arguments.workload}-seed{arguments.seed}-{label}.json"
    (arguments.out / name).write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric: {"value": entry["value"], "unit": entry["unit"]}
                    for metric, entry in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def report(result: Dict[str, object]) -> None:
    """Every metric by name: value, unit, quartiles, sample count."""
    print(
        f"workload {result['workload']} seed {result['provenance']['seed']} "
        f"({'traced' if result['provenance']['trace'] else 'untraced'}"
        f"{', SMOKE' if result['provenance']['smoke'] else ''})"
    )
    for name, entry in result["metrics"].items():
        line = f"  {name:42s} {entry['value']:>14.6g} {entry['unit']}"
        if "samples" in entry:
            line += (
                f"   [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                f"n={entry['samples']}]"
            )
        print(line)
    print(
        f"  operations attempted {result['attempted']}, failed {result['failed']}"
    )
    print(f"  checks run: {', '.join(result['checks'])}")
    for note in result["notes"]:
        print(f"  note: {note}")
    if not result["valid"]:
        print("  INVALID: " + "; ".join(result["invalid_because"]))
    if not result["correct"]:
        print("  INCORRECT: " + "; ".join(result["errors"]))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(
        f"  run took {time.perf_counter() - _STARTED:.1f} s wall, "
        f"{usage.ru_utime + usage.ru_stime:.1f} s CPU"
    )


_STARTED = time.perf_counter()

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
