"""Command-line entry point for the experiment suite and the Scenario API.

Usage::

    # Paper experiments (legacy spelling still works):
    python -m repro.experiments run fig6 --scale 0.1
    python -m repro.experiments all --scale 0.05 --out results/

    # Declarative scenarios and sweeps (JSON specs):
    python -m repro.experiments run scenario.json
    python -m repro.experiments run '{"scheme": "cliffhanger", "scale": 0.02}'
    python -m repro.experiments sweep sweep.json --workers 4

    # Discovery:
    python -m repro.experiments --list

Configuration mistakes (unknown experiment/scheme/workload, malformed
specs) exit with status 2 and a one-line message instead of a traceback.
Results are printed as plain-text tables and, with ``--out``, also saved
as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.experiments.registry import REGISTRY, get_runner, list_experiments
from repro.sim import SCHEMES, WORKLOADS, Scenario, run_scenario, run_sweep


def _print_listing() -> None:
    """Everything here is read off the registries and the spec classes'
    field declarations; nothing is typed a second time."""
    print("experiments:")
    for experiment_id in list_experiments():
        print(f"  {experiment_id}")
    for heading, registry in (("schemes", SCHEMES), ("workloads", WORKLOADS)):
        print(f"{heading}:")
        for name in registry.names():
            print(f"  {name}: {registry.note(name)}")
    print("scenario blocks:")
    fields = dataclasses.fields(Scenario)
    print("  scenario: " + ", ".join(field.name for field in fields))
    for field in fields:
        if "block" in field.metadata:
            print(f"  {field.name}: {field.metadata['block'].describe()}")


def _load_spec(target: str) -> dict:
    """Parse a JSON spec from an inline string, a file path, or stdin."""
    if target == "-":
        text = sys.stdin.read()
    elif target.lstrip().startswith("{"):
        text = target
    else:
        path = Path(target)
        if not path.exists():
            raise ConfigurationError(
                f"{target!r} is not a known experiment id or spec file; "
                f"known experiments: {', '.join(list_experiments())}"
            )
        text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON spec: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError("spec must be a JSON object")
    return payload


def _run_experiments(args: argparse.Namespace) -> int:
    ids = list_experiments() if args.target == "all" else [args.target]
    for experiment_id in ids:
        runner = get_runner(experiment_id)
        kwargs = {"seed": args.seed if args.seed is not None else 0}
        if args.scale is not None:
            kwargs["scale"] = args.scale
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"[{experiment_id} finished in {elapsed:.1f}s]")
        print()
        if args.out is not None:
            path = result.save(args.out)
            print(f"saved {path}")
    return 0


def _run_scenario_spec(args: argparse.Namespace) -> int:
    spec = _load_spec(args.target)
    if args.scale is not None:
        spec["scale"] = args.scale
    if args.seed is not None:
        spec["seed"] = args.seed
    scenario = Scenario.from_dict(spec)
    result = run_scenario(scenario)
    print(result.render())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "scenario.json"
        path.write_text(result.to_json(indent=2), encoding="utf-8")
        print(f"saved {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.target == "all" or args.target in REGISTRY:
        return _run_experiments(args)
    return _run_scenario_spec(args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_spec(args.target)
    result = run_sweep(spec, workers=args.workers)
    print(result.render())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "sweep.json"
        path.write_text(
            json.dumps(result.to_dict(), indent=2), encoding="utf-8"
        )
        print(f"saved {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffhanger-experiments",
        description=(
            "Reproduce the Cliffhanger paper's tables and figures, run "
            "declarative scenarios, and execute parallel sweeps."
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_entries",
        help="enumerate experiments, schemes and workloads, then exit",
    )
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser(
        "run", help="run one experiment id, 'all', or a scenario JSON spec"
    )
    run_parser.add_argument(
        "target",
        help=(
            "experiment id, 'all', a scenario JSON file, inline JSON, or "
            f"'-' for stdin; known experiments: {', '.join(list_experiments())}"
        ),
    )
    run_parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="trace scale (default: each experiment's full-run default)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed override (default: the spec's seed, else 0)",
    )
    run_parser.add_argument(
        "--out", type=Path, default=None, help="directory for JSON results"
    )
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="expand and run a sweep JSON spec"
    )
    sweep_parser.add_argument(
        "target", help="sweep JSON file, inline JSON, or '-' for stdin"
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: the spec's 'workers', else serial)",
    )
    sweep_parser.add_argument(
        "--out", type=Path, default=None, help="directory for JSON results"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Back-compat: `python -m repro.experiments fig6 --scale 0.1` is
    # sugar for `run fig6 --scale 0.1`.
    if argv and argv[0] not in ("run", "sweep", "--list", "-h", "--help"):
        argv = ["run"] + argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.list_entries:
            _print_listing()
            return 0
        if args.command is None:
            parser.print_usage()
            return 0
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
