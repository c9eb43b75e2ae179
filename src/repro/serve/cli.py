"""``repro-serve``: the live-serving entry point.

Two modes::

    # Measure: spin up the in-process server, drive it open-loop,
    # print the serve report (and the cluster hit rates it produced):
    python -m repro.serve --workload zipf --shards 4 --rate 5000 \
        --duration 1.0 --transport memory

    # Listen: serve a cluster over loopback TCP until interrupted
    # (talk to it with nc/telnet: get/set/delete/stats/quit):
    python -m repro.serve --listen 127.0.0.1:11311 --shards 4

Configuration mistakes exit with status 2 and a one-line message,
matching ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional

from repro.cluster import ClusterConfig, FaultSchedule
from repro.common.errors import ConfigurationError
from repro.common.spec import choices_of
from repro.serve.harness import ServeConfig, run_serve
from repro.serve.loadgen import RetryPolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a simulated cache cluster over the wire.",
    )

    def spec_flag(flag: str, block, field: str, **kwargs) -> None:
        """A flag whose type, default and choices are those the spec
        block declares for ``field``."""
        default = getattr(block, field)
        parser.add_argument(
            flag,
            type=type(default),
            default=default,
            choices=choices_of(block, field) or None,
            **kwargs,
        )

    parser.add_argument("--workload", default="zipf")
    parser.add_argument("--scheme", default="default")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=4)
    spec_flag("--replication", ClusterConfig, "replication")
    parser.add_argument(
        "--rebalance-epoch",
        type=int,
        default=0,
        metavar="N",
        help="attach a load-policy rebalancer every N requests (0 = off)",
    )
    spec_flag("--rate", ServeConfig, "rate")
    spec_flag("--duration", ServeConfig, "duration_s")
    spec_flag("--arrivals", ServeConfig, "arrivals")
    spec_flag("--backpressure", ServeConfig, "backpressure")
    spec_flag("--connections", ServeConfig, "connections")
    spec_flag("--queue-depth", ServeConfig, "queue_depth")
    spec_flag("--max-batch", ServeConfig, "max_batch")
    spec_flag("--transport", ServeConfig, "transport")
    spec_flag(
        "--retry-attempts",
        RetryPolicy,
        "max_attempts",
        metavar="N",
        help="client attempts per request (1 = fire once, no retries)",
    )
    spec_flag(
        "--retry-deadline",
        RetryPolicy,
        "deadline_s",
        metavar="S",
        help="give up retrying S seconds after the scheduled arrival "
        "(0 = no deadline)",
    )
    spec_flag(
        "--hedge-after",
        RetryPolicy,
        "hedge_after_s",
        metavar="S",
        help="hedge GETs onto a second connection after S seconds "
        "(0 = off)",
    )
    spec_flag(
        "--queue-deadline",
        ServeConfig,
        "queue_deadline_s",
        metavar="S",
        help="server sheds queued commands older than S seconds "
        "(0 = never)",
    )
    spec_flag(
        "--max-inflight",
        ServeConfig,
        "max_inflight",
        metavar="N",
        help="per-connection in-flight cap; excess answered BUSY "
        "(0 = unlimited)",
    )
    parser.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="SHARD@OFFSET",
        help="crash SHARD after OFFSET served requests (repeatable)",
    )
    parser.add_argument(
        "--restart",
        action="append",
        default=[],
        metavar="SHARD@OFFSET",
        help="restart SHARD cold after OFFSET served requests "
        "(repeatable)",
    )
    spec_flag(
        "--fault-policy",
        FaultSchedule,
        "policy",
        help="routing for dead shards' keys",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve loopback TCP forever instead of running a "
        "measurement (port 0 picks a free port)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    return parser


def _parse_events(args) -> List[dict]:
    events = []
    for kind, specs in (("crash", args.crash), ("restart", args.restart)):
        for spec in specs:
            shard_text, sep, offset_text = spec.partition("@")
            try:
                if not sep:
                    raise ValueError(spec)
                events.append(
                    {
                        "kind": kind,
                        "shard": int(shard_text),
                        "at": int(offset_text),
                    }
                )
            except ValueError:
                raise ConfigurationError(
                    f"--{kind} wants SHARD@OFFSET, got {spec!r}"
                ) from None
    return events


def _prepare_cluster(args):
    """The flags as a :class:`~repro.sim.Scenario`, wired by the same
    :func:`~repro.sim.runner.prepare_cluster` a scenario run uses:
    ``(cluster, compiled)`` with the rebalancer and the fault injector
    already attached."""
    from repro.sim import Scenario, load_workload
    from repro.sim.runner import prepare_cluster

    events = _parse_events(args)
    scenario = Scenario(
        workload=args.workload,
        scheme=args.scheme,
        scale=args.scale,
        seed=args.seed,
        cluster={
            "shards": args.shards,
            "replication": args.replication,
        },
        rebalance=(
            {"epoch_requests": args.rebalance_epoch, "policy": "load"}
            if args.rebalance_epoch
            else None
        ),
        faults=(
            {"events": events, "policy": args.fault_policy}
            if events
            else None
        ),
    )
    trace = load_workload(
        scenario.workload, scale=scenario.scale, seed=scenario.seed
    )
    return prepare_cluster(scenario, trace)


def _run_measurement(args) -> int:
    cluster, compiled = _prepare_cluster(args)
    retry = None
    if args.retry_attempts > 1 or args.hedge_after > 0:
        retry = {
            "max_attempts": max(1, args.retry_attempts),
            "deadline_s": args.retry_deadline,
            "hedge_after_s": args.hedge_after,
        }
    config = ServeConfig(
        rate=args.rate,
        duration_s=args.duration,
        arrivals=args.arrivals,
        backpressure=args.backpressure,
        connections=args.connections,
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        transport=args.transport,
        queue_deadline_s=args.queue_deadline,
        max_inflight=args.max_inflight,
        retry=retry,
    )
    report = run_serve(cluster, compiled, config, seed=args.seed)
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    from repro.cluster.cluster import render_cluster_report

    cluster_payload = cluster.report().to_dict()
    cluster_payload["serve"] = payload
    print(f"served {args.workload} on {args.shards} shard(s):")
    for line in render_cluster_report(cluster_payload):
        print(line)
    return 0


def _run_listener(args) -> int:
    from repro.serve.server import CacheServerProcess
    from repro.serve.service import CacheService

    host, _, port_text = args.listen.rpartition(":")
    if not host:
        raise ConfigurationError(
            f"--listen wants HOST:PORT, got {args.listen!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"--listen wants a numeric port, got {port_text!r}"
        )
    cluster, _ = _prepare_cluster(args)

    async def serve_forever() -> None:
        server = CacheServerProcess(
            CacheService(cluster),
            backpressure=args.backpressure,
            queue_depth=args.queue_depth,
            max_batch=args.max_batch,
            queue_deadline_s=args.queue_deadline,
            max_inflight=args.max_inflight,
        )
        bound_host, bound_port = await server.start_tcp(host, port)
        print(f"serving on {bound_host}:{bound_port} (Ctrl-C stops)")
        sys.stdout.flush()
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Graceful shutdown: stop accepting, drain the queue and
        # in-flight connections, then exit 0 -- clients with pipelined
        # requests in the queue still get their responses.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except (NotImplementedError, RuntimeError):
                # Platforms without loop signal support (or non-main
                # threads in tests) fall back to KeyboardInterrupt.
                break
        try:
            await stopping.wait()
        finally:
            await server.shutdown()
        print("stopped (drained)")

    try:
        asyncio.run(serve_forever())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.listen is not None:
            return _run_listener(args)
        return _run_measurement(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
