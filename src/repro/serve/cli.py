"""``repro-serve``: serve a simulated cache cluster over loopback TCP.

Serve until interrupted (talk to it with nc/telnet:
get/set/delete/stats/quit)::

    python -m repro.serve --listen 127.0.0.1:11311 --shards 4

Measured runs -- open-loop load, faults, retries -- are scenarios:
``python -m repro.experiments run '{..., "serve": {...}}'``.

Configuration mistakes exit with status 2 and a one-line message,
matching ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from repro.cluster import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.serve.server import (
    BACKPRESSURE_POLICIES,
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_DEPTH,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a simulated cache cluster over loopback TCP.",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        required=True,
        help="address to serve on (port 0 picks a free port)",
    )
    parser.add_argument("--workload", default="zipf")
    parser.add_argument("--scheme", default="default")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--replication", type=int, default=ClusterConfig.replication
    )
    parser.add_argument(
        "--rebalance-epoch",
        type=int,
        default=0,
        metavar="N",
        help="attach a load-policy rebalancer every N requests (0 = off)",
    )
    # The server's own defaults (CacheServerProcess's signature).
    parser.add_argument(
        "--backpressure",
        default=BACKPRESSURE_POLICIES[0],
        choices=BACKPRESSURE_POLICIES,
    )
    parser.add_argument("--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH)
    parser.add_argument("--max-batch", type=int, default=DEFAULT_MAX_BATCH)
    parser.add_argument(
        "--queue-deadline",
        type=float,
        default=0.0,
        metavar="S",
        help="server sheds queued commands older than S seconds "
        "(0 = never)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        metavar="N",
        help="per-connection in-flight cap; excess answered BUSY "
        "(0 = unlimited)",
    )
    return parser


def _prepare_cluster(args):
    """The flags as a :class:`~repro.sim.Scenario`, wired by the same
    :func:`~repro.sim.runner.prepare_cluster` a scenario run uses, with
    the rebalancer already attached."""
    from repro.sim import Scenario, load_workload
    from repro.sim.runner import prepare_cluster

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
    )
    trace = load_workload(
        scenario.workload, scale=scenario.scale, seed=scenario.seed
    )
    cluster, _ = prepare_cluster(scenario, trace)
    return cluster


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
    cluster = _prepare_cluster(args)

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
    args = build_parser().parse_args(argv)
    try:
        return _run_listener(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
