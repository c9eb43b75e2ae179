"""The ``repro-serve`` CLI: the listener's flags, their effect, shutdown.

The subprocess tests run the real listener. The graceful-shutdown one
SIGINTs it mid-pipeline: every queued response must arrive before the
socket closes and the process must exit 0 -- the drain contract, not a
timing assertion.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from collections import OrderedDict

import pytest

from repro.serve.cli import _prepare_cluster, build_parser, main

LISTEN = ["--listen", "127.0.0.1:0"]

#: The flags of the retired measurement mode, each with a sample value.
#: Measured runs are scenarios with a ``serve`` block now.
REMOVED_FLAGS = [
    ["--rate", "5000"],
    ["--duration", "1.0"],
    ["--arrivals", "fixed"],
    ["--connections", "2"],
    ["--transport", "tcp"],
    ["--retry-attempts", "3"],
    ["--retry-deadline", "0.5"],
    ["--hedge-after", "0.01"],
    ["--json"],
    ["--crash", "1@10"],
    ["--restart", "1@50"],
    ["--fault-policy", "miss-through"],
]

#: The server's retired overload modes, each with a sample value: the
#: one overload rule left is queue backpressure.
REMOVED_OVERLOAD_FLAGS = [
    ["--backpressure", "shed"],
    ["--queue-deadline", "0.5"],
    ["--max-inflight", "1"],
]


def test_flag_defaults_and_choices_come_from_the_spec_fields():
    """The CLI re-types no default: ``--replication`` parses to the
    cluster spec field's default, and each server flag to the default of
    the :class:`CacheServerProcess` parameter it sets."""
    import inspect

    from repro.cluster import ClusterConfig
    from repro.serve.server import CacheServerProcess

    args = build_parser().parse_args(LISTEN)
    assert args.replication == ClusterConfig().replication
    server = inspect.signature(CacheServerProcess).parameters
    for name in ("queue_depth", "max_batch"):
        default = server[name].default
        assert getattr(args, name) == default, name
        assert type(getattr(args, name)) is type(default), name
    # The values this repo has always shipped.
    assert (args.queue_depth, args.max_batch) == (1024, 256)


def test_only_listener_flags():
    flags = {
        flag
        for action in build_parser()._actions
        for flag in action.option_strings
    }
    assert flags == {
        "-h", "--help", "--listen", "--workload", "--scheme", "--scale",
        "--seed", "--shards", "--replication", "--rebalance-epoch",
        "--queue-depth", "--max-batch",
    }


class TestListenerArguments:
    def test_listen_is_required(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main([])
        assert usage.value.code == 2
        assert "--listen" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", REMOVED_FLAGS, ids=[flag[0] for flag in REMOVED_FLAGS]
    )
    def test_measurement_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(LISTEN + flag)
        assert usage.value.code == 2

    def test_removed_per_request_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(LISTEN + ["--per-request"])
        assert usage.value.code == 2
        assert "--per-request" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        REMOVED_OVERLOAD_FLAGS,
        ids=[flag[0] for flag in REMOVED_OVERLOAD_FLAGS],
    )
    def test_removed_overload_flags_exit_2(self, flag, capsys):
        # Parsed only: were a flag still accepted, ``main`` would serve.
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(LISTEN + flag)
        assert usage.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_bad_listen_exits_2(self, capsys):
        assert main(["--listen", "nocolon"]) == 2
        assert main(["--listen", "127.0.0.1:notaport"]) == 2

    @pytest.mark.parametrize("port", ["70000", "99999", "-1"])
    def test_out_of_range_port_exits_2_in_one_line(self, port, capsys):
        assert main(["--listen", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --listen wants a port in 0-65535, got {port}\n"

    def test_a_port_in_use_exits_2_in_one_line(self, capsys):
        """The port is held by a listening socket of the test's own, so
        the listener's bind fails and no server comes up."""
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            code = main(["--listen", f"127.0.0.1:{port}", "--scale", "0.01"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1


def test_the_listener_wires_the_scenario_cluster_and_builds_no_trace(
    tmp_path, monkeypatch
):
    """``_prepare_cluster`` gives the cluster a scenario run wires --
    same apps, same per-shard budgets, a rebalancer attached -- from the
    workload's reservations alone: a fresh trace cache stays empty."""
    from repro.sim import Scenario, load_workload
    from repro.sim.runner import prepare_cluster
    from repro.workloads.compiled import GLOBAL_TRACE_CACHE

    cache = tmp_path / "traces"
    cache.mkdir()
    monkeypatch.setattr(GLOBAL_TRACE_CACHE, "directory", cache)
    monkeypatch.setattr(GLOBAL_TRACE_CACHE, "_memory", OrderedDict())
    args = build_parser().parse_args(
        LISTEN
        + ["--workload", "zipf", "--scale", "0.02", "--shards", "2"]
        + ["--rebalance-epoch", "50"]
    )
    live = _prepare_cluster(args)
    assert list(cache.iterdir()) == []

    scenario = Scenario(
        workload="zipf",
        scale=0.02,
        seed=0,
        cluster={"shards": 2, "replication": args.replication},
        rebalance={"epoch_requests": 50, "policy": "load"},
    )
    wired = prepare_cluster(scenario, load_workload("zipf", scale=0.02, seed=0))
    assert list(live.app_shares) == list(wired.app_shares) == ["zipf01", "zipf02"]
    assert live.app_shares == wired.app_shares
    assert [live.shard_budget(s) for s in range(2)] == [
        wired.shard_budget(s) for s in range(2)
    ]
    assert live.rebalancer is not None
    assert live.rebalancer.config == wired.rebalancer.config


def start_listener(*flags):
    """A ``python -m repro.serve --listen`` subprocess on a free port:
    ``(process, port)`` once its banner is out."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", *LISTEN, "--scale", "0.01"]
        + list(flags),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    banner = proc.stdout.readline()
    if "serving on" not in banner:
        proc.kill()
        _, err = proc.communicate()
        pytest.fail(f"no banner: {banner!r} {err!r}")
    return proc, int(banner.split()[2].rsplit(":", 1)[1])


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.communicate()


class TestListenerGracefulShutdown:
    def test_sigint_drains_pipeline_before_exit(self):
        proc, port = start_listener()
        try:
            with socket.create_connection(("127.0.0.1", port), 10) as sock:
                sock.sendall(
                    b"set a 0 0 1\r\nA\r\n" b"get a\r\n" b"get missing\r\n"
                )
                # Give the server a beat to ingest, then interrupt it
                # with the pipeline's responses still in flight.
                time.sleep(0.2)
                proc.send_signal(signal.SIGINT)
                sock.settimeout(10)
                data = b""
                while b"END\r\n" not in data or data.count(b"END\r\n") < 2:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            assert data == (
                b"STORED\r\nVALUE a 0 1\r\nA\r\nEND\r\nEND\r\n"
            )
            out, err = proc.communicate(timeout=15)
            assert proc.returncode == 0, err
            assert "stopped (drained)" in out
        finally:
            stop(proc)
