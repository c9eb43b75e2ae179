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

import pytest

from repro.serve.cli import build_parser, main

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


def test_flag_defaults_and_choices_come_from_the_spec_fields():
    """The CLI re-types no default: ``--replication`` parses to the
    cluster spec field's default, and each server-policy flag to the
    default of the :class:`CacheServerProcess` parameter it sets, with
    the server's backpressure policies as its only choices."""
    import inspect

    from repro.cluster import ClusterConfig
    from repro.serve.server import BACKPRESSURE_POLICIES, CacheServerProcess

    parser = build_parser()
    args = parser.parse_args(LISTEN)
    actions = {action.dest: action for action in parser._actions}
    assert args.replication == ClusterConfig().replication
    server = inspect.signature(CacheServerProcess).parameters
    for dest, parameter in {
        "backpressure": "backpressure",
        "queue_depth": "queue_depth",
        "max_batch": "max_batch",
        "queue_deadline": "queue_deadline_s",
        "max_inflight": "max_inflight",
    }.items():
        default = server[parameter].default
        assert getattr(args, dest) == default, dest
        assert type(getattr(args, dest)) is type(default), dest
    assert tuple(actions["backpressure"].choices) == BACKPRESSURE_POLICIES
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
        "--backpressure", "--queue-depth", "--max-batch",
        "--queue-deadline", "--max-inflight",
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

    def test_bad_listen_exits_2(self, capsys):
        assert main(["--listen", "nocolon"]) == 2
        assert main(["--listen", "127.0.0.1:notaport"]) == 2


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


class TestListenerFlags:
    def test_max_inflight_answers_busy_beyond_the_cap(self):
        proc, port = start_listener("--max-inflight", "1")
        try:
            with socket.create_connection(("127.0.0.1", port), 10) as sock:
                sock.settimeout(10)
                sock.sendall(b"get a\r\nget b\r\n")
                expected = b"END\r\nSERVER_ERROR busy\r\n"
                data = b""
                while len(data) < len(expected):
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            assert data == expected
        finally:
            stop(proc)


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
