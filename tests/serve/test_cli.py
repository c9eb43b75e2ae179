"""The ``repro-serve`` CLI: measurement flags, chaos knobs, shutdown.

The graceful-shutdown test runs the real listener in a subprocess and
SIGINTs it mid-pipeline: every queued response must arrive before the
socket closes and the process must exit 0 -- the drain contract, not a
timing assertion.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.serve.cli import main

FAST = [
    "--scale", "0.01", "--rate", "2000", "--duration", "0.05",
    "--arrivals", "fixed",
]


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0, f"expected one line, got: {err!r}"
    return err


def test_flag_defaults_and_choices_come_from_the_spec_fields():
    """The CLI re-types no default: every flag that maps onto a spec
    field parses to that field's declared default, and offers exactly
    its declared choices."""
    from repro.cluster import ClusterConfig, FaultSchedule
    from repro.common.spec import choices_of
    from repro.serve import RetryPolicy, ServeConfig
    from repro.serve.cli import build_parser

    mapped = {
        "replication": (ClusterConfig, "replication"),
        "rate": (ServeConfig, "rate"),
        "duration": (ServeConfig, "duration_s"),
        "arrivals": (ServeConfig, "arrivals"),
        "backpressure": (ServeConfig, "backpressure"),
        "connections": (ServeConfig, "connections"),
        "queue_depth": (ServeConfig, "queue_depth"),
        "max_batch": (ServeConfig, "max_batch"),
        "transport": (ServeConfig, "transport"),
        "queue_deadline": (ServeConfig, "queue_deadline_s"),
        "max_inflight": (ServeConfig, "max_inflight"),
        "retry_attempts": (RetryPolicy, "max_attempts"),
        "retry_deadline": (RetryPolicy, "deadline_s"),
        "hedge_after": (RetryPolicy, "hedge_after_s"),
        "fault_policy": (FaultSchedule, "policy"),
    }
    parser = build_parser()
    args = parser.parse_args([])
    actions = {action.dest: action for action in parser._actions}
    for dest, (block, field) in mapped.items():
        default = getattr(block(), field)
        assert getattr(args, dest) == default, dest
        assert type(getattr(args, dest)) is type(default), dest
        assert tuple(actions[dest].choices or ()) == choices_of(block, field)
    # The values this repo has always shipped.
    assert (args.rate, args.duration, args.connections) == (2000.0, 1.0, 4)
    assert (args.queue_depth, args.max_batch) == (1024, 256)
    assert (args.retry_attempts, args.fault_policy) == (1, "failover")


class TestMeasurementMode:
    def test_plain_measurement_runs(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        assert "serve (" in out

    def test_chaos_flags_fire_live_faults(self, capsys):
        assert (
            main(
                FAST
                + [
                    "--crash", "1@30",
                    "--restart", "1@60",
                    "--retry-attempts", "3",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"]["crashes"][0]["crash_at"] == 30
        assert payload["retry"]["max_attempts"] == 3
        assert payload["faults"]["latency_timeline"]

    def test_degradation_flags_pass_through(self, capsys):
        assert (
            main(FAST + ["--queue-deadline", "0.5", "--max-inflight", "8"])
            == 0
        )

    def test_malformed_crash_spec_exits_2(self, capsys):
        assert main(FAST + ["--crash", "one@ten"]) == 2
        assert "SHARD@OFFSET" in one_error_line(capsys)
        assert main(FAST + ["--crash", "3"]) == 2

    def test_crash_bad_shard_exits_2(self, capsys):
        assert main(FAST + ["--shards", "2", "--crash", "7@10"]) == 2
        assert "shard" in one_error_line(capsys)

    def test_removed_per_request_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(FAST + ["--per-request"])
        assert usage.value.code == 2
        assert "--per-request" in capsys.readouterr().err

    def test_bad_listen_exits_2(self, capsys):
        assert main(["--listen", "nocolon"]) == 2
        assert main(["--listen", "127.0.0.1:notaport"]) == 2


class TestListenerGracefulShutdown:
    def test_sigint_drains_pipeline_before_exit(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--listen", "127.0.0.1:0",
                "--scale", "0.01",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on" in banner
            port = int(banner.split()[2].rsplit(":", 1)[1])
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
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
