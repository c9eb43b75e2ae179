"""The program under test as a subprocess: ``python -m repro.serve``.

The server gets a process -- and so a core -- of its own; the ledger
talks to it only over loopback TCP (load on two sockets, the ``stats``
command on a third) and reads its CPU time and peak memory from
``/proc``. It is always reaped: SIGTERM, then SIGKILL after five
seconds.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: How long the server may take to print its ``serving on`` line.
STARTUP_DEADLINE_S = 60.0
REAP_DEADLINE_S = 5.0


class ServerProcess:
    """One ``repro.serve --listen`` subprocess and a control socket."""

    def __init__(self, arguments: List[str], env: Dict[str, str]) -> None:
        self.arguments = arguments
        self.env = env
        self.process: Optional[subprocess.Popen] = None
        self.control: Optional[socket.socket] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.startup_s = 0.0
        self.output = ""

    def start(self) -> None:
        """Spawn the server; returns after the first ``stats`` round
        trip, the moment a client could first be served."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0"]
            + self.arguments,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = self._read_banner()
            self.port = int(line.rsplit(":", 1)[1].split()[0])
            self.control = socket.create_connection(
                (self.host, self.port), timeout=10.0
            )
            self.stats()
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started

    def _read_banner(self) -> str:
        # readline() blocks, but the child either prints the banner,
        # prints an error and exits (EOF), or is killed by the watchdog
        # alarm the runner arms around every run.
        deadline = time.perf_counter() + STARTUP_DEADLINE_S
        while time.perf_counter() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            self.output += line
            if line.startswith("serving on "):
                return line
        raise RuntimeError(f"server did not start: {self.output.strip()!r}")

    def stats(self) -> Dict[str, str]:
        """One ``stats`` round trip on the control connection."""
        self.control.sendall(b"stats\r\n")
        received = bytearray()
        while not received.endswith(b"END\r\n"):
            chunk = self.control.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the control connection")
            received += chunk
        pairs = {}
        for line in received.decode("ascii").splitlines():
            if line.startswith("STAT "):
                _, name, value = line.split(" ", 2)
                pairs[name] = value
        return pairs

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[int]:
        """SIGTERM, wait, SIGKILL if needed; returns the exit code and
        leaves everything the server printed in ``output``."""
        if self.control is not None:
            self.control.close()
            self.control = None
        process = self.process
        if process is None:
            return None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            rest, _ = process.communicate(timeout=REAP_DEADLINE_S)
        except subprocess.TimeoutExpired:
            process.kill()
            rest, _ = process.communicate()
        self.output += rest or ""
        self.process = None
        return process.returncode
