"""The ledger's own load generator: one thread, two pipelined sockets.

Traffic comes from outside the program under test. A :class:`Stream`
holds a seeded request sequence as columns; :class:`LoadGenerator`
plays slices of it against a memcached-text server over two loopback
TCP connections, either *open loop* (seeded Poisson arrivals at a fixed
rate; every latency is timed from the request's **scheduled** send
time, so a stall is charged to every request it delays) or *closed
loop* (a fixed number outstanding per connection; measures capacity).

Every reply is checked as it is framed: a ``VALUE`` must echo the
requested key with the advertised byte count and carry exactly the
bytes of that key's most recent SET (keys are pinned to one connection,
so per-key order is total), a SET must be answered ``STORED``, a DELETE
``DELETED`` or ``NOT_FOUND``. Anything else -- or no reply by the drain
deadline -- is a failed operation.
"""

from __future__ import annotations

import select
import socket
import time
from bisect import bisect_right
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

GET, SET, DELETE = 0, 1, 2

#: Size of the value the server synthesizes for a key its engines hold
#: but no client ever SET (``repro.serve.service.DEFAULT_VALUE_SIZE``).
SYNTHESIZED_BYTES = 100

#: A request with no reply this long after its phase stopped sending
#: is a failed operation.
DRAIN_DEADLINE_S = 5.0

_PAYLOAD_BLOCK_BYTES = 1 << 20
_LARGEST_PAYLOAD = 1 << 16


class Stream:
    """A request sequence as parallel columns.

    ``conn`` pins each key to one of the two connections; ``offset`` is
    where a SET's payload starts inside the shared seeded byte block.
    """

    def __init__(
        self,
        key_table: List[str],
        key_ids: Sequence[int],
        ops: Sequence[int],
        sizes: Sequence[int],
        seed: int,
    ) -> None:
        rng = np.random.default_rng([seed, 0x5EED])
        self.block = rng.integers(
            0, 256, _PAYLOAD_BLOCK_BYTES + _LARGEST_PAYLOAD, dtype=np.uint8
        ).tobytes()
        self.key_table = key_table
        # Plain Python ints (a NumPy scalar would be slower everywhere).
        self.key_ids = np.asarray(key_ids, dtype=np.int64).tolist()
        self.ops = np.asarray(ops, dtype=np.int64).tolist()
        self.sizes = np.asarray(sizes, dtype=np.int64).tolist()
        self.offsets = rng.integers(
            0, _PAYLOAD_BLOCK_BYTES, len(self.key_ids)
        ).tolist()
        self.conn = [k & 1 for k in self.key_ids]
        self._get_bytes = [f"get {key}\r\n".encode("ascii") for key in key_table]

    def __len__(self) -> int:
        return len(self.key_ids)

    def encode(self, index: int) -> bytes:
        """Wire bytes of request ``index``."""
        op = self.ops[index]
        key_id = self.key_ids[index]
        if op == GET:
            return self._get_bytes[key_id]
        key = self.key_table[key_id]
        if op == DELETE:
            return f"delete {key}\r\n".encode("ascii")
        size = self.sizes[index]
        offset = self.offsets[index]
        return b"".join(
            (
                f"set {key} 0 0 {size}\r\n".encode("ascii"),
                self.block[offset : offset + size],
                b"\r\n",
            )
        )

    def wire_bytes(self, start: int, stop: int) -> bytes:
        """Requests ``[start, stop)`` back to back (sans-IO benches)."""
        return b"".join(self.encode(i) for i in range(start, stop))


class PhaseResult:
    """What one phase of load measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.hits = 0
        self.gets = 0
        self.sent_gets = 0
        self.sent_sets = 0
        #: Replies that completed inside the measured interval.
        self.completed_in_window = 0
        #: Wall time the generator spent doing something (not polling).
        self.generator_busy_s = 0.0
        #: Per request, in send order. ``answered`` marks the requests
        #: whose reply was framed; the other columns are meaningless
        #: where it is False. ``rtt_s`` is written -> reply framed.
        self.answered: Optional[np.ndarray] = None
        self.rtt_s: Optional[np.ndarray] = None
        #: Open loop only: scheduled send offset from the phase start,
        #: latency from that scheduled time, and send lag (scheduled ->
        #: written).
        self.scheduled_s: Optional[np.ndarray] = None
        self.latency_s: Optional[np.ndarray] = None
        self.lag_s: Optional[np.ndarray] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


class LoadGenerator:
    """Two non-blocking sockets driven by one ``select`` loop."""

    def __init__(self, stream: Stream, host: str, port: int) -> None:
        self.stream = stream
        self.socks: List[socket.socket] = []
        for _ in range(2):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)
        self._inbox = [bytearray(), bytearray()]
        self._outbox = [bytearray(), bytearray()]
        self._pending: List[deque] = [deque(), deque()]
        #: key id -> (offset, size) of the most recent SET; absent when
        #: never SET or since deleted.
        self._stored: Dict[int, Tuple[int, int]] = {}
        self._synthesized: Dict[int, bytes] = {}
        self.cursor = 0

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.socks = []

    # -- phases --------------------------------------------------------

    def take(self, count: int) -> Tuple[int, int]:
        """Reserve the next ``count`` stream positions."""
        if self.cursor + count > len(self.stream):
            raise RuntimeError(
                f"stream of {len(self.stream)} requests exhausted at "
                f"{self.cursor} + {count}"
            )
        start = self.cursor
        self.cursor += count
        return start, self.cursor

    def open_loop(self, rate: float, seconds: float, seed: int) -> PhaseResult:
        """Send ``rate * seconds`` requests at seeded Poisson arrival
        times regardless of replies, then drain."""
        count = max(1, int(rate * seconds))
        start, stop = self.take(count)
        rng = np.random.default_rng([seed, 0xA881, int(rate)])
        schedule = np.cumsum(rng.exponential(1.0 / rate, count))
        return self._run(start, stop, schedule.tolist(), 0, seconds)

    def closed_loop(
        self, outstanding: int, seconds: float, max_requests: int
    ) -> PhaseResult:
        """Keep ``outstanding`` requests in flight on each connection
        for ``seconds`` (or until ``max_requests`` are sent), then
        drain. ``seconds <= 0`` means: send exactly ``max_requests``."""
        start, stop = self.take(max_requests)
        return self._run(start, stop, None, outstanding, seconds)

    # -- the loop ------------------------------------------------------

    def _run(
        self,
        start: int,
        stop: int,
        schedule: Optional[List[float]],
        outstanding: int,
        seconds: float,
    ) -> PhaseResult:
        stream = self.stream
        result = PhaseResult()
        count = stop - start
        sent_at = [0.0] * count
        done_at = [0.0] * count
        conn_of = stream.conn
        encode = stream.encode
        pending = self._pending
        outbox = self._outbox
        socks = self.socks
        clock = time.perf_counter
        idle = 0.0
        origin = clock()
        deadline = origin + seconds if seconds > 0 else float("inf")
        next_index = 0  # relative to ``start``
        # Closed loop: each connection draws from its own sub-sequence.
        lanes: List[List[int]] = [[], []]
        lane_pos = [0, 0]
        if schedule is None:
            for rel in range(count):
                lanes[conn_of[start + rel]].append(rel)
        sending = True
        stopped_at = 0.0
        while True:
            now = clock()
            if sending:
                if schedule is not None:
                    due = bisect_right(schedule, now - origin, next_index)
                    if due > next_index:
                        parts: List[List[bytes]] = [[], []]
                        for rel in range(next_index, due):
                            lane = conn_of[start + rel]
                            parts[lane].append(encode(start + rel))
                            pending[lane].append(rel)
                        for lane in (0, 1):
                            if parts[lane]:
                                outbox[lane] += b"".join(parts[lane])
                        self._flush()
                        written = clock()
                        for rel in range(next_index, due):
                            sent_at[rel] = written
                        next_index = due
                    if next_index >= count:
                        sending = False
                        stopped_at = now
                else:
                    if now >= deadline:
                        sending = False
                        stopped_at = now
                    else:
                        wrote = False
                        for lane in (0, 1):
                            room = outstanding - len(pending[lane])
                            queue = lanes[lane]
                            position = lane_pos[lane]
                            if room <= 0 or position >= len(queue):
                                continue
                            batch = queue[position : position + room]
                            lane_pos[lane] = position + len(batch)
                            outbox[lane] += b"".join(
                                [encode(start + rel) for rel in batch]
                            )
                            pending[lane].extend(batch)
                            for rel in batch:
                                sent_at[rel] = now
                            wrote = True
                        if wrote:
                            self._flush()
                        if (
                            lane_pos[0] >= len(lanes[0])
                            and lane_pos[1] >= len(lanes[1])
                        ):
                            sending = False
                            stopped_at = now
            if not sending and not pending[0] and not pending[1]:
                break
            if not sending and now - stopped_at > DRAIN_DEADLINE_S:
                break
            # While it has requests left to send the loop never sleeps.
            # Open loop: a timed wait wakes late by the kernel's timer
            # slack plus a scheduler wake-up (~0.8 ms p99 here), which
            # would be charged to the server as latency. Closed loop: a
            # halted vCPU takes an inter-processor wake-up to restart,
            # and when the host is overcommitted that wake-up, not the
            # server, sets the pace (measured: capacity / 3, both sides
            # half idle). What the loop spends in ``select`` calls that
            # find nothing is counted as its idle time.
            timeout = 0.0 if sending else 0.05
            writers = [s for lane, s in enumerate(socks) if outbox[lane]]
            polled = clock()
            readable, writable, _ = select.select(socks, writers, [], timeout)
            if not readable and not writable:
                idle += clock() - polled
                continue
            if writable:
                self._flush()
            for sock in readable:
                lane = socks.index(sock)
                try:
                    chunk = sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                self._inbox[lane] += chunk
                self._frame(lane, start, done_at, clock(), result)
        finished = clock()
        result.generator_busy_s = (finished - origin) - idle
        if schedule is not None:
            result.attempted = count
        else:
            result.attempted = lane_pos[0] + lane_pos[1]
        for lane in (0, 1):
            for rel in pending[lane]:
                result.fail(f"no reply to request {start + rel}")
            pending[lane].clear()
            self._inbox[lane].clear()
        sent = np.asarray(sent_at)
        done = np.asarray(done_at)
        result.answered = done > 0.0
        result.rtt_s = done - sent
        if schedule is not None:
            result.scheduled_s = np.asarray(schedule)
            result.latency_s = done - (result.scheduled_s + origin)
            result.lag_s = sent - (result.scheduled_s + origin)
            result.completed_in_window = int(result.answered.sum())
        else:
            result.completed_in_window = int(
                (result.answered & (done <= deadline)).sum()
            )
        ops = stream.ops
        for rel in range(count):
            if sent_at[rel] > 0.0:
                op = ops[start + rel]
                if op == GET:
                    result.sent_gets += 1
                elif op == SET:
                    result.sent_sets += 1
        return result

    def _flush(self) -> None:
        for lane, sock in enumerate(self.socks):
            data = self._outbox[lane]
            while data:
                try:
                    written = sock.send(data)
                except BlockingIOError:
                    break
                del data[:written]

    def _frame(
        self,
        lane: int,
        start: int,
        done_at: List[float],
        now: float,
        result: PhaseResult,
    ) -> None:
        """Frame and check every complete reply in the lane's inbox."""
        buffer = self._inbox[lane]
        pending = self._pending[lane]
        stream = self.stream
        ops = stream.ops
        key_ids = stream.key_ids
        position = 0
        find = buffer.find
        while pending:
            line_end = find(b"\r\n", position)
            if line_end < 0:
                break
            rel = pending[0]
            index = start + rel
            op = ops[index]
            if buffer[position] == 86:  # b"V": a VALUE block
                header = bytes(buffer[position:line_end]).split()
                size = int(header[3])
                data_start = line_end + 2
                block_end = data_start + size + 7  # data CRLF END CRLF
                if len(buffer) < block_end:
                    break
                key_id = key_ids[index]
                if op != GET:
                    result.fail(f"VALUE in reply to op {op} (request {index})")
                elif header[1] != stream.key_table[key_id].encode("ascii"):
                    result.fail(f"VALUE echoes {header[1]!r} (request {index})")
                elif buffer[data_start + size : block_end] != b"\r\nEND\r\n":
                    result.fail(f"VALUE block misframed (request {index})")
                elif buffer[data_start : data_start + size] != self._expected(key_id):
                    result.fail(f"wrong bytes for request {index}")
                else:
                    result.hits += 1
                result.gets += 1
                position = block_end
            else:
                line = bytes(buffer[position:line_end])
                position = line_end + 2
                if op == GET:
                    result.gets += 1
                    if line != b"END":
                        result.fail(f"GET answered {line!r} (request {index})")
                elif op == SET:
                    if line != b"STORED":
                        result.fail(f"SET answered {line!r} (request {index})")
                    self._stored[key_ids[index]] = (
                        stream.offsets[index],
                        stream.sizes[index],
                    )
                else:
                    if line not in (b"DELETED", b"NOT_FOUND"):
                        result.fail(f"DELETE answered {line!r} (request {index})")
                    self._stored.pop(key_ids[index], None)
            pending.popleft()
            done_at[rel] = now
        if position:
            del buffer[:position]

    def _expected(self, key_id: int) -> bytes:
        stored = self._stored.get(key_id)
        if stored is not None:
            offset, size = stored
            return self.stream.block[offset : offset + size]
        payload = self._synthesized.get(key_id)
        if payload is None:
            pattern = self.stream.key_table[key_id].encode("ascii") + b"."
            repeats = SYNTHESIZED_BYTES // len(pattern) + 1
            payload = (pattern * repeats)[:SYNTHESIZED_BYTES]
            self._synthesized[key_id] = payload
        return payload
