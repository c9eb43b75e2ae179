"""The asyncio cache server: reads become jobs, one queue, one drain.

Every connection is one :class:`Connection` -- an
:class:`asyncio.Protocol` over a socket or over a :class:`MemoryClient`.
``data_received`` feeds the sans-IO
:class:`~repro.serve.protocol.ProtocolParser` and turns the read's
complete commands into **jobs**: at most ``max_batch`` commands each,
with a reply slot per parsed event, so a malformed line and an executed
command keep their pipeline order. Jobs wait in one queue bounded at
``queue_depth`` *commands*. A single drain callback pops whole jobs off
its head -- across connections, at most ``max_batch`` commands -- runs
them as one :meth:`~repro.serve.service.CacheService.execute` call
(hence one :meth:`~repro.cluster.Cluster.process_batch`), fills their
slots, and has each connection it touched write the finished jobs at
the head of its FIFO with one ``transport.write``.

Overload has one rule, backpressure, and it counts commands: the queue
bound is hard, and a connection whose read does not fit holds the jobs
that do not, stops reading its transport (the backlog moves into the
kernel socket buffers and onto the client -- closed-loop backpressure)
and queues them as the drain frees room. Nothing is refused for load:
every parsed command is executed and answered. Memory stays bounded by
the queue bound plus each connection's held read.

A peer that does not read its replies pauses only itself: while its
transport is above the high-water mark the connection neither reads nor
queues what it holds. A connection that dies mid-pipeline still has its
queued jobs run -- queue room is freed by execution, never leaked.
"""

from __future__ import annotations

import asyncio
from collections import deque
from contextlib import suppress
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.serve.protocol import Command, ProtocolParser, server_error
from repro.serve.service import CacheService

#: Default bound on the shared request queue, in commands.
DEFAULT_QUEUE_DEPTH = 1024
#: Most commands one drain batches into a single execute call.
DEFAULT_MAX_BATCH = 256
#: Most queue-depth samples :class:`ServerMetrics` keeps (even). A full
#: timeline drops every other sample and records half as often from then
#: on: a server up for days holds a bounded, evenly spaced timeline.
MAX_QUEUE_DEPTH_SAMPLES = 4096
#: How long ``close()`` lets closing sockets flush what was written.
CLOSE_GRACE_S = 2.0


class ServerMetrics:
    """Server counters: totals (the ``stats`` command reports them) and
    the queue-depth samples (the harness reports those)."""

    __slots__ = (
        "requests", "batches", "queue_depths", "queue_depth_high_water",
        "_depth_stride",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.batches = 0
        #: Queue depth (commands pending, the batch about to run
        #: included) at every ``_depth_stride``-th drain: the overload
        #: timeline, at most :data:`MAX_QUEUE_DEPTH_SAMPLES` long.
        self.queue_depths: List[int] = []
        self._depth_stride = 1
        #: Deepest queue any drain found; exact, unlike the timeline.
        self.queue_depth_high_water = 0

    def record_wake(self, depth: int) -> None:
        """Count one drain that found ``depth`` commands pending."""
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth
        if self.batches % self._depth_stride == 0:
            if len(self.queue_depths) == MAX_QUEUE_DEPTH_SAMPLES:
                # The cap is even, so this drain is on the doubled
                # stride too and the timeline stays evenly spaced.
                del self.queue_depths[1::2]
                self._depth_stride *= 2
            self.queue_depths.append(depth)
        self.batches += 1


class _Job:
    """A run of one read's events: at most ``max_batch`` commands, and a
    ``replies`` slot per event that gets a reply -- bytes made at parse
    time (a parser error) or ``None`` for a queued command's.
    ``payload`` is the joined replies once they are all known."""

    __slots__ = ("connection", "commands", "replies", "payload")

    def __init__(self, connection: "Connection") -> None:
        self.connection = connection
        self.commands: List[Command] = []
        self.replies: List[Optional[bytes]] = []
        self.payload: Optional[bytes] = None

    def fill(self, responses: List[bytes]) -> None:
        answers = [r for c, r in zip(self.commands, responses) if not c.noreply]
        if len(answers) < len(self.replies):  # parse-time replies in between
            queued = iter(answers)
            answers = [next(queued) if r is None else r for r in self.replies]
        self.payload = b"".join(answers)


class Connection(asyncio.Protocol):
    """One client connection. The TCP listener's protocol factory and
    :class:`MemoryClient` both build this class, and nothing in it knows
    which transport it has."""

    def __init__(self, server: "CacheServerProcess") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.parser = ProtocolParser()
        #: Jobs in arrival order, answered or not; only the head writes.
        self._fifo: Deque[_Job] = deque()
        #: Jobs the full queue has no room for.
        self._held: Deque[_Job] = deque()
        self._write_paused = False
        #: ``quit`` or EOF seen: parse no more, close once all is written.
        self._finishing = False

    def connection_made(self, transport) -> None:  # type: ignore[override]
        self.transport = transport
        self.server._connections.add(self)
        self.server._no_connections.clear()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Queued jobs still run (they hold queue room); held ones do not.
        self.transport = None
        self._held.clear()
        self.server._holding.pop(self, None)
        self.server._connections.discard(self)
        if not self.server._connections:
            self.server._no_connections.set()

    def data_received(self, data: bytes) -> List[_Job]:
        """Parse one read into jobs, queue those there is room for, hold
        the rest. Returns the jobs: :class:`MemoryClient` awaits them."""
        jobs: List[_Job] = []
        if self._finishing:
            return jobs
        server = self.server
        metrics = server.metrics
        self.parser.feed(data)
        next_event = self.parser.next_event
        # A job is cut so that an empty queue can always take it.
        limit = min(server.max_batch, server.queue_depth)
        job: Optional[_Job] = None
        while True:
            event = next_event()
            if event is None:
                break
            command = event.command
            if command is not None and command.op == "quit":
                self._finishing = True
                break
            if job is None or len(job.commands) == limit:
                job = _Job(self)
                jobs.append(job)
                self._fifo.append(job)
                self._held.append(job)
            if command is None:
                job.replies.append(event.response)
                continue
            metrics.requests += 1
            job.commands.append(command)
            if not command.noreply:
                job.replies.append(None)
        self._release()
        return jobs

    def _release(self) -> None:
        """Queue held jobs, in order, while they fit and the peer reads
        its replies (a job that queued no command is complete as it is);
        then write what is finished, and read on only if nothing waits."""
        held = self._held
        server = self.server
        while held and not self._write_paused and (
            server._depth + len(held[0].commands) <= server.queue_depth
        ):
            job = held.popleft()
            if job.commands:
                server._enqueue(job)
            else:
                job.fill([])
        if held:
            server._holding[self] = None
        else:
            server._holding.pop(self, None)
        self._flush()
        if self.transport is None:
            return
        if held or self._write_paused or self._finishing:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    def eof_received(self) -> bool:
        """A half-closed peer still gets its replies, then the close."""
        self._finishing = True
        self._flush()
        return True

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop taking its requests.
        self._write_paused = True
        self._release()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._release()

    def _flush(self) -> None:
        """Write every finished job at the head of the FIFO -- one
        ``transport.write`` however many there are."""
        fifo = self._fifo
        parts = []
        while fifo and fifo[0].payload is not None:
            parts.append(fifo.popleft().payload)
        if self.transport is None:
            return
        if parts:
            self.transport.write(b"".join(parts))
        if self._finishing and not fifo:
            self.close()

    def close(self) -> None:
        """Stop reading and writing; replies not written yet are dropped."""
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.close()


class CacheServerProcess:
    """One in-process server: a service, a job queue, a drain, N
    connections. :meth:`start` serves :class:`MemoryClient` connections,
    :meth:`start_tcp` adds a loopback TCP listener; until then
    connections parse and queue but nothing executes."""

    def __init__(
        self, service: CacheService,
        queue_depth: int = DEFAULT_QUEUE_DEPTH, max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        for name, value in (("queue_depth", queue_depth), ("max_batch", max_batch)):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        self.service = service
        self.queue_depth = queue_depth
        self.max_batch = max_batch
        self.metrics = ServerMetrics()
        # ``stats`` surfaces these counters alongside the cache totals.
        service.server_metrics = self.metrics
        self._jobs: Deque[_Job] = deque()
        #: Commands in ``_jobs``; never above ``queue_depth``.
        self._depth = 0
        #: Connections holding jobs until there is room, oldest first.
        self._holding: Dict[Connection, None] = {}
        self._connections: set = set()
        self._no_connections = asyncio.Event()
        #: Set while started; the drain is its ``call_soon`` callback.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._batch_scheduled = False
        self._listener: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._schedule_batch()

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen on loopback; returns the bound ``(host, port)``."""
        await self.start()
        self._listener = await asyncio.get_running_loop().create_server(
            lambda: Connection(self), host, port
        )
        return self._listener.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        """Graceful and idempotent: stop accepting, answer everything
        queued or held for room, write the replies, then close every
        connection -- in-flight pipelines get their responses first."""
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        while self._jobs and self._loop is not None:
            self._drain_batch()
        self._loop = None
        for connection in list(self._connections):
            connection.close()
        if listener is not None:
            await listener.wait_closed()
        if self._connections:
            # Closing sockets first flush what was written to them.
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._no_connections.wait(), CLOSE_GRACE_S)

    shutdown = close  #: what SIGINT/SIGTERM trigger in ``repro-serve --listen``

    def _enqueue(self, job: _Job) -> None:
        self._jobs.append(job)
        self._depth += len(job.commands)
        self._schedule_batch()

    def _schedule_batch(self) -> None:
        if self._jobs and not self._batch_scheduled and self._loop is not None:
            self._batch_scheduled = True
            self._loop.call_soon(self._drain_batch)

    def _drain_batch(self) -> None:
        """Run one batch (whole jobs off the head of the queue, at most
        ``max_batch`` commands) as one execute call, write the replies,
        and queue what connections held for want of room."""
        self._batch_scheduled = False
        jobs = self._jobs
        if not jobs:
            return
        batch = [jobs.popleft()]
        count = len(batch[0].commands)
        while jobs and count + len(jobs[0].commands) <= self.max_batch:
            batch.append(jobs.popleft())
            count += len(batch[-1].commands)
        self.metrics.record_wake(self._depth)
        self._depth -= count
        commands = [command for job in batch for command in job.commands]
        try:
            responses = self.service.execute(commands)
        except Exception:  # the server must never die mid-batch
            responses = [server_error("internal error")] * len(commands)
        start = 0
        for job in batch:
            stop = start + len(job.commands)
            job.fill(responses[start:stop])
            start = stop
        for connection in {job.connection for job in batch}:
            connection._flush()
        for connection in list(self._holding):
            connection._release()
        # One batch per loop iteration, or the readers feeding the queue starve.
        self._schedule_batch()


class MemoryClient(asyncio.Transport):
    """A socketless connection: wire bytes in, wire bytes out.

    The transport of the exact same :class:`Connection` -- parser, jobs,
    queue, drain, flush -- a socket peer gets; only the socket is
    skipped, so harness runs are deterministic, fast and
    protocol-faithful."""

    def __init__(self, server: CacheServerProcess) -> None:
        super().__init__()
        self._closing = False
        #: Reads whose replies are owed, in order: ``(jobs, waiter)``.
        self._owed: Deque[Tuple[List[_Job], asyncio.Future]] = deque()
        self._connection = Connection(server)
        self._connection.connection_made(self)

    async def request(self, data: bytes) -> bytes:
        """Send one or more pipelined commands; await all responses.

        Calls may overlap: each awaits the replies of the jobs its own
        bytes became (one future per call, not per command). Raises
        :class:`ConnectionError` once ``quit`` or the server closed it."""
        if self._closing:
            raise ConnectionError("connection closed")
        waiter: "asyncio.Future[bytes]" = asyncio.Future()
        self._owed.append((self._connection.data_received(data), waiter))
        self.write(b"")  # a read answered at parse time was written before it was owed
        return await waiter

    def write(self, data: bytes) -> None:
        """Jobs are written in order: finish every read whose jobs all are."""
        owed = self._owed
        while owed and all(job.payload is not None for job in owed[0][0]):
            jobs, waiter = owed.popleft()
            if not waiter.done():
                waiter.set_result(b"".join([job.payload for job in jobs]))

    def pause_reading(self) -> None:
        pass  # a read is handed over whole; what waits, waits in the connection

    resume_reading = pause_reading

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        self._connection.connection_lost(None)
        self.write(b"")  # what is complete is still delivered; the rest fails
        for _, waiter in self._owed:
            if not waiter.done():
                waiter.set_exception(ConnectionError("connection closed"))
        self._owed.clear()

