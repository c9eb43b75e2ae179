"""The asyncio cache server: pipelined connections, one shared queue.

Every connection parses its byte stream with the sans-IO
:class:`~repro.serve.protocol.ProtocolParser` and submits commands into
one bounded server-wide queue. A single worker coroutine drains the
queue -- up to ``max_batch`` commands per wake, across connections --
and executes the whole drain as one
:meth:`~repro.serve.service.CacheService.execute` call, so the server's
only execution path is :meth:`~repro.cluster.Cluster.process_batch`.

Overload behavior is explicit and configurable:

``backpressure="shed"``
    A full queue answers ``SERVER_ERROR busy`` immediately; the reader
    keeps reading. Open-loop clients see the shed in-band.
``backpressure="queue"``
    A full queue blocks the submitting reader coroutine until a slot
    frees, pushing the backlog into the kernel socket buffers (and from
    there onto the client) -- closed-loop backpressure.

Responses are delivered through per-command futures; each connection
writes its futures back in submission order, so pipelining never
reorders responses. A connection that dies mid-pipeline stops reading
and writing, but its already-queued commands still drain through the
worker -- queue slots are freed by execution, never leaked.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.serve.protocol import (
    BUSY,
    Command,
    ProtocolParser,
    server_error,
)
from repro.serve.service import CacheService

#: Default bound on the shared request queue.
DEFAULT_QUEUE_DEPTH = 1024
#: Most commands one worker wake batches into a single execute call.
DEFAULT_MAX_BATCH = 256
#: Most queue-depth samples :class:`ServerMetrics` keeps (even). A full
#: timeline drops every other sample and records half as often from
#: then on, so a server up for days holds a bounded, evenly spaced
#: timeline instead of one entry per worker wake.
MAX_QUEUE_DEPTH_SAMPLES = 4096

BACKPRESSURE_POLICIES = ("queue", "shed")


class ServerMetrics:
    """Counters the harness reports: shed, totals, queue-depth samples."""

    __slots__ = (
        "requests",
        "shed",
        "shed_expired",
        "shed_inflight",
        "batches",
        "queue_depths",
        "queue_depth_high_water",
        "_depth_stride",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.shed = 0
        #: Queued commands dropped unexecuted because they outlived the
        #: server's queue deadline before the worker drained them.
        self.shed_expired = 0
        #: Commands rejected because their connection hit the
        #: per-connection in-flight cap.
        self.shed_inflight = 0
        self.batches = 0
        #: Queue depth (commands pending including the batch about to
        #: run) at every ``_depth_stride``-th worker wake -- the overload
        #: timeline, at most :data:`MAX_QUEUE_DEPTH_SAMPLES` long.
        self.queue_depths: List[int] = []
        self._depth_stride = 1
        #: Deepest queue any wake found; exact, unlike the timeline.
        self.queue_depth_high_water = 0

    def record_wake(self, depth: int) -> None:
        """Count one worker wake that found ``depth`` commands pending."""
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth
        if self.batches % self._depth_stride == 0:
            if len(self.queue_depths) == MAX_QUEUE_DEPTH_SAMPLES:
                # The cap is even, so this wake is on the doubled
                # stride too and the timeline stays evenly spaced.
                del self.queue_depths[1::2]
                self._depth_stride *= 2
            self.queue_depths.append(depth)
        self.batches += 1

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "shed": self.shed,
            "shed_expired": self.shed_expired,
            "shed_inflight": self.shed_inflight,
            "batches": self.batches,
            "depths": list(self.queue_depths),
        }


class _Job:
    __slots__ = ("command", "future", "enqueued_at")

    def __init__(
        self,
        command: Command,
        future: "asyncio.Future[bytes]",
        enqueued_at: float = 0.0,
    ):
        self.command = command
        self.future = future
        self.enqueued_at = enqueued_at


class CacheServerProcess:
    """One in-process server: a service, a queue, a worker, N transports.

    Use :meth:`start` (worker only; in-memory clients connect with
    :class:`MemoryClient`) or :meth:`start_tcp` (worker plus a loopback
    TCP listener). :meth:`close` is idempotent.
    """

    def __init__(
        self,
        service: CacheService,
        backpressure: str = "queue",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_batch: int = DEFAULT_MAX_BATCH,
        queue_deadline_s: float = 0.0,
        max_inflight: int = 0,
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {backpressure!r}"
            )
        if queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if queue_deadline_s < 0:
            raise ConfigurationError("queue_deadline_s must be >= 0")
        if max_inflight < 0:
            raise ConfigurationError("max_inflight must be >= 0")
        self.service = service
        self.backpressure = backpressure
        self.max_batch = max_batch
        #: Graceful degradation: a drained command older than this is
        #: answered ``BUSY`` without executing -- its client already
        #: gave up, executing it would only delay live requests
        #: (0 = never expire).
        self.queue_deadline_s = queue_deadline_s
        #: Per-connection in-flight cap: commands submitted but not yet
        #: answered; past it the connection is answered ``BUSY`` in-band
        #: so one pipelining client cannot monopolize the queue
        #: (0 = unlimited).
        self.max_inflight = max_inflight
        self.metrics = ServerMetrics()
        # The stats wire command surfaces server counters alongside the
        # cache totals; the service renders them.
        service.server_metrics = self.metrics
        service.server = self
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue(
            maxsize=queue_depth
        )
        self._worker: Optional[asyncio.Task] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._inflight: dict = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._worker is None:
            self._worker = asyncio.create_task(self._work_loop())

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Listen on loopback; returns the bound ``(host, port)``."""
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self.handle_connection, host, port
        )
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def close(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._worker is not None:
            await self._queue.join()
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None

    async def shutdown(self) -> None:
        """Graceful close: stop accepting, answer everything already
        queued, let the connection writers flush, then tear down.

        This is what SIGINT/SIGTERM trigger in ``repro-serve --listen``:
        in-flight pipelines get their responses before the sockets
        close, instead of :meth:`close`'s cancel-first teardown.
        """
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        if self._worker is not None:
            await self._queue.join()
        # Resolved futures still sit in per-connection outboxes; yield
        # so the write loops drain them onto the wire before close()
        # cancels the reader tasks out from under them.
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        await self.close()

    # -- submission ----------------------------------------------------

    async def submit(
        self, command: Command, owner: object = None
    ) -> "asyncio.Future[bytes]":
        """Queue one command; the returned future resolves to response
        bytes. Under ``shed`` a full queue resolves it to ``BUSY`` at
        once; under ``queue`` this call blocks until a slot frees.
        ``owner`` identifies the submitting connection for the
        per-connection in-flight cap."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[bytes]" = loop.create_future()
        self.metrics.requests += 1
        if (
            self.max_inflight
            and owner is not None
            and self._inflight.get(owner, 0) >= self.max_inflight
        ):
            self.metrics.shed_inflight += 1
            self.metrics.shed += 1
            future.set_result(BUSY)
            return future
        job = _Job(command, future, enqueued_at=loop.time())
        if owner is not None:
            self._inflight[owner] = self._inflight.get(owner, 0) + 1
            future.add_done_callback(
                lambda _, owner=owner: self._release_inflight(owner)
            )
        if self.backpressure == "shed":
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self.metrics.shed += 1
                future.set_result(BUSY)
        else:
            await self._queue.put(job)
        return future

    def _release_inflight(self, owner: object) -> None:
        count = self._inflight.get(owner, 0) - 1
        if count > 0:
            self._inflight[owner] = count
        else:
            self._inflight.pop(owner, None)

    async def _work_loop(self) -> None:
        while True:
            job = await self._queue.get()
            jobs = [job]
            while len(jobs) < self.max_batch:
                try:
                    jobs.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.metrics.record_wake(len(jobs) + self._queue.qsize())
            if self.queue_deadline_s > 0:
                jobs = self._shed_expired(jobs)
            if jobs:
                commands = [item.command for item in jobs]
                try:
                    responses = self.service.execute(commands)
                except Exception:  # the server must never die mid-batch
                    responses = [server_error("internal error")] * len(jobs)
                for item, response in zip(jobs, responses):
                    if not item.future.done():
                        item.future.set_result(response)
                for _ in jobs:
                    self._queue.task_done()
            # One cooperative yield per batch: get_nowait() above never
            # awaits, so back-to-back full batches would otherwise
            # starve the readers feeding the queue.
            await asyncio.sleep(0)

    def _shed_expired(self, jobs: List[_Job]) -> List[_Job]:
        """Deadline-aware shedding: answer ``BUSY`` for drained commands
        that sat queued past the deadline -- their clients have already
        retried or given up, and executing them would stretch the queue
        for everyone still waiting."""
        cutoff = asyncio.get_running_loop().time() - self.queue_deadline_s
        kept: List[_Job] = []
        for job in jobs:
            if job.enqueued_at < cutoff:
                self.metrics.shed_expired += 1
                self.metrics.shed += 1
                if not job.future.done():
                    job.future.set_result(BUSY)
                self._queue.task_done()
            else:
                kept.append(job)
        return kept

    # -- TCP connection handling ---------------------------------------

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_streams(reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _serve_streams(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parser = ProtocolParser()
        outbox: "asyncio.Queue[Optional[asyncio.Future[bytes]]]" = (
            asyncio.Queue()
        )
        writer_task = asyncio.create_task(self._write_loop(outbox, writer))
        loop = asyncio.get_running_loop()
        owner = object()  # identity for the per-connection in-flight cap
        try:
            quitting = False
            while not quitting:
                try:
                    data = await reader.read(65536)
                except (ConnectionResetError, BrokenPipeError, OSError):
                    break
                if not data:
                    break
                parser.feed(data)
                while True:
                    event = parser.next_event()
                    if event is None:
                        break
                    if event.response is not None:
                        ready: "asyncio.Future[bytes]" = loop.create_future()
                        ready.set_result(event.response)
                        await outbox.put(ready)
                        continue
                    command = event.command
                    if command.op == "quit":
                        quitting = True
                        break
                    future = await self.submit(command, owner=owner)
                    if not command.noreply:
                        await outbox.put(future)
        finally:
            await outbox.put(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass

    @staticmethod
    async def _write_loop(
        outbox: "asyncio.Queue[Optional[asyncio.Future[bytes]]]",
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                future = await outbox.get()
                if future is None:
                    break
                data = await future
                if data:
                    writer.write(data)
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; futures still resolve, nothing leaks
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


class MemoryClient:
    """A socketless connection: wire bytes in, wire bytes out.

    Runs the exact same parser and queue/worker path as a TCP
    connection -- only the transport is skipped -- so harness runs are
    deterministic and fast while staying protocol-faithful.
    """

    def __init__(self, server: CacheServerProcess) -> None:
        self._server = server
        self._parser = ProtocolParser()

    async def request(self, data: bytes, op: str = "") -> bytes:
        """Send one or more pipelined commands; await all responses.

        ``op`` is accepted for client-interface parity with
        :class:`TCPClient` and ignored -- the parser frames commands
        itself here, no response framing needed."""
        self._parser.feed(data)
        futures: List["asyncio.Future[bytes]"] = []
        loop = asyncio.get_running_loop()
        while True:
            event = self._parser.next_event()
            if event is None:
                break
            if event.response is not None:
                ready: "asyncio.Future[bytes]" = loop.create_future()
                ready.set_result(event.response)
                futures.append(ready)
                continue
            command = event.command
            if command.op == "quit":
                continue  # nothing to close on a memory transport
            future = await self._server.submit(command, owner=self)
            if not command.noreply:
                futures.append(future)
        chunks = [await future for future in futures]
        return b"".join(chunks)


class TCPClient:
    """A pipelining loopback client with in-order response framing.

    Requests write immediately; a reader task frames responses off the
    stream in FIFO order and resolves each request's future, so many
    requests can be in flight on one connection (open-loop load needs
    that).

    Hardened against a dying server: :meth:`connect` bounds the
    connection attempt with ``connect_timeout``, a nonzero
    ``request_timeout`` bounds each response wait, and once the stream
    drops every pending and future :meth:`request` raises a clean
    :class:`ConnectionError` instead of hanging on a response that will
    never arrive.
    """

    def __init__(
        self,
        connect_timeout: float = 5.0,
        request_timeout: float = 0.0,
    ) -> None:
        if connect_timeout <= 0:
            raise ConfigurationError("connect_timeout must be > 0")
        if request_timeout < 0:
            raise ConfigurationError("request_timeout must be >= 0")
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: "asyncio.Queue[Tuple[str, asyncio.Future[bytes]]]" = (
            asyncio.Queue()
        )
        self._reader_task: Optional[asyncio.Task] = None
        self._dead = False

    async def connect(self, host: str, port: int) -> None:
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), self.connect_timeout
            )
        except asyncio.TimeoutError:
            raise ConnectionError(
                f"connect to {host}:{port} timed out after "
                f"{self.connect_timeout}s"
            ) from None
        self._dead = False
        self._reader_task = asyncio.create_task(self._read_loop())

    async def close(self) -> None:
        self._dead = True
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass

    async def request(self, data: bytes, op: str = "get") -> bytes:
        """Send pre-encoded command bytes; await its framed response.

        ``op`` tells the framer what shape to read (``get``/``stats``
        end at ``END``; everything else is one line). One command per
        call; pipelining comes from overlapping calls. Raises
        :class:`ConnectionError` when the connection is gone (the
        server died mid-pipeline) or the response misses a nonzero
        ``request_timeout``.
        """
        if self._writer is None:
            raise RuntimeError("request() before connect()")
        if self._dead or self._writer.is_closing():
            raise ConnectionError("connection lost")
        future: "asyncio.Future[bytes]" = (
            asyncio.get_running_loop().create_future()
        )
        # No await between the liveness check and the enqueue (put on an
        # unbounded queue never suspends): the reader's fail-everything
        # sweep cannot miss this future.
        self._pending.put_nowait((op, future))
        try:
            self._writer.write(data)
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._dead = True
            if not future.done():
                future.set_exception(
                    ConnectionError(f"send failed: {exc or 'closed'}")
                )
        if self.request_timeout > 0:
            try:
                return await asyncio.wait_for(future, self.request_timeout)
            except asyncio.TimeoutError:
                self._dead = True
                raise ConnectionError(
                    f"no response within {self.request_timeout}s"
                ) from None
        return await future

    async def _read_loop(self) -> None:
        if self._reader is None:
            raise RuntimeError("_read_loop() before connect()")
        future: Optional["asyncio.Future[bytes]"] = None
        try:
            while True:
                op, future = await self._pending.get()
                response = await self._read_response(op)
                if not future.done():
                    future.set_result(response)
                future = None
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            # Connection gone: flag the client dead *first* (request()
            # checks before enqueueing), then fail every waiter --
            # including the request whose response was mid-frame, which
            # is already popped off the pending queue -- so in-flight
            # requests unblock with a clean error.
            self._dead = True
            while True:
                if future is not None and not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
                try:
                    _, future = self._pending.get_nowait()
                except asyncio.QueueEmpty:
                    break

    async def _read_response(self, op: str) -> bytes:
        if self._reader is None:
            raise RuntimeError("_read_response() before connect()")
        out = bytearray()
        multi = op in ("get", "gets", "stats")
        while True:
            line = await self._reader.readuntil(b"\n")
            out += line
            stripped = line.rstrip(b"\r\n")
            if stripped.startswith(b"VALUE "):
                # VALUE <key> <flags> <bytes>: the data block may
                # contain anything, including "END"; read it by size.
                size = int(stripped.split()[3])
                out += await self._reader.readexactly(size + 2)
                continue
            if multi:
                if stripped == b"END" or stripped.startswith(
                    (b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")
                ):
                    return bytes(out)
                continue  # STAT lines keep coming
            return bytes(out)
