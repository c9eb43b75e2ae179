"""The asyncio server: loopback TCP round-trips, overload, robustness.

The acceptance bar: a real socket client can round-trip
get/set/delete; malformed input answers an error without killing the
connection or the server; an abrupt disconnect mid-pipeline never
leaks a request-queue slot; shed backpressure answers
``SERVER_ERROR busy``; concurrent connections each get their own
correctly-ordered responses.

Every test runs its own event loop via ``asyncio.run`` -- no plugin
dependencies, and no wall-clock assertions that could flake in CI.

The one seam the overload tests use is public: until
:meth:`CacheServerProcess.start` a server parses and queues what its
connections send but executes nothing, so a test can fill the queue,
look at the counters, and only then let the drain run.
"""

from __future__ import annotations

import asyncio
import logging
import socket

import pytest

from repro.cache.slabs import SlabGeometry
from repro.cluster import Cluster, ClusterConfig
from repro.serve.protocol import BUSY, END
from repro.serve.server import (
    MAX_QUEUE_DEPTH_SAMPLES,
    CacheServerProcess,
    MemoryClient,
    ServerMetrics,
)
from repro.serve.service import CacheService
from repro.sim import make_engine

GEO = SlabGeometry.default()


def make_server(**kwargs) -> CacheServerProcess:
    cluster = Cluster(ClusterConfig(shards=2), GEO)
    return CacheServerProcess(CacheService(cluster), **kwargs)


async def raw_client(host, port):
    return await asyncio.open_connection(host, port)


async def send_and_read(writer, reader, data: bytes, until: bytes) -> bytes:
    writer.write(data)
    await writer.drain()
    return await reader.readuntil(until)


class TestLoopbackTCP:
    def test_set_get_delete_round_trip(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            try:
                stored = await send_and_read(
                    writer, reader, b"set k 3 0 5\r\nhello\r\n", b"\r\n"
                )
                assert stored == b"STORED\r\n"
                value = await send_and_read(
                    writer, reader, b"get k\r\n", b"END\r\n"
                )
                assert value == b"VALUE k 3 5\r\nhello\r\nEND\r\n"
                deleted = await send_and_read(
                    writer, reader, b"delete k\r\n", b"\r\n"
                )
                assert deleted == b"DELETED\r\n"
                missed = await send_and_read(
                    writer, reader, b"get k\r\n", b"END\r\n"
                )
                assert missed == b"END\r\n"
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_pipelined_commands_answer_in_order(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            try:
                writer.write(
                    b"set a 0 0 1\r\nA\r\n"
                    b"set b 0 0 1\r\nB\r\n"
                    b"get a\r\n"
                    b"get b\r\n"
                    b"delete a\r\n"
                )
                await writer.drain()
                expected = (
                    b"STORED\r\nSTORED\r\n"
                    b"VALUE a 0 1\r\nA\r\nEND\r\n"
                    b"VALUE b 0 1\r\nB\r\nEND\r\n"
                    b"DELETED\r\n"
                )
                got = await reader.readexactly(len(expected))
                assert got == expected
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_malformed_command_keeps_connection_alive(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            try:
                err = await send_and_read(
                    writer, reader, b"frobnicate\r\n", b"\r\n"
                )
                assert err == b"ERROR\r\n"
                err = await send_and_read(
                    writer, reader, b"set k 0 0\r\n", b"\r\n"
                )
                assert err.startswith(b"CLIENT_ERROR")
                # Bad data trailer, then a valid command on the same
                # connection -- the parser resynchronizes.
                writer.write(b"set k 0 0 2\r\nXYZW\r\nget ok\r\n")
                await writer.drain()
                chunk = await reader.readuntil(b"END\r\n")
                assert chunk.startswith(b"CLIENT_ERROR bad data chunk")
                assert chunk.endswith(b"END\r\n")
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_quit_closes_the_connection(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            writer.write(b"set k 0 0 1\r\nZ\r\nquit\r\n")
            await writer.drain()
            data = await reader.read()
            assert data == b"STORED\r\n"  # then EOF
            writer.close()
            await server.close()

        asyncio.run(scenario())

    def test_noreply_suppresses_the_response(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            try:
                writer.write(b"set k 0 0 1 noreply\r\nQ\r\nget k\r\n")
                await writer.drain()
                data = await reader.readuntil(b"END\r\n")
                assert data == b"VALUE k 0 1\r\nQ\r\nEND\r\n"
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_concurrent_connections_are_isolated(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()

            async def worker(index: int) -> None:
                reader, writer = await raw_client(host, port)
                try:
                    key = f"key{index}"
                    value = f"val{index}".encode()
                    writer.write(
                        f"set {key} 0 0 {len(value)}\r\n".encode()
                        + value
                        + b"\r\n"
                        + f"get {key}\r\n".encode()
                    )
                    await writer.drain()
                    data = await reader.readuntil(b"END\r\n")
                    assert data == (
                        b"STORED\r\n"
                        + f"VALUE {key} 0 {len(value)}\r\n".encode()
                        + value
                        + b"\r\nEND\r\n"
                    )
                finally:
                    writer.close()

            try:
                await asyncio.gather(*(worker(i) for i in range(8)))
            finally:
                await server.close()

        asyncio.run(scenario())

    def test_tcp_client_helper_round_trip(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            try:
                stored = await send_and_read(
                    writer, reader, b"set k 0 0 2\r\nhi\r\n", b"\r\n"
                )
                assert stored == b"STORED\r\n"
                # Pipelined multi-line replies come back in order.
                writer.write(b"get k\r\nstats\r\n")
                await writer.drain()
                first = await reader.readuntil(b"END\r\n")
                second = await reader.readuntil(b"END\r\n")
                assert first == b"VALUE k 0 2\r\nhi\r\nEND\r\n"
                assert second.startswith(b"STAT ")
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())


class TestOverload:
    def test_shed_answers_busy_when_queue_full(self):
        async def scenario():
            # Not started: the queue cannot drain, so the bound is hit
            # deterministically.
            server = make_server(backpressure="shed", queue_depth=2)
            client = MemoryClient(server)
            pipeline = asyncio.ensure_future(
                client.request(b"".join(b"get k%d\r\n" % i for i in range(5)))
            )
            await asyncio.sleep(0)
            assert not pipeline.done()  # two commands hold their slots
            assert server.metrics.requests == 5
            assert server.metrics.shed == 3
            # Draining frees the slots: queued requests complete, the
            # shed ones were answered BUSY in their pipeline position,
            # and new commands are accepted again.
            await server.start()
            assert await pipeline == END * 2 + BUSY * 3
            retry = await client.request(b"get again\r\n")
            assert retry.endswith(b"END\r\n")
            assert server.metrics.shed == 3
            await server.close()

        asyncio.run(scenario())

    def test_queue_policy_blocks_instead_of_shedding(self):
        async def scenario():
            server = make_server(backpressure="queue", queue_depth=1)
            first = asyncio.ensure_future(
                MemoryClient(server).request(b"get a\r\n")
            )
            blocked = asyncio.ensure_future(
                MemoryClient(server).request(b"get b\r\nget c\r\n")
            )
            await asyncio.sleep(0)
            # Held until there is a slot: not shed, not queued.
            assert not first.done() and not blocked.done()
            assert server.metrics.requests == 3
            await server.start()
            results = await asyncio.gather(first, blocked)
            assert results == [END, END * 2]
            assert server.metrics.requests == 3
            assert server.metrics.shed == 0
            assert server.metrics.queue_depth_high_water == 1
            await server.close()

        asyncio.run(scenario())

    def test_abrupt_disconnect_mid_pipeline_leaks_nothing(self):
        async def scenario():
            server = make_server(backpressure="shed", queue_depth=64)
            host, port = await server.start_tcp()
            # Blast a pipeline and vanish without reading a byte.
            reader, writer = await raw_client(host, port)
            payload = b"".join(
                b"set d%d 0 0 4\r\nDATA\r\n" % i for i in range(40)
            )
            writer.write(payload)
            await writer.drain()
            writer.transport.abort()
            # The already-queued commands still drain (the queue is
            # FIFO: this STORED comes after them) ...
            reader2, writer2 = await raw_client(host, port)
            stored = await send_and_read(
                writer2, reader2, b"set ok 0 0 2\r\nok\r\n", b"\r\n"
            )
            assert stored == b"STORED\r\n"
            # ... and afterwards every slot is free again: a pipeline as
            # deep as the queue is admitted whole, nothing shed.
            writer2.write(b"get ok\r\n" * 64)
            await writer2.drain()
            full = b"VALUE ok 0 2\r\nok\r\nEND\r\n" * 64
            assert await reader2.readexactly(len(full)) == full
            assert server.metrics.shed == 0
            writer2.close()
            await server.close()

        asyncio.run(scenario())

    def test_internal_failure_answers_server_error(self):
        async def scenario():
            server = make_server()

            def explode(commands):
                raise RuntimeError("boom")

            server.service.execute = explode
            await server.start()
            client = MemoryClient(server)
            assert await client.request(b"get k\r\nget j\r\n") == (
                b"SERVER_ERROR internal error\r\n" * 2
            )
            await server.close()

        asyncio.run(scenario())


    def test_a_client_that_never_reads_cannot_grow_the_server(self):
        """Regression: the reader kept submitting while the writer sat
        in ``drain()``, so one connection that sent 40 000 GETs of an
        8 kB value and never called ``recv`` had all of them executed
        and ~300 MB of replies parked in the server. Now its own
        connection stops reading once its transport is over the
        high-water mark: the count of commands the server took plateaus
        far below what the client wants to send, the client's send
        blocks, and everyone else is still served."""

        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setblocking(False)
            await loop.sock_connect(sock, (host, port))
            key = b"zipf01:" + b"k" * 200
            await loop.sock_sendall(
                sock, b"set %s 0 0 8000\r\n%s\r\n" % (key, b"v" * 8000)
            )
            wanted = 40_000
            sender = asyncio.ensure_future(
                loop.sock_sendall(sock, b"get %s\r\n" % key * wanted)
            )
            taken = -1
            for _ in range(200):  # until the count stands still
                await asyncio.sleep(0.05)
                if sender.done() or server.metrics.requests == taken:
                    break
                taken = server.metrics.requests
            blocked = not sender.done()
            taken = server.metrics.requests
            executed = server.service.cluster.aggregate_stats().total.gets
            # A well-behaved neighbour is served as if nothing happened.
            reader, writer = await raw_client(host, port)
            stored = await send_and_read(
                writer, reader, b"set ok 0 0 2\r\nok\r\n", b"\r\n"
            )
            writer.close()
            sender.cancel()
            sock.close()
            await server.close()
            assert stored == b"STORED\r\n"
            assert blocked  # backpressure reached the sender
            assert 0 < taken < wanted // 5
            assert executed < wanted // 5

        asyncio.run(scenario())


class TestMemoryTransport:
    def test_memory_client_matches_tcp_semantics(self):
        async def scenario():
            server = make_server()
            await server.start()
            client = MemoryClient(server)
            assert await client.request(
                b"set k 1 0 3\r\nabc\r\n"
            ) == b"STORED\r\n"
            assert await client.request(b"get k\r\n") == (
                b"VALUE k 1 3\r\nabc\r\nEND\r\n"
            )
            assert await client.request(b"frobnicate\r\n") == b"ERROR\r\n"
            # Pipelined: one write, all responses concatenated in order.
            out = await client.request(b"delete k\r\nget k\r\n")
            assert out == b"DELETED\r\nEND\r\n"
            # noreply suppressed here too.
            out = await client.request(
                b"set q 0 0 1 noreply\r\nZ\r\nget q\r\n"
            )
            assert out == b"VALUE q 0 1\r\nZ\r\nEND\r\n"
            # A TTL is refused on the wire and nothing is stored; the
            # noreply variant is refused without a response.
            out = await client.request(
                b"set t 0 60 1\r\nT\r\nset u 0 60 1 noreply\r\nU\r\n"
                b"get t u\r\n"
            )
            assert out == b"CLIENT_ERROR expiry is not supported\r\nEND\r\n"
            await server.close()

        asyncio.run(scenario())

    def test_delete_of_a_shadow_only_key_answers_not_found(self):
        """A key the Cliffhanger engine remembers only in a shadow
        segment is gone as far as a client can tell: ``delete`` must say
        NOT_FOUND (as under ``default``), not DELETED."""
        async def scenario():
            cluster = Cluster(ClusterConfig(shards=1), GEO)
            cluster.add_app(
                "serve",
                8 * GEO.chunk_size(2),
                lambda shard, share: make_engine("cliffhanger", "serve", share),
            )
            server = CacheServerProcess(CacheService(cluster))
            await server.start()
            client = MemoryClient(server)
            for i in range(40):
                stored = await client.request(
                    b"set k%d 0 0 100\r\n%s\r\n" % (i, b"x" * 100)
                )
                assert stored == b"STORED\r\n"
            assert await client.request(b"delete k39\r\n") == b"DELETED\r\n"
            assert await client.request(b"delete k20\r\n") == b"NOT_FOUND\r\n"
            assert await client.request(b"get k20\r\n") == b"END\r\n"
            await server.close()

        asyncio.run(scenario())

    def test_batches_span_connections(self):
        async def scenario():
            server = make_server(max_batch=64)
            await server.start()
            clients = [MemoryClient(server) for _ in range(4)]
            await asyncio.gather(
                *(
                    client.request(b"set k%d 0 0 1\r\nV\r\n" % i)
                    for i, client in enumerate(clients)
                )
            )
            assert server.metrics.requests == 4
            # At least one worker wake batched multiple connections'
            # commands into a single execute call.
            assert server.metrics.batches <= 4
            await server.close()

        asyncio.run(scenario())


class TestConfigValidation:
    def test_bad_backpressure_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="backpressure"):
            make_server(backpressure="drop")
        with pytest.raises(ConfigurationError, match="queue_depth"):
            make_server(queue_depth=0)
        with pytest.raises(ConfigurationError, match="max_batch"):
            make_server(max_batch=0)

    def test_degradation_knobs_validated(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="queue_deadline_s"):
            make_server(queue_deadline_s=-0.1)
        with pytest.raises(ConfigurationError, match="max_inflight"):
            make_server(max_inflight=-1)


class TestClientHardening:
    def test_server_death_mid_pipeline_raises_connection_error(self):
        """Close the server with a pipeline in flight: the client reads
        the replies the server got to and then the end of the stream --
        never a hang -- and a reconnect is refused."""

        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            stored = await send_and_read(
                writer, reader, b"set k 0 0 2\r\nhi\r\n", b"\r\n"
            )
            assert stored == b"STORED\r\n"
            writer.write(b"get k\r\nget k\r\n")
            await writer.drain()
            await server.close()
            try:
                rest = await asyncio.wait_for(reader.read(), 5)
            except ConnectionResetError:
                rest = b""  # closed with the pipeline still unread
            assert rest in (b"", b"VALUE k 0 2\r\nhi\r\nEND\r\n" * 2)
            writer.close()
            with pytest.raises(ConnectionError):
                await raw_client(host, port)

        asyncio.run(scenario())


class TestGracefulShutdown:
    def test_shutdown_answers_queued_pipeline_before_closing(self):
        """shutdown() drains the queue and flushes connection writers:
        a client with pipelined requests in flight gets every response,
        then EOF."""

        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            writer.write(
                b"set a 0 0 1\r\nA\r\n" b"get a\r\n" b"set b 0 0 1\r\nB\r\n"
            )
            await writer.drain()
            await asyncio.sleep(0.01)  # let the reader ingest it all
            await server.shutdown()
            data = await reader.read()
            assert data == (
                b"STORED\r\nVALUE a 0 1\r\nA\r\nEND\r\nSTORED\r\n"
            )
            writer.close()

        asyncio.run(scenario())

    def test_shutdown_answers_a_pipeline_deeper_than_the_queue(self):
        """200 commands in flight against a 64-command queue: what the
        connection holds for want of room is answered too, then EOF."""

        async def scenario():
            server = make_server(queue_depth=64)
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            writer.write(b"set k 0 0 1\r\nK\r\n" + b"get k\r\n" * 199)
            await writer.drain()
            everything = asyncio.ensure_future(reader.read())
            while server.metrics.requests < 200:  # let it all arrive
                await asyncio.sleep(0.01)
            await server.shutdown()
            data = await everything
            assert data == (
                b"STORED\r\n" + b"VALUE k 0 1\r\nK\r\nEND\r\n" * 199
            )
            writer.close()

        asyncio.run(scenario())

    def test_close_with_a_live_connection_logs_nothing(self, caplog):
        """Regression: ``close()`` cancelled the per-connection task and
        asyncio logged ``Exception in callback ... CancelledError`` with
        a traceback. There is no task any more -- and nothing to log."""

        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            value = await send_and_read(writer, reader, b"get k\r\n", b"END\r\n")
            assert value == b"END\r\n"
            await server.close()
            assert await reader.read() == b""  # the server closed it
            writer.close()
            await asyncio.sleep(0.01)

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            asyncio.run(scenario())
        noise = [r for r in caplog.records if r.name == "asyncio"
                 and r.levelno >= logging.WARNING]
        assert noise == []

    def test_shutdown_stops_accepting_new_connections(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            await server.shutdown()
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.wait_for(raw_client(host, port), 0.5)

        asyncio.run(scenario())

    def test_shutdown_is_idempotent_with_close(self):
        async def scenario():
            server = make_server()
            await server.start()
            await server.shutdown()
            await server.close()

        asyncio.run(scenario())


class TestGracefulDegradation:
    def test_queue_deadline_sheds_expired_commands(self):
        async def scenario():
            # Not started yet: the commands age in the queue, then the
            # drain with a tiny deadline sheds them all as BUSY.
            server = make_server(queue_deadline_s=0.01)
            client = MemoryClient(server)
            aged = asyncio.ensure_future(
                client.request(b"".join(b"get k%d\r\n" % i for i in range(4)))
            )
            await asyncio.sleep(0.05)
            await server.start()
            assert await aged == BUSY * 4
            assert server.metrics.shed_expired == 4
            assert server.metrics.shed == 4
            # Fresh commands execute normally.
            fresh = await client.request(b"get new\r\n")
            assert fresh.endswith(b"END\r\n")
            assert server.metrics.shed_expired == 4
            await server.close()

        asyncio.run(scenario())

    def test_max_inflight_caps_per_connection(self):
        async def scenario():
            server = make_server(max_inflight=2)
            client = MemoryClient(server)
            capped = asyncio.ensure_future(
                client.request(b"".join(b"get k%d\r\n" % i for i in range(5)))
            )
            await asyncio.sleep(0)
            assert server.metrics.shed_inflight == 3
            assert server.metrics.shed == 3
            # Another connection has its own budget.
            other = asyncio.ensure_future(
                MemoryClient(server).request(b"get other\r\n")
            )
            await asyncio.sleep(0)
            assert not other.done()
            assert server.metrics.shed_inflight == 3
            await server.start()
            assert await capped == END * 2 + BUSY * 3
            assert await other == END
            # Completion released the slots: the same connection can
            # send again.
            retry = await client.request(b"get again\r\n")
            assert retry.endswith(b"END\r\n")
            await server.close()

        asyncio.run(scenario())


class TestStatsWire:
    def test_stats_surfaces_server_metrics_over_tcp(self):
        async def scenario():
            server = make_server(backpressure="shed", queue_depth=1)
            # Shed a couple of requests first so the counters are warm
            # (not started yet: the second and third commands shed).
            warm = asyncio.ensure_future(
                MemoryClient(server).request(b"get k0\r\nget k1\r\nget k2\r\n")
            )
            await asyncio.sleep(0)
            host, port = await server.start_tcp()
            assert await warm == END + BUSY * 2
            reader, writer = await raw_client(host, port)
            try:
                data = await send_and_read(
                    writer, reader, b"stats\r\n", b"END\r\n"
                )
                stats = {
                    line.split()[1]: line.split()[2]
                    for line in data.decode().splitlines()
                    if line.startswith("STAT ")
                }
                assert stats["server_shed"] == "2"
                assert int(stats["server_requests"]) >= 3
                assert "server_shed_expired" in stats
                assert "server_shed_inflight" in stats
                assert int(stats["queue_depth_high_water"]) >= 1
                assert stats["live_shards"] == "2"
                assert "dead_requests" in stats
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_stats_round_trips_through_tcp_client_framing(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await raw_client(host, port)
            try:
                raw = await send_and_read(
                    writer, reader, b"stats\r\n", b"END\r\n"
                )
                lines = raw.decode().splitlines()
                keys = [
                    line.split()[1]
                    for line in lines
                    if line.startswith("STAT ")
                ]
                assert "server_requests" in keys
                assert "queue_depth_high_water" in keys
                assert "cmd_get" in keys
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())


class TestQueueDepthTimelineIsBounded:
    def test_long_running_server_keeps_a_capped_timeline(self):
        """Regression (ROADMAP 4c): one sample per worker wake, forever,
        and a whole-list ``max`` per ``stats`` command. Ten times the
        cap in wakes must leave at most the cap in samples -- evenly
        spaced -- and the high water exact."""
        metrics = ServerMetrics()
        wakes = 10 * MAX_QUEUE_DEPTH_SAMPLES
        peak_at = wakes // 2 + 1  # an odd wake: decimation drops it
        for wake in range(wakes):
            metrics.record_wake(10_000_000 if wake == peak_at else wake)
        assert metrics.batches == wakes
        assert metrics.queue_depth_high_water == 10_000_000
        depths = metrics.queue_depths
        assert MAX_QUEUE_DEPTH_SAMPLES // 2 < len(depths)
        assert len(depths) <= MAX_QUEUE_DEPTH_SAMPLES
        stride = depths[1] - depths[0]
        assert depths == list(range(0, wakes, stride))
