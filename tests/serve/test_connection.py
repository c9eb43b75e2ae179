"""The connection path: reads become jobs, jobs become one execute and
one write.

Shape pins (what a read costs), the overload rules counted in commands,
and a property: however a pipeline is cut into reads and however the
connections interleave, every connection gets exactly the bytes
``CacheService.execute`` produces for the same commands in arrival
order, and the cluster's counters do not depend on the cuts.

Everything here drives :class:`~repro.serve.server.Connection` the way
a transport does -- through :class:`MemoryClient`, or ``data_received``
on a recording transport. The one seam is public: a server that was not
started parses and queues but executes nothing.
"""

from __future__ import annotations

import asyncio
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.slabs import SlabGeometry
from repro.cluster import Cluster, ClusterConfig
from repro.serve.protocol import BUSY, END, STORED, ProtocolParser
from repro.serve.server import CacheServerProcess, Connection, MemoryClient
from repro.serve.service import CacheService
from tests.cluster.helpers import counters_snapshot

GEO = SlabGeometry.default()
#: Largest chunk 512 bytes: a 600-byte SET is "too large for cache" at
#: the service, far under the parser's own 1 MB limit.
SMALL_GEO = SlabGeometry((64, 128, 256, 512))


def make_server(geometry=GEO, **kwargs) -> CacheServerProcess:
    cluster = Cluster(ClusterConfig(shards=2), geometry)
    return CacheServerProcess(CacheService(cluster), **kwargs)


def spy_on_execute(server) -> List[int]:
    """Record the size of every ``CacheService.execute`` call."""
    sizes: List[int] = []
    execute = server.service.execute

    def spy(commands):
        sizes.append(len(commands))
        return execute(commands)

    server.service.execute = spy
    return sizes


class RecordingTransport(asyncio.Transport):
    """What a connection did to its transport."""

    def __init__(self, protocol: asyncio.Protocol) -> None:
        super().__init__()
        self.protocol = protocol
        self.writes: List[bytes] = []
        self.reading = True
        self.closed = False

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def close(self) -> None:
        if not self.closed:  # like a socket transport: report it, later
            self.closed = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )


def connect(server) -> Tuple[Connection, RecordingTransport]:
    connection = Connection(server)
    transport = RecordingTransport(connection)
    connection.connection_made(transport)
    return connection, transport


async def settle() -> None:
    """Let every scheduled drain run."""
    for _ in range(8):
        await asyncio.sleep(0)


def gets(count: int, start: int = 0) -> bytes:
    return b"".join(b"get k%d\r\n" % i for i in range(start, start + count))


class TestShape:
    def test_one_read_is_one_execute_and_one_write(self):
        async def scenario():
            server = make_server()
            sizes = spy_on_execute(server)
            await server.start()
            connection, transport = connect(server)
            connection.data_received(gets(32))
            await settle()
            assert sizes == [32]
            assert transport.writes == [END * 32]
            assert server.metrics.requests == 32
            assert server.metrics.batches == 1
            await server.close()

        asyncio.run(scenario())

    def test_a_long_read_is_cut_at_max_batch(self):
        async def scenario():
            server = make_server(max_batch=256)
            sizes = spy_on_execute(server)
            await server.start()
            connection, transport = connect(server)
            connection.data_received(gets(600))
            await settle()
            assert sizes == [256, 256, 88]
            assert b"".join(transport.writes) == END * 600
            assert len(transport.writes) <= 3
            assert server.metrics.requests == 600
            assert server.metrics.batches == 3
            await server.close()

        asyncio.run(scenario())

    def test_one_drain_spans_connections_and_writes_each_once(self):
        async def scenario():
            server = make_server()
            sizes = spy_on_execute(server)
            await server.start()
            peers = [connect(server) for _ in range(3)]
            for index, (connection, _) in enumerate(peers):
                connection.data_received(gets(10, start=100 * index))
            await settle()
            assert sizes == [30]
            assert [t.writes for _, t in peers] == [[END * 10]] * 3
            await server.close()

        asyncio.run(scenario())

    def test_parser_errors_keep_their_place_in_line(self):
        async def scenario():
            server = make_server()
            sizes = spy_on_execute(server)
            await server.start()
            connection, transport = connect(server)
            connection.data_received(
                b"set a 0 0 1\r\nA\r\nbogus\r\nget a\r\nset b 0 0\r\n"
                b"set c 0 0 1 noreply\r\nC\r\nget c\r\n"
            )
            await settle()
            assert sizes == [4]  # the two malformed lines never queue
            assert transport.writes == [
                STORED
                + b"ERROR\r\n"
                + b"VALUE a 0 1\r\nA\r\nEND\r\n"
                + b"CLIENT_ERROR bad command line format\r\n"
                + b"VALUE c 0 1\r\nC\r\nEND\r\n"
            ]
            # A read that is all errors is answered without a drain.
            connection.data_received(b"bogus\r\n\r\n")
            assert transport.writes[1:] == [b"ERROR\r\nERROR\r\n"]
            assert sizes == [4]
            await server.close()

        asyncio.run(scenario())

    def test_overlapping_requests_each_get_their_own_bytes(self):
        async def scenario():
            server = make_server()
            await server.start()
            client = MemoryClient(server)
            replies = await asyncio.gather(
                *(
                    client.request(
                        b"set k%d 0 0 2\r\n%02d\r\nget k%d\r\n" % (i, i, i)
                    )
                    for i in range(10)
                ),
                client.request(b"get k3 k4\r\n"),
            )
            for i in range(10):
                assert replies[i] == (
                    STORED + b"VALUE k%d 0 2\r\n%02d\r\nEND\r\n" % (i, i)
                )
            assert replies[10] == (
                b"VALUE k3 0 2\r\n03\r\nVALUE k4 0 2\r\n04\r\nEND\r\n"
            )
            await server.close()

        asyncio.run(scenario())

    def test_a_command_split_across_requests_answers_where_it_ends(self):
        async def scenario():
            server = make_server()
            await server.start()
            client = MemoryClient(server)
            assert await client.request(b"get a\r\nset b 0 0 4\r\nda") == END
            assert await client.request(b"ta\r\nget b\r\n") == (
                STORED + b"VALUE b 0 4\r\ndata\r\nEND\r\n"
            )
            await server.close()

        asyncio.run(scenario())


class TestOverloadCountsCommands:
    def test_shed_answers_busy_in_place(self):
        async def scenario():
            server = make_server(backpressure="shed", queue_depth=8)
            connection, transport = connect(server)
            connection.data_received(gets(20))  # not started: nothing drains
            assert server.metrics.shed == 12
            assert transport.writes == [] and transport.reading
            await server.start()
            await settle()
            assert transport.writes == [END * 8 + BUSY * 12]
            assert server.metrics.queue_depth_high_water == 8
            await server.close()

        asyncio.run(scenario())

    def test_queue_holds_what_does_not_fit_and_stops_reading(self):
        async def scenario():
            server = make_server(backpressure="queue", queue_depth=8)
            sizes = spy_on_execute(server)
            connection, transport = connect(server)
            connection.data_received(gets(20))
            assert not transport.reading  # the backlog stays in the kernel
            other, other_transport = connect(server)
            other.data_received(gets(2, start=50))
            assert not other_transport.reading
            await server.start()
            await settle()
            assert b"".join(transport.writes) == END * 20
            assert other_transport.writes == [END * 2]
            assert transport.reading and other_transport.reading
            assert sum(sizes) == 22 and max(sizes) <= 8
            assert server.metrics.queue_depth_high_water <= 8
            assert server.metrics.shed == 0
            await server.close()

        asyncio.run(scenario())

    def test_max_inflight_counts_held_and_queued_commands(self):
        async def scenario():
            server = make_server(queue_depth=2, max_inflight=5)
            connection, transport = connect(server)
            connection.data_received(gets(9))
            assert server.metrics.shed_inflight == 4
            await server.start()
            await settle()
            assert b"".join(transport.writes) == END * 5 + BUSY * 4
            connection.data_received(gets(1, start=99))
            await settle()
            assert transport.writes[-1] == END  # the slots were released
            await server.close()

        asyncio.run(scenario())

    def test_noreply_stays_silent_when_shed(self):
        async def scenario():
            server = make_server(backpressure="shed", queue_depth=1)
            connection, transport = connect(server)
            connection.data_received(
                b"get a\r\nset b 0 0 1 noreply\r\nB\r\ndelete a noreply\r\n"
                b"get c\r\n"
            )
            assert server.metrics.shed == 3
            await server.start()
            await settle()
            assert transport.writes == [END + BUSY]
            await server.close()

        asyncio.run(scenario())

    def test_a_peer_that_stops_reading_is_not_admitted(self):
        async def scenario():
            server = make_server(queue_depth=4)
            sizes = spy_on_execute(server)
            connection, transport = connect(server)
            connection.data_received(gets(12))
            connection.pause_writing()  # its transport is over high water
            await server.start()
            await settle()
            assert sum(sizes) == 4  # what was queued runs, nothing more
            assert not transport.reading
            other, other_transport = connect(server)
            other.data_received(gets(3, start=50))
            await settle()
            assert other_transport.writes == [END * 3]  # others are served
            connection.resume_writing()
            await settle()
            assert b"".join(transport.writes) == END * 12
            assert transport.reading
            await server.close()

        asyncio.run(scenario())


class TestConnectionEnds:
    def test_quit_answers_what_is_ahead_then_closes(self):
        async def scenario():
            server = make_server()
            await server.start()
            connection, transport = connect(server)
            connection.data_received(b"get a\r\nquit\r\nget b\r\n")
            assert not transport.closed and not transport.reading
            await settle()
            assert transport.writes == [END] and transport.closed
            assert server.metrics.requests == 1  # nothing after quit parsed

            client = MemoryClient(server)
            assert await client.request(b"set k 0 0 1\r\nK\r\nquit\r\n") == STORED
            with pytest.raises(ConnectionError):
                await client.request(b"get k\r\n")
            await server.close()

        asyncio.run(scenario())

    def test_eof_answers_the_pipeline_before_closing(self):
        async def scenario():
            server = make_server()
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"set k 0 0 1\r\nK\r\n" + b"get k\r\n" * 50)
            writer.write_eof()  # half-close: ``printf ... | nc``
            data = await reader.read()
            assert data == STORED + b"VALUE k 0 1\r\nK\r\nEND\r\n" * 50
            writer.close()
            await server.close()

        asyncio.run(scenario())

    def test_lost_connection_still_runs_its_queued_jobs(self):
        async def scenario():
            server = make_server(queue_depth=4)
            sizes = spy_on_execute(server)
            connection, transport = connect(server)
            connection.data_received(
                b"".join(b"set k%d 0 0 1\r\nV\r\n" % i for i in range(10))
            )
            connection.connection_lost(None)
            await server.start()
            await settle()
            # The queued jobs ran (their room is free again), the held
            # ones were dropped, and nothing was written to the dead peer.
            assert sum(sizes) == 4
            assert transport.writes == []
            client = MemoryClient(server)
            assert await client.request(b"get k0 k3 k4\r\n") == (
                b"VALUE k0 0 1\r\nV\r\nVALUE k3 0 1\r\nV\r\nEND\r\n"
            )
            assert await client.request(gets(4)) == (
                b"VALUE k0 0 1\r\nV\r\nEND\r\n" + b"VALUE k1 0 1\r\nV\r\nEND\r\n"
                + b"VALUE k2 0 1\r\nV\r\nEND\r\n" + b"VALUE k3 0 1\r\nV\r\nEND\r\n"
            )
            await server.close()

        asyncio.run(scenario())

    def test_close_fails_requests_that_can_no_longer_be_answered(self):
        async def scenario():
            server = make_server()  # never started: nothing will drain
            client = MemoryClient(server)
            pending = asyncio.ensure_future(client.request(b"get k\r\n"))
            await asyncio.sleep(0)
            await server.close()
            with pytest.raises(ConnectionError):
                await pending

        asyncio.run(scenario())


# -- the property ----------------------------------------------------------

def key_names(owner: str = "") -> List[str]:
    """The keys one pipeline draws from; ``owner`` makes them its own."""
    return [f"{name}{owner}" for name in ("a", "b", "c", "app:d", "e" * 40)]


VALUES = st.binary(min_size=0, max_size=12)


@st.composite
def wire_commands(draw, names: List[str]) -> bytes:
    keys = st.sampled_from(names)
    kind = draw(st.integers(0, 9))
    key = draw(keys).encode()
    if kind <= 2:
        return b"get " + key + b"\r\n"
    if kind == 3:
        more = b" ".join(k.encode() for k in draw(st.lists(keys, max_size=3)))
        return b"get " + key + b" " + more + b"\r\n"
    if kind <= 5:
        data = draw(VALUES)
        suffix = b" noreply" if draw(st.booleans()) else b""
        return b"set %s 7 0 %d%s\r\n%s\r\n" % (key, len(data), suffix, data)
    if kind == 6:
        suffix = b" noreply" if draw(st.booleans()) else b""
        return b"delete " + key + suffix + b"\r\n"
    if kind == 7:  # too large for the 512-byte slab, fine for the parser
        return b"set %s 0 0 600\r\n%s\r\n" % (key, b"x" * 600)
    return draw(
        st.sampled_from(
            [
                b"bogus\r\n",
                b"\r\n",
                b"set k 0 0\r\n",
                b"get " + b"k" * 300 + b"\r\n",
                b"set k 0 0 2\r\nxyz\r\n",  # bad data trailer
                b"set k 0 60 1\r\nT\r\n",  # expiry refused
                b"\xff\xfe\r\n",
            ]
        )
    )


@st.composite
def deliveries(draw, own_keys: bool = False):
    """Per connection a pipeline; then one global schedule of reads --
    ``(connection, chunk)`` cuts anywhere (mid-line, mid-data-block),
    interleaved at random -- and whether to yield to the loop after
    each."""
    pipelines = [
        b"".join(
            draw(
                st.lists(
                    wire_commands(key_names(str(i) if own_keys else "")),
                    min_size=1,
                    max_size=12,
                )
            )
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    remaining = list(pipelines)
    schedule: List[Tuple[int, bytes]] = []
    while any(remaining):
        index = draw(
            st.sampled_from([i for i, rest in enumerate(remaining) if rest])
        )
        rest = remaining[index]
        cut = draw(st.integers(1, len(rest)))
        schedule.append((index, rest[:cut]))
        remaining[index] = rest[cut:]
    yields = draw(
        st.lists(st.booleans(), min_size=len(schedule), max_size=len(schedule))
    )
    return pipelines, schedule, yields


def expected_streams(pipelines, schedule) -> Tuple[List[bytes], dict]:
    """The oracle: parse the same reads, execute every command in
    arrival order with one ``CacheService.execute`` call, and put the
    responses back among the parser's own replies."""
    parsers = [ProtocolParser() for _ in pipelines]
    arrivals = []  # (connection, event) in arrival order
    for index, chunk in schedule:
        parsers[index].feed(chunk)
        while True:
            event = parsers[index].next_event()
            if event is None:
                break
            arrivals.append((index, event))
    service = CacheService(Cluster(ClusterConfig(shards=2), SMALL_GEO))
    commands = [e.command for _, e in arrivals if e.command is not None]
    responses = iter(service.execute(commands))
    streams = [bytearray() for _ in pipelines]
    for index, event in arrivals:
        if event.command is None:
            streams[index] += event.response
        else:
            response = next(responses)
            if not event.command.noreply:
                streams[index] += response
    counters = counters_snapshot(service.cluster.aggregate_stats())
    return [bytes(stream) for stream in streams], counters


def serve(pipelines, schedule, yields, **server_kwargs):
    async def scenario():
        server = make_server(SMALL_GEO, **server_kwargs)
        await server.start()
        clients = [MemoryClient(server) for _ in pipelines]
        pending = []
        for (index, chunk), pause in zip(schedule, yields):
            pending.append(
                (index, asyncio.ensure_future(clients[index].request(chunk)))
            )
            # Let the request start (reads arrive in schedule order),
            # and sometimes let the drain run in between.
            await asyncio.sleep(0)
            if pause:
                await asyncio.sleep(0)
        streams = [bytearray() for _ in pipelines]
        for index, reply in pending:
            streams[index] += await reply
        await server.close()
        counters = counters_snapshot(server.service.cluster.aggregate_stats())
        return [bytes(stream) for stream in streams], counters, server.metrics

    return asyncio.run(scenario())


@settings(max_examples=150, deadline=None)
@given(deliveries(), st.sampled_from([1, 2, 5, 256]))
def test_any_cut_any_interleaving_same_bytes_as_one_execute(delivery, max_batch):
    """Connections share keys, the queue never fills: execution order is
    arrival order, so the oracle is one ``execute`` call over everything
    -- which also makes the counters independent of where reads and
    drains cut the stream."""
    pipelines, schedule, yields = delivery
    streams, counters, metrics = serve(
        pipelines, schedule, yields, max_batch=max_batch
    )
    expected, expected_counters = expected_streams(pipelines, schedule)
    assert streams == expected
    assert counters == expected_counters
    assert metrics.shed == 0


@settings(max_examples=100, deadline=None)
@given(
    deliveries(own_keys=True),
    st.sampled_from([1, 3, 8]),
    st.sampled_from([1, 2, 256]),
)
def test_a_full_queue_delays_replies_but_never_reorders_them(
    delivery, queue_depth, max_batch
):
    """``backpressure="queue"`` with a queue far smaller than the
    pipelines: jobs are held and queued later, so order *across*
    connections is no longer arrival order. Each connection has its own
    keys, and must still see exactly its own pipeline's replies, with
    the queue never deeper than its bound."""
    pipelines, schedule, yields = delivery
    streams, counters, metrics = serve(
        pipelines, schedule, yields, queue_depth=queue_depth, max_batch=max_batch
    )
    whole = [(index, pipeline) for index, pipeline in enumerate(pipelines)]
    expected, expected_counters = expected_streams(pipelines, whole)
    assert streams == expected
    assert counters == expected_counters
    assert metrics.queue_depth_high_water <= queue_depth
    assert metrics.shed == 0
