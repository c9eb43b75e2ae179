"""Open-loop load generator: schedules, accounting, trace compilation."""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import ConfigurationError
from repro.serve.loadgen import (
    LoadGenerator,
    LoadResult,
    commands_from_trace,
)
from repro.serve.protocol import (
    MAX_VALUE_BYTES,
    Command,
    ProtocolParser,
    encode_command,
)
from repro.serve.service import synthesize_value
from tests.workloads.reference_streams import iter_requests


class StubClient:
    """Scripted responder: answers each request from a canned list."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.seen = []

    async def request(self, data: bytes) -> bytes:
        self.seen.append(data)
        if not self.responses:
            return b"END\r\n"
        return self.responses.pop(0)


class TestSchedules:
    def test_fixed_offsets_evenly_spaced(self):
        generator = LoadGenerator(rate=100.0, duration_s=0.5, arrivals="fixed")
        offsets = generator.offsets()
        assert len(offsets) == 50
        assert offsets[0] == 0.0
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(gap == pytest.approx(0.01) for gap in gaps)

    def test_poisson_offsets_deterministic_per_seed(self):
        make = lambda seed: LoadGenerator(
            rate=500.0, duration_s=0.2, arrivals="poisson", seed=seed
        ).offsets()
        assert make(7) == make(7)
        assert make(7) != make(8)

    def test_poisson_mean_gap_matches_rate(self):
        offsets = LoadGenerator(
            rate=1000.0, duration_s=2.0, arrivals="poisson", seed=0
        ).offsets()
        assert len(offsets) == 2000
        assert offsets == sorted(offsets)
        mean_gap = offsets[-1] / (len(offsets) - 1)
        assert mean_gap == pytest.approx(1e-3, rel=0.1)

    def test_count_never_zero(self):
        assert len(LoadGenerator(rate=1.0, duration_s=0.01).offsets()) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0, "duration_s": 1.0},
            {"rate": 100.0, "duration_s": 0.0},
            {"rate": 100.0, "duration_s": 1.0, "arrivals": "bursty"},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadGenerator(**kwargs)


class TestAccounting:
    WORK = [b"get k\r\n"]

    def run(self, generator, clients):
        return asyncio.run(generator.run(clients, self.WORK))

    def test_completed_and_error_tallies(self):
        responses = [
            b"VALUE k 0 1\r\nx\r\nEND\r\n",
            b"ERROR\r\n",
            b"SERVER_ERROR internal error\r\n",
            b"END\r\n",
            b"CLIENT_ERROR bad\r\n",
        ]
        client = StubClient(responses)
        generator = LoadGenerator(rate=5000.0, duration_s=0.001,
                                  arrivals="fixed")
        result = self.run(generator, [client])
        assert result.issued == 5
        assert result.completed == 2
        assert result.errors == 3
        # Only completed requests are timed.
        assert result.histogram.count == 2
        assert result.achieved_rate == pytest.approx(
            result.completed / result.elapsed_s
        )

    def test_connection_error_counts_as_error(self):
        class Dropper:
            async def request(self, data):
                raise ConnectionResetError

        generator = LoadGenerator(rate=3000.0, duration_s=0.001,
                                  arrivals="fixed")
        result = self.run(generator, [Dropper()])
        assert result.errors == result.issued == 3
        assert result.completed == 0
        assert result.histogram.count == 0

    def test_round_robin_across_clients(self):
        clients = [StubClient([]) for _ in range(3)]
        generator = LoadGenerator(rate=6000.0, duration_s=0.001,
                                  arrivals="fixed")
        self.run(generator, clients)
        assert [len(c.seen) for c in clients] == [2, 2, 2]

    def test_work_cycles_when_shorter_than_schedule(self):
        client = StubClient([])
        generator = LoadGenerator(rate=4000.0, duration_s=0.001,
                                  arrivals="fixed")
        work = [b"get a\r\n", b"get b\r\n"]
        asyncio.run(generator.run([client], work))
        assert client.seen == [
            b"get a\r\n", b"get b\r\n", b"get a\r\n", b"get b\r\n",
        ]

    def test_empty_result_rates(self):
        result = LoadResult(offered_rate=100.0, duration_s=1.0,
                            arrivals="fixed")
        assert result.achieved_rate == 0.0


class TestTraceCompilation:
    def make_trace(self):
        from repro.sim.workloads import load_workload

        trace = load_workload(
            "zipf", scale=1.0, seed=0,
            apps=1, num_keys=200, requests_per_app=400,
        )
        return trace.compiled

    def test_commands_cover_ops_and_round_trip(self):
        compiled = self.make_trace()
        work = commands_from_trace(compiled, limit=300)
        assert 0 < len(work) <= 300
        parser = ProtocolParser()
        ops = set()
        for data in work:
            parser.feed(data)
            event = parser.next_event()
            assert event is not None and event.command is not None
            op = event.command.op
            ops.add(op)
            if op == "set":
                assert event.command.data is not None
                assert len(event.command.data) > 0
        assert "get" in ops

    def test_limit_respected_and_deterministic(self):
        compiled = self.make_trace()
        first = commands_from_trace(compiled, limit=50)
        second = commands_from_trace(self.make_trace(), limit=50)
        assert len(first) == 50
        assert first == second

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            commands_from_trace(self.make_trace().slice(0, 0), limit=10)

    @pytest.mark.parametrize("limit", [1, 37, 800, 5_000])
    def test_equals_walking_the_requests(self, limit):
        # A mixed-op, mixed-size trace, one value past the wire's cap.
        from repro.cache.slabs import SlabGeometry
        from repro.workloads.compiled import CompiledTrace
        from repro.workloads.trace import OPS, Request

        geometry = SlabGeometry((128, 4096, 4 << 20))
        sizes = [10, 3_000, MAX_VALUE_BYTES + 5]
        compiled = CompiledTrace.compile(
            [
                Request(time=float(i), app="a", key=f"a:k{i % 50}",
                        op=OPS[i % 3], value_size=sizes[(i // 3) % 3])
                for i in range(60)
            ]
            + list(iter_requests(self.make_trace())),
            geometry,
        )
        work = commands_from_trace(compiled, limit)
        assert work == walk_requests(compiled, limit)
        assert len(work) == min(limit, len(compiled))


def walk_requests(trace, limit):
    """``commands_from_trace`` as it was first written: a ``Request``
    per row, dispatched on its op name."""
    work = []
    for request in iter_requests(trace):
        if len(work) >= limit:
            break
        if request.op == "set":
            size = min(int(request.value_size), MAX_VALUE_BYTES)
            command = Command(
                op="set",
                keys=[request.key],
                data=synthesize_value(request.key, size),
            )
        elif request.op == "delete":
            command = Command(op="delete", keys=[request.key])
        else:
            command = Command(op="get", keys=[request.key])
        work.append(encode_command(command))
    return work
