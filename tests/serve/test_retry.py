"""Client retry/backoff: policy validation and retry semantics.

The safety contracts pinned here: mutating ops retry only on ``BUSY``
(provably never executed), GETs additionally retry connection errors
(idempotent), the retry budget bounds total retries, and a ``noreply``
SET's side effect applies at most once no matter how aggressive the
policy -- the Hypothesis property drives that last one through the real
server with a shedding queue.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.slabs import SlabGeometry
from repro.cluster import Cluster, ClusterConfig
from repro.common.errors import ConfigurationError
from repro.serve.loadgen import LoadGenerator, RetryPolicy
from repro.serve.protocol import BUSY
from repro.serve.server import CacheServerProcess
from repro.serve.service import CacheService

GEO = SlabGeometry.default()


class ScriptedClient:
    """Answers ``request`` from a script of responses or exceptions."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    async def request(self, data: bytes) -> bytes:
        self.calls.append(data)
        step = self.script.pop(0) if self.script else b"END\r\n"
        if isinstance(step, BaseException):
            raise step
        return step


def run_generator(clients, work, retry, **kwargs):
    # rate x duration rounds to exactly one scheduled request: each
    # test drives a single request through the retry loop.
    generator = LoadGenerator(
        rate=kwargs.pop("rate", 1000.0),
        duration_s=kwargs.pop("duration_s", 0.001),
        arrivals="fixed",
        seed=kwargs.pop("seed", 0),
        retry=retry,
        **kwargs,
    )
    return asyncio.run(generator.run(clients, work))


class TestRetryPolicy:
    def test_round_trip_and_defaults(self):
        policy = RetryPolicy(max_attempts=3, budget=0.5)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert RetryPolicy.from_dict(None) == RetryPolicy()
        assert RetryPolicy().max_attempts == 1  # fire-once by default

    @pytest.mark.parametrize(
        ("fields", "match"),
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"base_backoff_s": -1.0}, "base_backoff_s"),
            ({"base_backoff_s": 0.2, "max_backoff_s": 0.1}, "max_backoff_s"),
            # Retired fields are refused by name, whatever the value.
            ({"jitter": 0.5}, "jitter"),
            ({"deadline_s": 0.1}, "deadline_s"),
            ({"budget": -1.0}, "budget"),
            ({"hedge_after_s": 0.005}, "hedge_after_s"),
        ],
    )
    def test_field_validation(self, fields, match):
        with pytest.raises(ConfigurationError, match=match):
            RetryPolicy.from_dict(fields)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown retry"):
            RetryPolicy.from_dict({"max_attempts": 2, "attempts": 2})
        with pytest.raises(ConfigurationError, match="mapping"):
            RetryPolicy.from_dict([1, 2])

    def test_backoff_doubles_and_caps(self):
        class NoJitter(random.Random):
            def random(self):
                return 0.0

        policy = RetryPolicy(
            max_attempts=6, base_backoff_s=0.010, max_backoff_s=0.030
        )
        steps = [policy.backoff_s(k, NoJitter()) for k in (1, 2, 3, 4)]
        assert steps == [0.010, 0.020, 0.030, 0.030]

    def test_jitter_is_seed_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.010)
        first = [policy.backoff_s(1, random.Random(42)) for _ in range(3)]
        assert first[0] == first[1] == first[2]
        assert 0.005 <= first[0] <= 0.010


class TestRetrySemantics:
    def work(self, op="get"):
        if op == "set":
            return [(b"set k 0 0 1\r\nV\r\n", "set")]
        return [(b"get k\r\n", "get")]

    def test_busy_get_retries_until_success(self):
        client = ScriptedClient([BUSY, BUSY, b"VALUE k 0 1\r\nV\r\nEND\r\n"])
        result = run_generator(
            [client],
            self.work(),
            RetryPolicy(max_attempts=3, base_backoff_s=0.0, budget=10.0),
        )
        assert result.completed == 1
        assert result.retries == 2
        assert result.shed == 0

    def test_busy_set_retries_too(self):
        # BUSY means the queue rejected the command outright -- safe to
        # retry even a mutation.
        client = ScriptedClient([BUSY, b"STORED\r\n"])
        result = run_generator(
            [client],
            self.work("set"),
            RetryPolicy(max_attempts=3, base_backoff_s=0.0, budget=10.0),
        )
        assert result.completed == 1
        assert result.retries == 1

    def test_connection_error_retries_get_only(self):
        get_client = ScriptedClient(
            [ConnectionResetError(), b"VALUE k 0 1\r\nV\r\nEND\r\n"]
        )
        result = run_generator(
            [get_client],
            self.work(),
            RetryPolicy(max_attempts=3, base_backoff_s=0.0, budget=10.0),
        )
        assert result.completed == 1
        assert result.retries == 1

        set_client = ScriptedClient([ConnectionResetError(), b"STORED\r\n"])
        result = run_generator(
            [set_client],
            self.work("set"),
            RetryPolicy(max_attempts=3, base_backoff_s=0.0, budget=10.0),
        )
        # A SET whose connection died may have executed server-side:
        # never retried, surfaces as an error.
        assert result.errors == 1
        assert result.retries == 0
        assert len(set_client.calls) == 1

    def test_client_error_is_terminal(self):
        client = ScriptedClient([b"CLIENT_ERROR bad\r\n", b"END\r\n"])
        result = run_generator(
            [client],
            self.work(),
            RetryPolicy(max_attempts=3, base_backoff_s=0.0, budget=10.0),
        )
        assert result.errors == 1
        assert result.retries == 0

    def test_exhausted_attempts_count_shed(self):
        client = ScriptedClient([BUSY, BUSY, BUSY])
        result = run_generator(
            [client],
            self.work(),
            RetryPolicy(max_attempts=3, base_backoff_s=0.0, budget=10.0),
        )
        assert result.shed == 1
        assert result.retries == 2

    def test_budget_zero_never_retries(self):
        client = ScriptedClient([BUSY, b"END\r\n"])
        result = run_generator(
            [client],
            self.work(),
            RetryPolicy(max_attempts=5, base_backoff_s=0.0, budget=0.0),
        )
        assert result.retries == 0
        assert result.shed == 1

    def test_no_policy_is_fire_once(self):
        client = ScriptedClient([BUSY, b"END\r\n"])
        result = run_generator([client], self.work(), None)
        assert result.shed == 1
        assert result.retries == 0
        assert len(client.calls) == 1


class CountingService(CacheService):
    """Counts how many times each SET key actually executes."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.set_executions = {}

    def execute(self, commands):
        for command in commands:
            if command.op == "set":
                key = command.keys[0]
                self.set_executions[key] = (
                    self.set_executions.get(key, 0) + 1
                )
        return super().execute(commands)


class TestNoreplyNeverDuplicated:
    @settings(max_examples=20, deadline=None)
    @given(
        sets=st.integers(min_value=1, max_value=12),
        queue_depth=st.integers(min_value=1, max_value=4),
        max_attempts=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_noreply_set_executes_at_most_once(
        self, sets, queue_depth, max_attempts, seed
    ):
        """However aggressive the retry policy and however hard the
        server sheds, a ``noreply`` SET's side effect applies at most
        once: it produces no response, so the retry loop structurally
        never sees a failure to retry."""

        async def scenario():
            cluster = Cluster(ClusterConfig(shards=2), GEO)
            service = CountingService(cluster)
            server = CacheServerProcess(
                service, backpressure="shed", queue_depth=queue_depth
            )
            await server.start()
            from repro.serve.server import MemoryClient

            clients = [MemoryClient(server), MemoryClient(server)]
            work = [
                (b"set nk%d 0 0 1 noreply\r\nV\r\n" % i, "set")
                for i in range(sets)
            ]
            generator = LoadGenerator(
                rate=50_000.0,
                duration_s=sets / 50_000.0,
                arrivals="fixed",
                seed=seed,
                retry=RetryPolicy(
                    max_attempts=max_attempts,
                    base_backoff_s=0.0,
                    budget=100.0,
                ),
            )
            result = await generator.run(clients, work)
            await server.close()
            return service.set_executions, result

        executions, result = asyncio.run(scenario())
        assert all(count == 1 for count in executions.values())
        # Every noreply SET reports success immediately -- no retries,
        # no errors, whatever the server shed.
        assert result.retries == 0
        assert result.errors == 0
        assert result.completed == result.issued
