"""CacheService: wire semantics, and batching that clients cannot see."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cache.slabs import SlabGeometry
from repro.cluster import Cluster, ClusterConfig
from repro.serve.protocol import (
    DELETED,
    END,
    NOT_FOUND,
    STORED,
    Command,
)
from repro.serve.service import CacheService
from tests.cluster.helpers import counters_snapshot

GEO = SlabGeometry.default()


def make_service(shards=4, replication=1):
    cluster = Cluster(
        ClusterConfig(shards=shards, replication=replication), GEO
    )
    return CacheService(cluster)


def one(service, command):
    (response,) = service.execute([command])
    return response


class TestWireSemantics:
    def test_set_get_delete_round_trip(self):
        service = make_service()
        assert one(service, Command(op="set", keys=["k"], flags=5,
                                    data=b"hello")) == STORED
        response = one(service, Command(op="get", keys=["k"]))
        assert response == b"VALUE k 5 5\r\nhello\r\n" + END
        assert one(service, Command(op="delete", keys=["k"])) == DELETED
        assert one(service, Command(op="delete", keys=["k"])) == NOT_FOUND

    def test_get_miss_returns_bare_end(self):
        service = make_service()
        assert one(service, Command(op="get", keys=["never"])) == END

    def test_multi_get_mixes_hits_and_misses(self):
        service = make_service()
        service.execute([Command(op="set", keys=["a"], data=b"x")])
        response = one(service, Command(op="get", keys=["a", "miss", "a"]))
        # Both "a" occurrences answer; "miss" contributes nothing.
        assert response.count(b"VALUE a") == 2
        assert b"miss" not in response
        assert response.endswith(END)

    def test_engine_filled_key_serves_synthesized_payload(self):
        """The trace-replay convention fills engines on a GET miss; the
        *second* GET therefore hits and must serve deterministic bytes
        of the remembered default size."""
        service = make_service(shards=1)
        first = one(service, Command(op="get", keys=["warm"]))
        assert first == END
        second = one(service, Command(op="get", keys=["warm"]))
        assert second.startswith(b"VALUE warm 0 100\r\n")
        third = one(service, Command(op="get", keys=["warm"]))
        assert second == third

    def test_oversized_set_is_preset_and_does_not_poison_batch(self):
        service = make_service()
        huge = b"x" * (2 << 20)
        responses = service.execute(
            [
                Command(op="set", keys=["ok"], data=b"fine"),
                Command(op="set", keys=["huge"], data=huge),
                Command(op="get", keys=["ok"]),
            ]
        )
        assert responses[0] == STORED
        assert responses[1].startswith(b"SERVER_ERROR object too large")
        assert responses[2].startswith(b"VALUE ok")

    def test_stats_and_quit(self):
        service = make_service()
        service.execute([Command(op="set", keys=["k"], data=b"v")])
        stats, farewell = service.execute(
            [Command(op="stats"), Command(op="quit")]
        )
        assert stats.startswith(b"STAT cmd_get")
        assert b"STAT shards 4" in stats
        assert stats.endswith(END)
        assert farewell == b""

    def test_default_app_registered_lazily(self):
        service = make_service()
        assert "serve" not in service.cluster.servers[0].engines
        service.execute([Command(op="get", keys=["plain"])])
        assert "serve" in service.cluster.servers[0].engines

    def test_app_prefix_routes_to_registered_tenant(self):
        from repro.cache.engines import FirstComeFirstServeEngine

        cluster = Cluster(ClusterConfig(shards=2), GEO)
        cluster.add_app(
            "zipf01",
            1 << 20,
            lambda shard, share: FirstComeFirstServeEngine(
                "zipf01", share, GEO
            ),
        )
        service = CacheService(cluster)
        assert service.app_of_key("zipf01:z:9") == "zipf01"
        assert service.app_of_key("zipf99:z:9") == "serve"
        assert service.app_of_key("plain") == "serve"
        service.execute([Command(op="get", keys=["zipf01:z:9"])])
        stats = cluster.aggregate_stats()
        assert stats.app_hit_rate("zipf01") == 0.0  # one miss, counted


def shard_counters(service):
    """Per-shard ``(app, class)`` counters, comparable."""
    return [
        counters_snapshot(server.stats)
        for server in service.cluster.servers
    ]


KEYS = st.sampled_from(["a", "b", "c", "d"])
COMMANDS = st.lists(
    st.one_of(
        st.builds(
            Command,
            op=st.just("set"),
            keys=st.lists(KEYS, min_size=1, max_size=1),
            flags=st.integers(min_value=0, max_value=9),
            data=st.sampled_from(
                # the last one exceeds the largest chunk: a preset error
                [b"", b"one", b"x" * 300, b"y" * 5000, b"z" * (2 << 20)]
            ),
        ),
        st.builds(
            Command,
            op=st.just("get"),
            keys=st.lists(KEYS, min_size=1, max_size=3),
        ),
        st.builds(
            Command,
            op=st.just("delete"),
            keys=st.lists(KEYS, min_size=1, max_size=1),
        ),
        st.just(Command(op="stats")),
    ),
    max_size=30,
)


class TestBatchingIsInvisible:
    @settings(max_examples=60, deadline=None)
    @given(
        commands=COMMANDS,
        shards=st.integers(min_value=1, max_value=3),
        replication=st.integers(min_value=1, max_value=2),
    )
    def test_one_batch_equals_one_command_at_a_time(
        self, commands, shards, replication
    ):
        """However the worker's wakes happen to cut the command stream,
        clients see the same bytes and the shards the same counters:
        ``execute(commands)`` equals ``execute([c])`` per command on a
        fresh service. ``stats`` is the one command that can tell -- it
        answers after its batch's data-plane rows, i.e. with the state
        the one-at-a-time service reaches at the end."""
        batched = make_service(shards, replication)
        singly = make_service(shards, replication)
        together = batched.execute(commands)
        one_by_one = [one(singly, command) for command in commands]
        final_stats = one(singly, Command(op="stats"))
        assert together == [
            final_stats if command.op == "stats" else response
            for command, response in zip(commands, one_by_one)
        ]
        assert shard_counters(batched) == shard_counters(singly)
