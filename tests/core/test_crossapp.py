"""Tests for cross-application hill climbing (section 3.3)."""

import pytest

from repro.cache.engines import FirstComeFirstServeEngine
from repro.cache.server import CacheServer
from repro.cache.slabs import SlabGeometry
from repro.core.crossapp import CrossAppHillClimber
from repro.workloads.compiled import CompiledTrace
from repro.workloads.trace import Request

GEO = SlabGeometry.default()


def get(key, app, size=100, t=0.0):
    return Request(time=t, app=app, key=key, op="get", value_size=size)


def build_server(budgets):
    server = CacheServer(GEO)
    for app, budget in budgets.items():
        server.add_app(FirstComeFirstServeEngine(app, budget, GEO))
    return server


def replay(climber, requests):
    return climber.replay_compiled(CompiledTrace.compile(requests, GEO))


def outcome(climber):
    """Final budgets, transfers and per-app ``(get_hits, get_misses)``."""
    return (
        climber.budgets(),
        climber.climber.transfers,
        {
            app: (counter.get_hits, counter.get_misses)
            for app, counter in climber.server.stats.by_app.items()
        },
    )


class TestCrossAppHillClimber:
    def test_budgets_conserved(self, rng):
        server = build_server({"rich": 128 * 1024, "poor": 128 * 1024})
        climber = CrossAppHillClimber(
            server, credit_bytes=2048, shadow_bytes=64 * 1024, seed=1
        )
        requests = []
        for i in range(8000):
            requests.append(get(f"r{rng.randrange(50)}", "rich"))
            requests.append(get(f"p{rng.randrange(4000)}", "poor"))
        replay(climber, requests)
        budgets = climber.budgets()
        assert sum(budgets.values()) == pytest.approx(256 * 1024, rel=0.01)
        # Recorded from the per-request observer walk this replaced.
        assert outcome(climber) == (
            {"rich": 10240.0, "poor": 251904.0},
            1015,
            {"rich": (6103, 1897), "poor": (1605, 6395)},
        )

    def test_memory_flows_to_the_starved_app(self, rng):
        """'rich' has a tiny working set; 'poor' misses constantly with
        demand just beyond its reservation. Budget should flow."""
        server = build_server({"rich": 192 * 1024, "poor": 64 * 1024})
        climber = CrossAppHillClimber(
            server, credit_bytes=4096, shadow_bytes=128 * 1024, seed=2
        )
        requests = []
        for i in range(12000):
            requests.append(get(f"r{rng.randrange(30)}", "rich"))
            requests.append(get(f"p{rng.randrange(1500)}", "poor", size=200))
        replay(climber, requests)
        assert climber.budgets()["poor"] > 64 * 1024
        # Recorded from the per-request observer walk this replaced.
        assert outcome(climber) == (
            {"rich": 4096.0, "poor": 258048.0},
            47,
            {"rich": (7376, 4624), "poor": (7408, 4592)},
        )

    def test_unmonitored_app_replays_without_climbing(self):
        """An app registered after the climber was built is served and
        recorded, but its misses never move memory."""
        server = build_server({"a": 64 * 1024})
        climber = CrossAppHillClimber(server, credit_bytes=2048, seed=0)
        server.add_app(FirstComeFirstServeEngine("late", 4096, GEO))
        # Far more distinct keys than 4KB holds, each one repeated soon.
        requests = [get(f"k{i % 400}", "late") for i in range(4000)]
        stats = replay(climber, requests)
        assert stats.by_app["late"].gets == 4000
        assert stats.by_app["late"].get_misses > 0
        assert climber.climber.transfers == 0
        assert climber.budgets() == {"a": 64 * 1024, "late": 4096}

    def test_physical_hits_do_not_trigger_climbing(self, rng):
        server = build_server({"a": 256 * 1024, "b": 256 * 1024})
        climber = CrossAppHillClimber(server, seed=0)
        replay(climber, [get("hot", "a")] * 2000)
        assert climber.climber.transfers == 0

    def test_shadow_region_hits_served_from_memory_do_not_climb(self):
        """The monitor only models the reservation: when the engine
        holds more, a key the monitor places in its shadow can still be
        a physical hit, which is no evidence the app needs memory."""
        server = build_server({"a": 4096, "b": 256 * 1024})
        climber = CrossAppHillClimber(server, credit_bytes=2048, seed=0)
        server.engines["a"].grow_budget(1 << 20)  # behind the climber
        requests = [get(f"k{i % 100}", "a") for i in range(2000)]
        stats = replay(climber, requests)
        assert stats.by_app["a"].get_misses == 100  # only the cold pass
        assert climber.climber.transfers == 0
