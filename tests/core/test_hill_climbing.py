"""Tests for Algorithm 1, including the section 4.1 equilibrium claim:
hill climbing equalizes the frequency-weighted hit-rate gradients."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.core.hill_climbing import HillClimber


class FakeQueue:
    def __init__(self, capacity):
        self.capacity_bytes = float(capacity)

    def set_capacity(self, value):
        self.capacity_bytes = value


def make_climber(capacities, credit=10, minimum=0, seed=1):
    queues = {name: FakeQueue(c) for name, c in capacities.items()}
    climber = HillClimber(
        credit_bytes=credit, min_bytes=minimum, rng=random.Random(seed)
    )
    for name, queue in queues.items():
        climber.register(name, queue)
    return climber, queues


class TestMechanics:
    def test_transfer_conserves_total(self):
        climber, queues = make_climber({"a": 100, "b": 100, "c": 100})
        for _ in range(50):
            climber.on_shadow_hit("a")
        total = sum(q.capacity_bytes for q in queues.values())
        assert total == pytest.approx(300)
        assert queues["a"].capacity_bytes > 100

    def test_victim_is_never_the_winner(self):
        climber, queues = make_climber({"a": 100, "b": 100})
        for _ in range(5):
            victim = climber.on_shadow_hit("a")
            assert victim == "b"

    def test_floor_respected(self):
        climber, queues = make_climber(
            {"a": 100, "b": 30}, credit=10, minimum=20
        )
        for _ in range(50):
            climber.on_shadow_hit("a")
        assert queues["b"].capacity_bytes >= 20 - 1e-9

    def test_no_donor_returns_none(self):
        climber, queues = make_climber({"a": 100, "b": 5}, minimum=5)
        assert climber.on_shadow_hit("a") is None

    def test_single_queue_is_noop(self):
        climber, queues = make_climber({"a": 100})
        assert climber.on_shadow_hit("a") is None
        assert queues["a"].capacity_bytes == 100

    def test_unknown_queue_raises(self):
        climber, _ = make_climber({"a": 100})
        with pytest.raises(ConfigurationError):
            climber.on_shadow_hit("ghost")

    def test_duplicate_registration_rejected(self):
        climber, _ = make_climber({"a": 100})
        with pytest.raises(ConfigurationError):
            climber.register("a", FakeQueue(0))

    def test_invalid_credit(self):
        with pytest.raises(ConfigurationError):
            HillClimber(credit_bytes=0)


class TestEquilibrium:
    def test_equalizes_weighted_gradients(self):
        """Simulated closed loop on synthetic concave curves
        h_i(m) = 1 - exp(-m / tau_i): shadow-hit probability is
        proportional to f_i * h_i'(m_i); in equilibrium the weighted
        gradients must be (approximately) equal -- the optimality
        condition of Eq. 2."""
        import math

        taus = {"a": 50.0, "b": 150.0, "c": 300.0}
        freqs = {"a": 5.0, "b": 2.0, "c": 1.0}
        climber, queues = make_climber(
            {name: 200.0 for name in taus}, credit=2.0, seed=7
        )
        rng = random.Random(99)

        def gradient(name):
            m = queues[name].capacity_bytes
            return freqs[name] * math.exp(-m / taus[name]) / taus[name]

        # Drive shadow hits with probability proportional to the local
        # weighted gradient (what a real shadow queue measures).
        for _ in range(60000):
            grads = {name: gradient(name) for name in taus}
            total = sum(grads.values())
            u = rng.random() * total
            acc = 0.0
            for name, g in grads.items():
                acc += g
                if u <= acc:
                    climber.on_shadow_hit(name)
                    break
        final = [gradient(name) for name in taus]
        spread = max(final) / max(min(final), 1e-12)
        assert spread < 2.0, (final, {n: q.capacity_bytes for n, q in queues.items()})
        # And memory sums unchanged.
        assert sum(q.capacity_bytes for q in queues.values()) == pytest.approx(600)

    def test_starved_queue_recovers_when_demand_returns(self):
        climber, queues = make_climber({"a": 100, "b": 100}, credit=5)
        for _ in range(30):
            climber.on_shadow_hit("a")
        assert queues["b"].capacity_bytes < 100
        for _ in range(60):
            climber.on_shadow_hit("b")
        assert queues["b"].capacity_bytes > 100
