"""Fixture: library hygiene violation: an assert that vanishes under
python -O."""

import math


def check_budget(budget: float) -> float:
    assert budget > 0, "budget must be positive"
    return math.sqrt(budget)
