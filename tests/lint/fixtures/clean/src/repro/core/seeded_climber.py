"""Fixture: a hill climber drawing victims from a seeded RNG."""

import random


def pick_victim(donors: list, seed: int):
    rng = random.Random(seed)
    return donors[rng.randrange(len(donors))]
