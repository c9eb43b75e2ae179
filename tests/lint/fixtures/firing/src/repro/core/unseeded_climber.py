"""Fixture: a hill climber whose victim draw is not reproducible."""

import random
import time


def pick_victim(donors: list):
    rng = random.Random()
    if time.time() % 2:
        return random.choice(donors)
    return donors[rng.randrange(len(donors))]
