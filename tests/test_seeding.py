"""Seed derivation: one splitmix64 step from a jumped state."""

import random

from apolar.seeding import derive_seed, splitmix64


def _iterated(master_seed, index):
    state, out = master_seed & (1 << 64) - 1, None
    for _ in range(index + 1):
        state, out = splitmix64(state)
    return out


def test_derive_seed_is_the_iterated_generator():
    # step index + 1 of splitmix64 starts from master + index * increment, mod
    # 2^64, whatever the sign or size of the master seed
    rng = random.Random(64)
    masters = [0, 1, -1, 5, 23, (1 << 64) - 1, 1 << 64, -(1 << 70)]
    masters += [rng.randint(-(1 << 80), 1 << 80) for _ in range(40)]
    for master in masters:
        for index in range(60):
            assert derive_seed(master, index) == _iterated(master, index)
