"""Deterministic seed derivation for reproducible randomized computations.

A single 64-bit master seed is expanded into independent per-trial seeds
with the splitmix64 sequence, so that reports are reproducible and adding
trials never perturbs earlier ones.
"""

import random

_MASK64 = (1 << 64) - 1
_COEFF_BOUND = 1000
# samples a secant-dimension report takes at most: a rank below the proven
# upper bound may come from a special sample, so another is drawn.  Every
# report envelope records it, whatever the command.
TRIALS = 3


def splitmix64(state):
    """Advance the splitmix64 generator once; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def derive_seed(master_seed, index):
    """Seed for sub-computation `index` derived from the master seed."""
    state = master_seed & _MASK64
    out = 0
    for _ in range(index + 1):
        state, out = splitmix64(state)
    return out


def trial_rng(master_seed, index):
    """A `random.Random` owned by trial `index` of the given master seed."""
    return random.Random(derive_seed(master_seed, index))


def random_point(rng, num_coords):
    """Affine-chart sample: coordinates uniform in [1, 2^16], last one 1."""
    return [rng.randint(1, 1 << 16) for _ in range(num_coords - 1)] + [1]


def random_coefficients(rng, count):
    """Nonzero integer coefficient vector, entries uniform in [-_COEFF_BOUND, _COEFF_BOUND]."""
    while True:
        coeffs = [rng.randint(-_COEFF_BOUND, _COEFF_BOUND) for _ in range(count)]
        if any(coeffs):
            return coeffs
