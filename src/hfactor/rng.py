"""Seed derivation for reproducible parallel Monte Carlo runs.

Every experiment takes one 64-bit seed.  Per-trial generators are seeded by
mixing the trial index into the master seed with the splitmix64 finalizer
(Steele, Lea, Flood 2014), so trials form independent streams whose results
do not depend on execution order.
"""

import random

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Child seed for a (nested) stream index, e.g. derive_seed(s, trial)."""
    z = seed & _MASK64
    for idx in indices:
        z = mix64((z + _GOLDEN * (idx + 1)) & _MASK64)
    return z


def rng_for(seed: int) -> random.Random:
    """A fresh generator on the stream of seed; pass derive_seed(seed, ...) for a child stream."""
    return random.Random(seed & _MASK64)
