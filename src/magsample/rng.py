"""Seedable counter-based random generator used for sampling plans.

The generator is a splitmix-style bit mixer evaluated at explicit counter
positions, so any draw can be computed independently of all others:

    value(seed, counter) = mix64((seed + (counter + 1) * GAMMA) mod 2**64)

with GAMMA = 0x9E3779B97F4A7C15 and

    mix64(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9   (mod 2**64)
               z ^= z >> 27;  z *= 0x94D049BB133111EB   (mod 2**64)
               z ^= z >> 31

Uniform doubles take the top 53 bits, ``(value >> 11) * 2**-53``, giving
values in [0, 1). Because draws are indexed by counter rather than produced
sequentially, disjoint counter ranges can be evaluated in any order or on
any number of workers and still yield the identical stream. Together with
the fixed constants above this makes plans reproducible byte for byte, and
reproducible by independent implementations in other languages.

:meth:`CounterRng.uniform_at` is the one implementation in the package. A
pure-Python one, written from the formulas above with integer arithmetic,
lives in ``tests/conftest.py`` as the reference it must match bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)


class CounterRng:
    """Random-access uniform generator over a 64-bit counter space."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK

    def uniform_at(self, counters) -> np.ndarray:
        """Uniform doubles in [0, 1) at an array of counter positions."""
        c = np.asarray(counters, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + (c + np.uint64(1)) * np.uint64(_GAMMA)
            z = z ^ (z >> np.uint64(30))
            z = z * np.uint64(_MIX1)
            z = z ^ (z >> np.uint64(27))
            z = z * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def __repr__(self) -> str:
        return f"CounterRng(seed={self.seed})"
