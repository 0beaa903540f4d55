"""Seed derivation helpers.

All randomness in the package flows through numpy Generators built here.
Every random draw takes ``(seed, *key)``: ``seed`` is the root of a seed
tree (an int or a SeedSequence) and ``key`` an integer path into it, turned
into SeedSequence spawn keys. So any (seed, key) pair maps to the same
stream regardless of execution order or parallelism, and a draw with no key
reads the root itself. Callers build each stream where it is read, so a
stream no step draws from costs nothing.
"""

from __future__ import annotations

import numpy as np


def seed_sequence(seed, *key: int) -> np.random.SeedSequence:
    """Return the SeedSequence for `seed` refined by an integer key path."""
    if isinstance(seed, np.random.SeedSequence):
        base_entropy, base_key = seed.entropy, tuple(seed.spawn_key)
    else:
        base_entropy, base_key = int(seed), ()
    return np.random.SeedSequence(base_entropy, spawn_key=base_key + tuple(int(k) for k in key))


def make_rng(seed, *key: int) -> np.random.Generator:
    """PCG64 generator for the substream identified by (seed, *key)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *key)))
