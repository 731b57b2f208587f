"""Reproducible random number streams.

Every stochastic run is keyed by an explicit 64-bit seed; replica r draws
from a counter-based Philox generator with key (seed, r), so replica streams
are independent of each other and of how many replicas run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["replica_rng"]


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Generator for one replica: Philox keyed by (seed, replica)."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if replica < 0:
        raise ValueError("replica index must be nonnegative")
    return np.random.Generator(np.random.Philox(key=np.array([seed, replica],
                                                             dtype=np.uint64)))
