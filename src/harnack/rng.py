"""Seeded randomness for Monte Carlo cross-checks.

All stochastic code in this package draws from numpy's Philox bit generator
(Philox4x64-10), a named counter-based generator: a ``(seed, stream)`` pair
fully determines the output stream, independent of platform threading.  Seeds
are recorded in every report that used randomness.
"""

from __future__ import annotations

import numpy as np


def philox(seed: int, stream: int) -> np.random.Generator:
    """Return a Generator over Philox keyed by ``(seed, stream)``."""
    if not (0 <= seed < 1 << 64 and 0 <= stream < 1 << 64):
        raise ValueError("seed and stream must be integers in [0, 2^64)")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
