"""Seeded Pauli letter rows for the census and the Gauss-sum benchmarks.

Letters are 0 = I, 1 = Z, 2 = X, 3 = Y (``pauli.letters_to_pauli``).
"""

from __future__ import annotations

import numpy as np


def sample_letters(k: int, samples: int, seed: int) -> np.ndarray:
    """Seeded uniform Pauli letter rows; shared by every census path."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(samples, k), dtype=np.int64)


def exhaustive_letters(k: int) -> np.ndarray:
    """All 4^k letter rows; row i holds the base-4 digits of i, qubit 0 lowest."""
    return np.arange(4 ** k, dtype=np.int64)[:, None] // 4 ** np.arange(k) % 4
