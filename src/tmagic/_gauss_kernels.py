"""Seeded Pauli letter rows for the census and the Gauss-sum benchmarks.

Letters are 0 = I, 1 = Z, 2 = X, 3 = Y (``pauli.letters_to_pauli``).  The
rows are Python lists drawn without numpy: the seeded ones decode the
words of ``tmagic.draws.PCG64Words``, as numpy's Generator would.
"""

from __future__ import annotations

from .draws import PCG64Words, RawDraws


def sample_letters(k: int, samples: int, seed: int) -> list[list[int]]:
    """Seeded uniform Pauli letter rows; shared by every census path.

    The rows of ``default_rng(seed).integers(0, 4, size=(samples, k))``:
    bound 4 takes the top 2 bits of each 32-bit half of a raw word, low
    half first, so each word gives two letters.
    """
    flat = RawDraws(PCG64Words(seed)).run(2, samples * k)
    return [flat[i:i + k] for i in range(0, len(flat), k)]


def exhaustive_letters(k: int) -> list[list[int]]:
    """All 4^k letter rows; row i holds the base-4 digits of i, qubit 0 lowest."""
    return [[i >> 2 * q & 3 for q in range(k)] for i in range(4 ** k)]
