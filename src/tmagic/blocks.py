"""The catalog's block sizes and the greedy block cover of a T-count.

Both engines split a T-count into catalog blocks the same way: the
stabilizer-rank path tensors the catalog entries of the cover, the
Gauss-sum path evaluates one closed form per block.  This module holds that
one decision and nothing else, so the Gauss path and the CLI can cover a
T-count without loading the catalog or the stabilizer kernel.
"""

from __future__ import annotations

from typing import Sequence

#: term count of each catalog decomposition, keyed by its T-count
CATALOG_TERM_COUNTS = {1: 2, 2: 2, 3: 3, 6: 7, 12: 47}

DEFAULT_POLICY = (12, 6, 3, 2, 1)


def block_cover(t: int, policy: Sequence[int] = DEFAULT_POLICY) -> list[int]:
    """Greedy largest-block-first cover of t by catalog block sizes."""
    sizes = sorted(set(policy), reverse=True)
    for k in sizes:
        if k not in CATALOG_TERM_COUNTS:
            raise ValueError(f"policy block size {k} not in catalog")
    blocks = []
    rest = t
    for k in sizes:
        while rest >= k:
            blocks.append(k)
            rest -= k
    if rest:
        raise ValueError(f"policy {list(policy)} cannot cover t={t}")
    return blocks
