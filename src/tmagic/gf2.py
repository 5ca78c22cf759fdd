"""Bit-packed linear algebra over Z/2Z.

Vectors are stored as Python ints with coordinate ``i`` in bit ``i`` (LSB).
``to_str``/``from_str`` render coordinate 0 as the leftmost character, the
order of the decomposition file format (whose integers ``int_from_str``
reads) and of the dense oracle's amplitude indexing (see :func:`revbits`).

All elimination goes through one routine, :func:`eliminate`: each column is
reduced against a table indexed by leading (highest) bit that holds a
reduced column and the mask of input columns it sums.  A column that
reduces to zero yields a relation among the inputs.  :func:`solve_columns`
and :func:`rank_of` are thin readings of that table, and :func:`reduce_column`
solves a further right-hand side against a table kept from an earlier
elimination.  Every operation on a column is one XOR of two Python ints, so
a system of m columns of length n costs O(m * rank) word-parallel steps.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def parity(x: int) -> int:
    return x.bit_count() & 1


def revbits(x: int, n: int) -> int:
    """Reverse the low n bits; maps coordinate order to dense-index order."""
    r = 0
    for _ in range(n):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def to_str(x: int, n: int) -> str:
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def from_str(s: str) -> int:
    x = 0
    for i, ch in enumerate(s):
        if ch == "1":
            x |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r}")
    return x


def int_from_str(s: str) -> int:
    """An optional sign and ASCII digits, nothing else: ``int`` alone would
    also take '1_2', ' 3' or '٣'."""
    digits = s[1:] if s[:1] in ("+", "-") else s
    if digits.isascii() and digits.isdigit():
        try:
            return int(s)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"{s!r} is not an integer")


def eliminate(columns: Sequence[int], n: int
              ) -> tuple[list[int], list[int], list[int]]:
    """Pivot-indexed Gaussian elimination of bit-packed columns below bit n.

    Columns are taken last to first and each is reduced against the pivot
    table while its leading bit is a pivot.  Returns the table as two lists
    indexed by leading bit, ``vecs[p]`` (a reduced column with leading bit
    p, or 0) and ``masks[p]`` (the input columns it sums), and, for every
    column j that depends on the columns after it, the relation mask (bit j
    plus the later pivot columns that sum to column j), in ascending j.
    Those relations are the canonical null-space basis: the one whose free
    coordinates are unit vectors.
    """
    full = (1 << n) - 1
    vecs = [0] * n
    masks = [0] * n
    relations: list[int] = []
    for j in range(len(columns) - 1, -1, -1):
        v = columns[j] & full
        mask = 1 << j
        while v:
            top = v.bit_length() - 1
            w = vecs[top]
            if not w:
                vecs[top] = v
                masks[top] = mask
                break
            v ^= w
            mask ^= masks[top]
        else:
            relations.append(mask)
    relations.reverse()
    return vecs, masks, relations


def rank_of(vectors: Iterable[int]) -> int:
    """Rank of a collection of bit-packed vectors."""
    vectors = list(vectors)
    n = max(vectors, default=0).bit_length()
    return n - eliminate(vectors, n)[0].count(0)


def solve_columns(columns: list[int], rhs: int, n: int
                  ) -> Optional[tuple[int, list[int]]]:
    """Solve sum_j u_j * columns[j] = rhs over GF(2) (coordinates below n).

    Returns (particular u, nullspace basis of u-space) or None when the
    system is inconsistent.  Solution vectors pack entry j in bit j.  The
    particular solution is zero on the free coordinates, so both outputs
    depend only on the system, not on the elimination order.
    """
    vecs, masks, null = eliminate(columns, n)
    residual, particular = reduce_column(vecs, masks, rhs & ((1 << n) - 1), 0)
    if residual:
        return None
    return particular, null


def reduce_column(vecs: Sequence[int], masks: Sequence[int], v: int,
                  mask: int) -> tuple[int, int]:
    """Reduce v against an ``eliminate`` table while its leading bit is a
    pivot; ``mask`` gathers the input columns used.

    Returns (residual, mask): v is the residual xor the sum of the columns
    in the returned mask xor the given one, so a zero residual solves for v.
    Otherwise the residual's leading bit is not a pivot, and the pair can
    join the table there.  The table must cover every bit of v.
    """
    while v:
        top = v.bit_length() - 1
        w = vecs[top]
        if not w:
            return v, mask
        v ^= w
        mask ^= masks[top]
    return 0, mask
