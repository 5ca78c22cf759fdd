"""Closed-form Gauss-sum evaluation of single-Pauli magic-state expectations.

For T-counts 1, 2, 3, 6 and 12 the expectation <T^k| P |T^k> is a short sum
of quadratic Gauss sums gated by Kronecker deltas on the Pauli's per-qubit
indicator bits.  For a given P exactly one delta-gated family combination
is active; the sum ranges are arranged so that repeated Gauss sums are
folded into power-of-two multiplicities, which is what makes the worst-case
number of distinct sums (2, 2, 3, 7, 42) smaller than the naive tensor
count.  Larger T-counts factor into per-block evaluations since a single
Pauli cannot entangle tensored blocks.

Kronecker-delta arguments and sum ranges are evaluated modulo two: a range
[lo, hi] means {lo} when lo = hi (mod 2) and {0, 1} otherwise.  Every
evaluator here is validated against the dense oracle in the test suite.

Every Gauss sum is zero or sqrt2^r * zeta^q, zeta = exp(i pi/4), so a term
is ``(r, q)`` or ``None`` and a product of terms adds exponents.  A 3-qubit
block depends only on its letters: ``_triple`` builds each of the 64 letter
triples' items once per process, and one walk per chained group gives the
group's non-zero item count and its multiplicities per ``(r, q mod 8)``.
``expect_block`` sums the groups' products into one ring value per bucket;
``count_nonzero_sums``, which the census counts with, multiplies the counts.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cache
from math import prod
from typing import Iterable, Optional, Sequence

from .blocks import CATALOG_TERM_COUNTS, DEFAULT_POLICY, block_cover
from .pauli import PauliOperator, letters_to_pauli
from .phase_ring import ExactAmplitude, ONE, ZERO, sqrt2_root

#: worst-case number of unique non-zero Gauss sums per block size,
#: reproduced exhaustively (k <= 6) / by sampling (k = 12) in rank_census
WORST_CASE_UNIQUE = {1: 2, 2: 2, 3: 3, 6: 7, 12: 42}


class GaussSumReport:
    """One Gauss-sum evaluation: the expectation, its exact ring value and
    the number of unique non-zero sums behind it."""

    __slots__ = ("expectation", "unique_nonzero_sums", "exact")

    def __init__(self, expectation: float, unique_nonzero_sums: int,
                 exact: ExactAmplitude) -> None:
        self.expectation = expectation
        self.unique_nonzero_sums = unique_nonzero_sums
        self.exact = exact


def _sum_terms(k: int, terms: Iterable[tuple[tuple[int, int], int]],
               negate: bool) -> ExactAmplitude:
    """2^-k times the sum of multiplicity * sqrt2^r * zeta^q over the
    ((r, q), multiplicity) pairs of ``terms``, negated for a -1 phase."""
    total = ZERO
    for (r, q), multiplicity in terms:
        total = total + sqrt2_root(r, q).scale_int(multiplicity)
    exact = total * ExactAmplitude(-1 if negate else 1, 0, 0, 0, 2 * k)  # +-2^-k
    if not exact.is_real():
        raise ValueError(f"non-real Gauss-sum expectation {exact} at "
                         f"k={k}: the terms must sum to a real value")
    return exact


def _mod2_range(lo: int, hi: int) -> tuple[int, ...]:
    return (lo & 1,) if (lo & 1) == (hi & 1) else (0, 1)


# ---------------------------------------------------------------------------
# per-block term enumeration
# ---------------------------------------------------------------------------

#: (alpha, beta, gamma, delta) indicator bits of the letters I, Z, X, Y
_SITE = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class _Block3:
    """One 3-qubit block of P, from its letter code l0 + 4 l1 + 16 l2
    (0 = I, 1 = Z, 2 = X, 3 = Y): active family, term ranges, values,
    chaining."""

    def __init__(self, code: int):
        self.p1 = (_, _, g1, d1) = _SITE[code & 3]
        self.p2 = (_, _, g2, d2) = _SITE[code >> 2 & 3]
        self.p3 = (_, _, g3, d3) = _SITE[code >> 4]
        cls = (g1 + d1 + g2 + d2) & 1
        q3 = (g3 + d3) & 1
        if cls == 0:
            self.line = "A"
            self.family = "G2" if q3 else "G1"
        else:
            self.line = "C" if q3 else "B"
            self.family = "G4" if q3 else "G3"
        self.reducible = self.line in ("A", "C")

    # term tuples: (x, y, exponent_bit, link_bit, (r, q) or None)

    def terms(self, seed: int) -> list[tuple[int, int, int, int, Optional[tuple]]]:
        if self.line == "A":
            return self._terms_a(seed)
        if self.line == "B":
            return self._terms_b()
        return self._terms_c(seed)

    def _terms_a(self, seed):
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        s = (g1 + d2) & 1
        t = (g1 + g2) & 1
        # parity of the x-coefficient in the phase at y = 0 / y = 1; a folded
        # row stands for the full two-point x-sum, which vanishes when the
        # parity is odd (for X/Y-class pairs it coincides with the range
        # bits s, t, so the gate only bites on Z-carrying identity-class rows)
        c0 = (b1 + b2 + g1 + d2) & 1
        c1 = (b1 + d1 + b2 + d2) & 1
        out = []
        for y in _mod2_range(s * seed, 1 + t * seed):
            upper = t if y else s
            if upper:
                for x in (0, 1):
                    out.append((x, y, 0, x, self._value_a(x, y)))
            else:
                gate = c1 if y else c0
                val = None if gate else self._value_a(0, y)
                out.append((0, y, 1, 0, val))
        return out

    def _terms_b(self):
        # never chained: the exponent bit is its constant prefactor 2
        (a3, b3, _, _) = self.p3
        out = []
        for x in _mod2_range(0, 1 + b3):
            for y in _mod2_range(0, 1 + a3):
                out.append((x, y, 1, 0, self._value_g3(x, y)))
        return out

    def _terms_c(self, seed):
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        out = []
        for y in _mod2_range(seed, 1):
            lo = (y * (d1 + d2) + seed) & 1
            hi = (1 + y * (g1 + g2) + seed) & 1
            for x in _mod2_range(lo, hi):
                e = 0 if y else (x * ((g1 + d2) & 1) + (1 - x) * ((g2 + d1) & 1))
                out.append((x, y, e, y, self._value_g4(x, y)))
        return out

    # -- family values: (r, q) for sqrt2^r * zeta^q, or None for zero ------

    def _phase_a(self, x: int, y: int) -> int:
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        yy = (y + 1) * (y + 1)
        return ((d2 - g1) * yy + 2 * (b1 + b2 + g1 + d2) * x * yy
                + 2 * (d1 + d2 + b1 + b2) * x * y + (2 * b1 + 3 * d1 + d2) * y)

    def _value_a(self, x: int, y: int) -> Optional[tuple[int, int]]:
        if self.family == "G1":
            # i^E * (1 + (-1)^{b3})
            return None if self.p3[1] else (2, 2 * self._phase_a(x, y))
        # G2: i^E * sqrt(-i) * (1 + i) = sqrt2 * i^E  (active when g3+d3 = 1)
        return (1, 2 * self._phase_a(x, y))

    def _value_g3(self, x: int, y: int) -> tuple[int, int]:
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        (_, b3, g3, d3) = self.p3
        e3 = 2 * b3 * y + (x + 1) * (x + 1) * (d1 + g2 + 2 * b2) + x * (d1 + d2)
        v3 = (b1 + b2 + d1 + (x + 1) * g2 + x * d2) & 1
        # zeta^7 * i^e3 * (1 +- i), and 1 +- i = sqrt2 * zeta^(+-1)
        return (1, 7 + 2 * e3 + (-1 if v3 else 1))

    def _value_g4(self, x: int, y: int) -> Optional[tuple[int, int]]:
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        (_, b3, g3, d3) = self.p3
        e4 = (y * (d1 + d2) + (y + 1) * (y + 1) * (d1 + g2 + 2 * b2) + x * x
              + 2 * (b1 + b2 + d1 + g2 * (y + 1) + d2 * y) * x)
        v4 = (g3 + d3 + b1 + b2 + d1 + g2 * (y + 1) + d2 * y + x) & 1
        return None if v4 else (2, 6 + 2 * e4)  # 2 * zeta^6 * i^e4


# ---------------------------------------------------------------------------
# block-group composition (the reduction chains)
# ---------------------------------------------------------------------------

@cache
def _triple(code: int) -> tuple[bool, tuple, tuple]:
    """A letter triple's closed forms, built once per process: (reducible,
    items at seed 0, items at seed 1), each item (exponent bit, link bit,
    (r, q) or None).  The only place a ``_Block3`` is built."""
    blk = _Block3(code)
    return (blk.reducible,
            *(tuple((e, link, v) for _, _, e, link, v in blk.terms(seed))
              for seed in (0, 1)))


def _codes(k: int, p: PauliOperator) -> list[int]:
    """The letter code of each 3-qubit block of P, in qubit order."""
    spread = (0, 1, 4, 5, 16, 17, 20, 21)  # a 3-bit site mask's code digits
    return [spread[p.beta >> o & 7] + 2 * spread[p.gamma >> o & 7]
            + 3 * spread[p.delta >> o & 7] for o in range(0, k, 3)]


def _group_blocks(codes: list[int]) -> list[list[int]]:
    """Chain groups: pairs fuse when both halves are reducible; at four
    blocks two fused pairs fuse again into one chain of four."""
    if len(codes) not in (1, 2, 4):
        raise ValueError(f"block chains group 1, 2 or 4 three-qubit blocks, "
                         f"got {len(codes)}")
    if all(_triple(c)[0] for c in codes):
        return [codes]
    if len(codes) == 4:
        return _group_blocks(codes[:2]) + _group_blocks(codes[2:])
    return [[c] for c in codes]


def _walk(tables: list[tuple]) -> tuple[int, dict[tuple[int, int], int]]:
    """One chained group's non-zero items: (their count, their summed
    multiplicities per (r, q mod 8)), walked block by block with one path
    count per (seed, exponent product, r, q mod 8).  An item of a chain of
    r blocks has multiplicity 2^(r-1) times 2^(product of its exponent
    bits); each block's ranges are seeded by the parity of the preceding
    link bits, and a zero factor makes the item zero, so the walk drops it.
    """
    paths = {(0, 1, 0, 0): 1}
    for table in tables:
        step: dict[tuple[int, int, int, int], int] = {}
        for (seed, e, r, q), n in paths.items():
            for be, link, v in table[1 + seed]:
                if v is not None:
                    key = (seed ^ link, e & be, r + v[0], (q + v[1]) & 7)
                    step[key] = step.get(key, 0) + n
        paths = step
    sums: dict[tuple[int, int], int] = {}
    for (_, e, r, q), n in paths.items():
        sums[r, q] = sums.get((r, q), 0) + (n << (len(tables) - 1 + e))
    return sum(paths.values()), sums


def _check_block(k: int, p: PauliOperator) -> None:
    if p.n != k:
        raise ValueError(f"Pauli acts on {p.n} qubits, block expects {k}")
    if p.omega_exp % 2:
        raise ValueError("block expectation needs a Hermitian Pauli (omega = +-1)")
    if k not in CATALOG_TERM_COUNTS:
        raise ValueError(f"unsupported block size {k}")


def _groups(k: int, p: PauliOperator
            ) -> list[tuple[int, dict[tuple[int, int], int]]]:
    """``_walk`` of each chained group of a block; a 1- or 2-qubit block is
    one group of two items of multiplicity 1."""
    if k < 3:
        items = tuple((0, 0, v) for v in (_terms_k1(p) if k == 1
                                          else _terms_k2(p)))
        return [_walk([(False, items, items)])]
    return [_walk([_triple(c) for c in g])
            for g in _group_blocks(_codes(k, p))]


def count_nonzero_sums(k: int, p: PauliOperator) -> int:
    """The unique non-zero Gauss sums of ``expect_block(k, p)``: the product
    of the chained groups' non-zero item counts, with no product term
    formed, since a product of powers of sqrt2 and zeta is never zero."""
    _check_block(k, p)
    return prod(n for n, _ in _groups(k, p))


def expect_block(k: int, p: PauliOperator) -> GaussSumReport:
    """Gauss-sum expectation <T^k| P |T^k> for one supported block size.

    The product terms are summed one group at a time into integer
    multiplicities per (r, q mod 8); zero items drop out."""
    _check_block(k, p)
    groups = _groups(k, p)
    sums = {(0, 0): 1}
    for _, group in groups:
        step: dict[tuple[int, int], int] = {}
        for (r, q), m in sums.items():
            for (r2, q2), w in group.items():
                key = (r + r2, (q + q2) & 7)
                step[key] = step.get(key, 0) + m * w
        sums = step
    exact = _sum_terms(k, sums.items(), p.omega_exp == 2)
    return GaussSumReport(exact.real_float(), prod(n for n, _ in groups),
                          exact)


def _terms_k1(p: PauliOperator) -> list[tuple[int, int]]:
    (_, b, g, d) = p.site_bits(0)
    if (g + d) % 2 == 0:
        return [(0, 0), (0, 4 * b)]  # 1, i^(2b)
    return [(0, 1 + 6 * d), (0, 7 + 2 * d)]  # zeta * i^(3d), zeta^7 * i^d


def _terms_k2(p: PauliOperator) -> list[Optional[tuple[int, int]]]:
    (_, b1, g1, d1) = p.site_bits(0)
    (_, b2, g2, d2) = p.site_bits(1)
    if (g1 + d1 + g2 + d2) % 2 == 0:
        # i^E * G_1(2s), where G_1(2s) = 1 + (-1)^s is 2 or 0
        return [None if (b1 + b2 + g1 + d2) % 2 else (2, 2 * (d2 - g1)),
                None if (b1 + d1 + b2 + d2) % 2
                else (2, 2 * (2 * (b1 + d1) + d1 + d2))]
    # zeta^(+-1) * i^E * G_1(1, v), and G_1(1, v) = 1 + i (-1)^v = sqrt2 * zeta^(+-1)
    pm0 = -1 if (b2 + g2 + b1 + d1) % 2 else 1
    pm1 = -1 if (b1 + b2 + d1 + d2) % 2 else 1
    return [(1, 1 + 2 * (2 * (b2 + g2) + d1 - g2 + 3) + pm0),
            (1, 7 + 2 * (d1 + d2) + pm1)]


# ---------------------------------------------------------------------------
# multi-block evaluation and the rank census
# ---------------------------------------------------------------------------

def expect_single_pauli(t: int, p: PauliOperator,
                        policy: Sequence[int] = DEFAULT_POLICY
                        ) -> GaussSumReport:
    """<T^t| P |T^t> by per-block factorization over a block cover of t."""
    if p.n != t:
        raise ValueError("Pauli size must equal the T-count")
    if p.omega_exp % 2:
        raise ValueError("expectation requires a Hermitian Pauli")
    exact = ONE
    unique = 1
    offset = 0
    for k in block_cover(t, policy):
        mask = (1 << k) - 1
        rep = expect_block(k, PauliOperator(k, p.beta >> offset & mask,
                                            p.gamma >> offset & mask,
                                            p.delta >> offset & mask))
        exact = exact * rep.exact
        unique *= rep.unique_nonzero_sums
        offset += k
    if p.omega_exp == 2:
        exact = -exact
    # the float of the exact product, as exact mode prints it: a product of
    # block floats rounds differently and reads -0.0 for a negated zero
    return GaussSumReport(exact.real_float(), unique, exact)


#: most rows one sampled census or k = 12 oracle check draws: a k = 12 row
#: holds about 419 B at peak, so the cap keeps the rows near 0.4 GB
MAX_CENSUS_ROWS = 10 ** 6


def check_samples(samples: int) -> None:
    """Refuse a --samples row count below 1 or above ``MAX_CENSUS_ROWS``."""
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    if samples > MAX_CENSUS_ROWS:
        raise ValueError(f"--samples {samples} exceeds the cap of "
                         f"{MAX_CENSUS_ROWS} census rows")


def check_census(k: int, mode: str, samples: int, workers: int) -> None:
    """Refuse a census that cannot run, naming the CLI option at fault."""
    if k not in CATALOG_TERM_COUNTS:
        raise ValueError(
            f"census supports block sizes {tuple(CATALOG_TERM_COUNTS)}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown census mode {mode!r}")
    if mode == "exhaustive" and k > 6:
        raise ValueError("exhaustive census is limited to k <= 6; use --mode sampled")
    if mode == "sampled":
        check_samples(samples)
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")


def census_letters(k: int, mode: str, samples: int, seed: int
                   ) -> list[list[int]]:
    """Letter rows of a census: all 4^k Paulis, or ``samples`` seeded draws."""
    from . import _gauss_kernels as gk
    if mode == "exhaustive":
        return gk.exhaustive_letters(k)
    return gk.sample_letters(k, samples, seed)


def _census_chunk(task: tuple[int, list[list[int]]]) -> Counter:
    """Histogram of unique non-zero Gauss sums over one slice of rows, each
    counted from its chained groups without summing a product term."""
    k, rows = task
    return Counter(count_nonzero_sums(k, letters_to_pauli(row)) for row in rows)


def rank_census(k: int, mode: str = "exhaustive", samples: int = 100_000,
                seed: int = 0, workers: int = 1) -> tuple[int, dict[int, int]]:
    """Worst case and histogram of unique non-zero Gauss sums over Paulis:
    all 4^k (``mode='exhaustive'``, k <= 6) or ``samples`` seeded draws.
    The rows are drawn once and split into min(workers, rows) slices, run
    here or in a pool of min(slices, cores) processes.
    """
    check_census(k, mode, samples, workers)
    rows = census_letters(k, mode, samples, seed)
    parts = min(workers, len(rows))
    tasks = [(k, rows[len(rows) * w // parts:len(rows) * (w + 1) // parts])
             for w in range(parts)]
    processes = min(parts, os.cpu_count() or 1)
    if processes == 1:
        chunks = [_census_chunk(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(_census_chunk, tasks))
    histogram = sum(chunks, Counter())
    return max(histogram), dict(sorted(histogram.items()))
