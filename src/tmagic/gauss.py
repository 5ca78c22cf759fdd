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

``expect_block`` multiplies one item of each chained group into every
product term and sums the (value, multiplicity) pairs into the exact value;
gauss mode, ``verify`` and the oracle checks run it.  ``rank_census`` is the
one census driver, and it never multiplies or sums a product term: a product
in Z[i, sqrt2] is zero only when a factor is, so ``count_nonzero_sums`` takes
the product of each group's non-zero item count, the count ``expect_block``
also reports.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .blocks import CATALOG_TERM_COUNTS, DEFAULT_POLICY, block_cover
from .pauli import PauliOperator, letters_to_pauli
from .phase_ring import SQRT2, ExactAmplitude, ONE, ZERO, eighth_root, i_power

#: worst-case number of unique non-zero Gauss sums per block size,
#: reproduced exhaustively (k <= 6) / by sampling (k = 12) in rank_census
WORST_CASE_UNIQUE = {1: 2, 2: 2, 3: 3, 6: 7, 12: 42}

_TWO = ExactAmplitude(2)


@dataclass(frozen=True)
class GaussSumReport:
    expectation: float
    unique_nonzero_sums: int
    exact: ExactAmplitude


def _sum_terms(k: int, terms: Iterable[tuple[ExactAmplitude, int]],
               negate: bool) -> ExactAmplitude:
    """2^-k times the sum of value * multiplicity over ``terms``, negated for
    a -1 phase."""
    total = ZERO
    for value, multiplicity in terms:
        if not value.is_zero():
            total = total + value.scale_int(multiplicity)
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

class _Block3:
    """One 3-qubit block of P: active family, term ranges, values, chaining."""

    def __init__(self, p: PauliOperator, offset: int, index: int):
        self.index = index
        (a1, b1, g1, d1) = p.site_bits(offset)
        (a2, b2, g2, d2) = p.site_bits(offset + 1)
        (a3, b3, g3, d3) = p.site_bits(offset + 2)
        self.p1 = (a1, b1, g1, d1)
        self.p2 = (a2, b2, g2, d2)
        self.p3 = (a3, b3, g3, d3)
        cls = (g1 + d1 + g2 + d2) & 1
        q3 = (g3 + d3) & 1
        if cls == 0:
            self.line = "A"
            self.family = "G2" if q3 else "G1"
        else:
            self.line = "C" if q3 else "B"
            self.family = "G4" if q3 else "G3"
        self.reducible = self.line in ("A", "C")

    # term tuples: (x, y, exponent_bit, link_bit, value)

    def terms(self, seed: int) -> list[tuple[int, int, int, int, ExactAmplitude]]:
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
                val = ZERO if gate else self._value_a(0, y)
                out.append((0, y, 1, 0, val))
        return out

    def _terms_b(self):
        (_, b3, g3, d3) = self.p3
        a3 = 1 - b3 - g3 - d3
        out = []
        for x in _mod2_range(0, 1 + b3):
            for y in _mod2_range(0, 1 + a3):
                out.append((x, y, 0, 0, self._value_g3(x, y)))
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

    # -- family value functions (exact eighth-root arithmetic) --------------

    def _phase_a(self, x: int, y: int) -> int:
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        yy = (y + 1) * (y + 1)
        return ((d2 - g1) * yy + 2 * (b1 + b2 + g1 + d2) * x * yy
                + 2 * (d1 + d2 + b1 + b2) * x * y + (2 * b1 + 3 * d1 + d2) * y)

    def _value_a(self, x: int, y: int) -> ExactAmplitude:
        (_, b3, g3, d3) = self.p3
        if self.family == "G1":
            # i^E * (1 + (-1)^{b3})
            if b3:
                return ZERO
            return i_power(self._phase_a(x, y)).scale_int(2)
        # G2: i^E * sqrt(-i) * (1 + i) = sqrt2 * i^E  (active when g3+d3 = 1)
        return i_power(self._phase_a(x, y)) * SQRT2

    def _value_g3(self, x: int, y: int) -> ExactAmplitude:
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        (_, b3, g3, d3) = self.p3
        e3 = 2 * b3 * y + (x + 1) * (x + 1) * (d1 + g2 + 2 * b2) + x * (d1 + d2)
        v3 = (b1 + b2 + d1 + (x + 1) * g2 + x * d2) & 1
        one_dim = ExactAmplitude(1, 0, -1 if v3 else 1, 0, 0)  # 1 +- i
        return eighth_root(7) * i_power(e3) * one_dim

    def _value_g4(self, x: int, y: int) -> ExactAmplitude:
        (_, b1, g1, d1) = self.p1
        (_, b2, g2, d2) = self.p2
        (_, b3, g3, d3) = self.p3
        e4 = (y * (d1 + d2) + (y + 1) * (y + 1) * (d1 + g2 + 2 * b2) + x * x
              + 2 * (b1 + b2 + d1 + g2 * (y + 1) + d2 * y) * x)
        v4 = (g3 + d3 + b1 + b2 + d1 + g2 * (y + 1) + d2 * y + x) & 1
        if v4:
            return ZERO
        return (eighth_root(6) * i_power(e4)).scale_int(2)


# ---------------------------------------------------------------------------
# block-group composition (the reduction chains)
# ---------------------------------------------------------------------------

def _group_blocks(blocks: list[_Block3]) -> list[list[_Block3]]:
    """Chain groups: pairs fuse when both halves are reducible; at four
    blocks two fused pairs fuse again into one chain of four."""
    r = len(blocks)
    if r == 1:
        return [[blocks[0]]]
    if r == 2:
        if blocks[0].reducible and blocks[1].reducible:
            return [[blocks[0], blocks[1]]]
        return [[blocks[0]], [blocks[1]]]
    if r != 4:
        raise ValueError(f"block chains group 1, 2 or 4 three-qubit blocks, "
                         f"got {r}")
    halves = [_group_blocks(blocks[:2]), _group_blocks(blocks[2:])]
    if all(len(h) == 1 and len(h[0]) == 2 for h in halves):
        return [[*halves[0][0], *halves[1][0]]]
    return [*halves[0], *halves[1]]


def _enumerate_group(group: list[_Block3]
                     ) -> list[tuple[tuple, int, ExactAmplitude]]:
    """All (tag, log2-multiplicity, value) items of one chained group.

    A chain of r reducible blocks carries prefactor 2^(r-1) and a
    multiplicity exponent equal to the product of the per-block exponent
    bits; each block's ranges are seeded by the parity of the preceding
    link variables.  A singleton B block carries a constant prefactor 2.
    """
    if group[0].line == "B":
        blk = group[0]
        return [(((blk.index, blk.family, x, y),), 1, v)
                for (x, y, _, _, v) in blk.terms(0)]

    prefactor = len(group) - 1  # log2: one factor of 2 per chain link
    out: list[tuple[tuple, int, ExactAmplitude]] = []

    def rec(i: int, seed: int, tag: tuple, eprod: Optional[int],
            val: ExactAmplitude) -> None:
        if i == len(group):
            out.append((tag, prefactor + (eprod or 0), val))
            return
        blk = group[i]
        for (x, y, e, link, v) in blk.terms(seed):
            ne = e if eprod is None else eprod * e
            rec(i + 1, (seed + link) & 1,
                tag + ((blk.index, blk.family, x, y),), ne, val * v)

    rec(0, 0, (), None, ONE)
    return out


def _check_block(k: int, p: PauliOperator) -> None:
    if p.n != k:
        raise ValueError(f"Pauli acts on {p.n} qubits, block expects {k}")
    if p.omega_exp % 2:
        raise ValueError("block expectation needs a Hermitian Pauli (omega = +-1)")
    if k not in CATALOG_TERM_COUNTS:
        raise ValueError(f"unsupported block size {k}")


def _groups(k: int, p: PauliOperator
            ) -> list[list[tuple[tuple, int, ExactAmplitude]]]:
    """The items of each chained group of a 3-, 6- or 12-qubit block."""
    blocks = [_Block3(p, 3 * i, i) for i in range(k // 3)]
    return [_enumerate_group(g) for g in _group_blocks(blocks)]


def _count_nonzero(groups: list[list[tuple[tuple, int, ExactAmplitude]]]
                   ) -> int:
    """Non-zero product terms taking one item from each group: the product
    of the groups' non-zero item counts, since Z[i, sqrt2] has no zero
    divisors and a power-of-two multiplicity cannot zero a term."""
    count = 1
    for group in groups:
        count *= sum([not v.is_zero() for _, _, v in group])
    return count


def count_nonzero_sums(k: int, p: PauliOperator) -> int:
    """The unique non-zero Gauss sums of ``expect_block(k, p)``, counted per
    chained group with no product term multiplied or summed."""
    _check_block(k, p)
    if k in (1, 2):
        return sum([not v.is_zero() for v, _ in _small_terms(k, p)])
    return _count_nonzero(_groups(k, p))


def expect_block(k: int, p: PauliOperator) -> GaussSumReport:
    """Gauss-sum expectation <T^k| P |T^k> for one supported block size."""
    _check_block(k, p)
    if k in (1, 2):
        terms = _small_terms(k, p)
        nonzero = sum([not v.is_zero() for v, _ in terms])
    else:
        groups = _groups(k, p)
        terms = []
        for combo in itertools.product(*groups):
            val = ONE
            for _, _, v in combo:
                val = val * v
            terms.append((val, 1 << sum(e for _, e, _ in combo)))
        nonzero = _count_nonzero(groups)
    exact = _sum_terms(k, terms, p.omega_exp == 2)
    return GaussSumReport(exact.real_float(), nonzero, exact)


def _small_terms(k: int, p: PauliOperator) -> list[tuple[ExactAmplitude, int]]:
    """The two (value, multiplicity) terms of a 1- or 2-qubit block."""
    return _terms_k1(p) if k == 1 else _terms_k2(p)


def _terms_k1(p: PauliOperator) -> list[tuple[ExactAmplitude, int]]:
    (_, b, g, d) = p.site_bits(0)
    if (g + d) % 2 == 0:
        return [(ONE, 1), (i_power(2 * b), 1)]
    return [(eighth_root(1) * i_power(3 * d), 1), (eighth_root(7) * i_power(d), 1)]


def _terms_k2(p: PauliOperator) -> list[tuple[ExactAmplitude, int]]:
    (_, b1, g1, d1) = p.site_bits(0)
    (_, b2, g2, d2) = p.site_bits(1)
    if (g1 + d1 + g2 + d2) % 2 == 0:
        v0 = i_power(d2 - g1) * _one_dim_even(b1 + b2 + g1 + d2)
        v1 = i_power(2 * (b1 + d1) + d1 + d2) * _one_dim_even(b1 + d1 + b2 + d2)
    else:
        v0 = (eighth_root(1) * i_power(2 * (b2 + g2) + d1 - g2 + 3)
              * _one_dim_odd(b2 + g2 + b1 + d1))
        v1 = eighth_root(7) * i_power(d1 + d2) * _one_dim_odd(b1 + b2 + d1 + d2)
    return [(v0, 1), (v1, 1)]


def _one_dim_even(s: int) -> ExactAmplitude:
    """G_1(2s) = 1 + (-1)^s."""
    return _TWO if s % 2 == 0 else ZERO


def _one_dim_odd(v: int) -> ExactAmplitude:
    """G_1(1, v) = 1 + i (-1)^v."""
    return ExactAmplitude(1, 0, -1 if v % 2 else 1, 0, 0)


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
        sub = PauliOperator(
            k,
            (p.beta >> offset) & ((1 << k) - 1),
            (p.gamma >> offset) & ((1 << k) - 1),
            (p.delta >> offset) & ((1 << k) - 1),
            0,
        )
        rep = expect_block(k, sub)
        exact = exact * rep.exact
        unique *= rep.unique_nonzero_sums
        offset += k
    if p.omega_exp == 2:
        exact = -exact
    # the float of the exact product, as exact mode prints it: a product of
    # block floats rounds differently and reads -0.0 for a negated zero
    return GaussSumReport(exact.real_float(), unique, exact)


def check_census(k: int, mode: str, samples: int, workers: int) -> None:
    """Refuse a census that cannot run, naming the CLI option at fault."""
    if k not in CATALOG_TERM_COUNTS:
        raise ValueError(
            f"census supports block sizes {tuple(CATALOG_TERM_COUNTS)}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown census mode {mode!r}")
    if mode == "exhaustive" and k > 6:
        raise ValueError("exhaustive census is limited to k <= 6; use --mode sampled")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
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
