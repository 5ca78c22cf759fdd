"""Integer-encoded Gauss-sum evaluation kernels for bulk workloads.

Every term value is 0 or sqrt2^s * zeta^p (zeta = exp(i pi/4)), so a whole
evaluation reduces to int64 arithmetic: terms accumulate into a 2 x 8 array
indexed by (s mod 2, p mod 8), and the exact ring value is reassembled from
the accumulators outside the hot loop.  The logic mirrors
``gauss.expect_block`` term for term and the test suite checks bit-identical
agreement between the two paths.

numba is optional (the ``jit`` extra).  When it is installed the kernels are
compiled via @njit(cache=True); without it, or with ``TMAGIC_NO_NUMBA=1``,
the same functions stay plain Python (the reference path in ``gauss`` is
then used for bulk dispatch as well).
"""

from __future__ import annotations

import os

import numpy as np

_DISABLED = os.environ.get("TMAGIC_NO_NUMBA", "").strip() not in ("", "0")

if not _DISABLED:
    try:
        from numba import njit as _njit
        _HAVE_NUMBA = True
    except ImportError:  # numba is the optional ``jit`` extra
        _HAVE_NUMBA = False
else:
    _HAVE_NUMBA = False


def kernels_enabled() -> bool:
    """True when the compiled kernel path is active."""
    return _HAVE_NUMBA


# letters: 0 = I, 1 = Z, 2 = X, 3 = Y


def _site(letter):
    b = 1 if letter == 1 else 0
    g = 1 if letter == 2 else 0
    d = 1 if letter == 3 else 0
    return b, g, d


def _block_line(letters, off):
    """0 = A, 1 = B, 2 = C for the 3-qubit block at offset off."""
    b1, g1, d1 = _site(letters[off])
    b2, g2, d2 = _site(letters[off + 1])
    b3, g3, d3 = _site(letters[off + 2])
    cls = (g1 + d1 + g2 + d2) & 1
    q3 = (g3 + d3) & 1
    if cls == 0:
        return 0
    return 2 if q3 else 1


def _block_terms(letters, off, seed, ebuf, lbuf, sbuf, pbuf, zbuf):
    """Fill term buffers (exp-bit, link, s, p, nonzero); returns the count."""
    b1, g1, d1 = _site(letters[off])
    b2, g2, d2 = _site(letters[off + 1])
    b3, g3, d3 = _site(letters[off + 2])
    a3 = 1 - b3 - g3 - d3
    line = _block_line(letters, off)
    cnt = 0
    if line == 0:
        s = (g1 + d2) & 1
        t = (g1 + g2) & 1
        c0 = (b1 + b2 + g1 + d2) & 1
        c1 = (b1 + d1 + b2 + d2) & 1
        fam_g2 = (g3 + d3) & 1
        ylo = (s * seed) & 1
        yhi = (1 + t * seed) & 1
        for y in range(2):
            if ylo == yhi and y != ylo:
                continue
            upper = t if y == 1 else s
            yy = (y + 1) * (y + 1)
            for x in range(2):
                if upper == 0 and x == 1:
                    continue
                e1 = ((d2 - g1) * yy + 2 * (b1 + b2 + g1 + d2) * x * yy
                      + 2 * (d1 + d2 + b1 + b2) * x * y
                      + (2 * b1 + 3 * d1 + d2) * y)
                if fam_g2 == 1:
                    sv, nz = 1, 1
                else:
                    sv, nz = 2, 1 - b3
                if upper == 0:
                    gate = c1 if y == 1 else c0
                    if gate == 1:
                        nz = 0
                    ebuf[cnt] = 1
                else:
                    ebuf[cnt] = 0
                lbuf[cnt] = x
                sbuf[cnt] = sv
                pbuf[cnt] = (2 * e1) % 8
                zbuf[cnt] = nz
                cnt += 1
    elif line == 1:
        xhi = (1 + b3) & 1
        yhi = (1 + a3) & 1
        for x in range(2):
            if x > xhi:
                continue
            for y in range(2):
                if y > yhi:
                    continue
                e3 = (2 * b3 * y + (x + 1) * (x + 1) * (d1 + g2 + 2 * b2)
                      + x * (d1 + d2))
                v3 = (b1 + b2 + d1 + (x + 1) * g2 + x * d2) & 1
                ebuf[cnt] = 0
                lbuf[cnt] = 0
                sbuf[cnt] = 1
                pbuf[cnt] = (7 + 2 * e3 + (7 if v3 == 1 else 1)) % 8
                zbuf[cnt] = 1
                cnt += 1
    else:
        for y in range(2):
            if seed == 1 and y == 0:
                continue
            xlo = (y * (d1 + d2) + seed) & 1
            xhi = (1 + y * (g1 + g2) + seed) & 1
            yy = (y + 1) * (y + 1)
            for x in range(2):
                if xlo == xhi and x != xlo:
                    continue
                e4 = (y * (d1 + d2) + yy * (d1 + g2 + 2 * b2) + x * x
                      + 2 * (b1 + b2 + d1 + g2 * (y + 1) + d2 * y) * x)
                v4 = (g3 + d3 + b1 + b2 + d1 + g2 * (y + 1) + d2 * y + x) & 1
                if y == 1:
                    ebuf[cnt] = 0
                else:
                    ebuf[cnt] = (x * (g1 + d2) + (1 - x) * (g2 + d1)) & 1
                lbuf[cnt] = y
                sbuf[cnt] = 2
                pbuf[cnt] = (6 + 2 * e4) % 8
                zbuf[cnt] = 1 - v4
                cnt += 1
    return cnt


def _eval_k2(letters, acc):
    b1, g1, d1 = _site(letters[0])
    b2, g2, d2 = _site(letters[1])
    n = 0
    if (g1 + d1 + g2 + d2) & 1 == 0:
        if (b1 + b2 + g1 + d2) & 1 == 0:
            acc[0, (2 * (d2 - g1)) % 8] += 2
            n += 1
        if (b1 + d1 + b2 + d2) & 1 == 0:
            acc[0, (4 * (b1 + d1) + 2 * (d1 + d2)) % 8] += 2
            n += 1
    else:
        v = (b2 + g2 + b1 + d1) & 1
        acc[1, (7 + 4 * (b2 + g2) + 2 * (d1 - g2) + (7 if v == 1 else 1)) % 8] += 1
        v2 = (b1 + b2 + d1 + d2) & 1
        acc[1, (7 + 2 * (d1 + d2) + (7 if v2 == 1 else 1)) % 8] += 1
        n += 2
    return n


def _eval_pauli(letters, k, acc):
    """Accumulate mult * value over all terms; returns nonzero-term count.

    acc is int64[2, 8]: acc[s mod 2, p] sums mult * 2^(s//2).
    """
    for i in range(2):
        for j in range(8):
            acc[i, j] = 0
    if k == 1:
        b, g, d = _site(letters[0])
        if (g + d) & 1 == 0:
            acc[0, 0] += 1
            acc[0, (4 * b) % 8] += 1
        else:
            acc[0, (1 + 6 * d) % 8] += 1
            acc[0, (7 + 2 * d) % 8] += 1
        return 2
    if k == 2:
        return _eval_k2(letters, acc)

    nb = k // 3
    lines = np.zeros(4, dtype=np.int64)
    for b in range(nb):
        lines[b] = _block_line(letters, 3 * b)
    # chain flags: block b fuses with its predecessor's group
    chained = np.zeros(4, dtype=np.int64)
    if nb >= 2 and lines[0] != 1 and lines[1] != 1:
        chained[1] = 1
    if nb == 4:
        if lines[2] != 1 and lines[3] != 1:
            chained[3] = 1
        if chained[1] == 1 and chained[3] == 1:
            chained[2] = 1
    # constant log2 prefactor: one per chain link plus one per B block
    pref = 0
    for b in range(nb):
        pref += chained[b]
        if lines[b] == 1:
            pref += 1

    ebuf = np.zeros((4, 4), dtype=np.int64)
    lbuf = np.zeros((4, 4), dtype=np.int64)
    sbuf = np.zeros((4, 4), dtype=np.int64)
    pbuf = np.zeros((4, 4), dtype=np.int64)
    zbuf = np.zeros((4, 4), dtype=np.int64)
    ncnt = np.zeros(4, dtype=np.int64)
    idx = np.zeros(4, dtype=np.int64)
    seeds = np.zeros(4, dtype=np.int64)
    run_s = np.zeros(5, dtype=np.int64)
    run_p = np.zeros(5, dtype=np.int64)
    run_z = np.ones(5, dtype=np.int64)
    run_esum = np.zeros(5, dtype=np.int64)   # closed-group exponent sum
    run_gprod = np.ones(5, dtype=np.int64)   # open-group exponent product

    nonzero = 0
    level = 0
    ncnt[0] = _block_terms(letters, 0, 0, ebuf[0], lbuf[0], sbuf[0],
                           pbuf[0], zbuf[0])
    idx[0] = 0
    while level >= 0:
        if idx[level] >= ncnt[level]:
            level -= 1
            if level >= 0:
                idx[level] += 1
            continue
        j = idx[level]
        run_s[level + 1] = run_s[level] + sbuf[level, j]
        run_p[level + 1] = (run_p[level] + pbuf[level, j]) % 8
        run_z[level + 1] = run_z[level] * zbuf[level, j]
        e = ebuf[level, j]
        gp_here = e if chained[level] == 0 else run_gprod[level] * e
        if level + 1 >= nb or chained[level + 1] == 0:
            run_esum[level + 1] = run_esum[level] + gp_here
            run_gprod[level + 1] = 1
        else:
            run_esum[level + 1] = run_esum[level]
            run_gprod[level + 1] = gp_here
        if level + 1 == nb:
            if run_z[level + 1] == 1:
                nonzero += 1
                stot = run_s[level + 1]
                mlog = pref + run_esum[level + 1] + (stot >> 1)
                acc[stot & 1, run_p[level + 1]] += np.int64(1) << mlog
            idx[level] += 1
        else:
            nxt = level + 1
            if chained[nxt] == 1:
                seeds[nxt] = (seeds[level] + lbuf[level, j]) & 1
            else:
                seeds[nxt] = 0
            ncnt[nxt] = _block_terms(letters, 3 * nxt, seeds[nxt], ebuf[nxt],
                                     lbuf[nxt], sbuf[nxt], pbuf[nxt], zbuf[nxt])
            idx[nxt] = 0
            level = nxt
    return nonzero


def _census_counts(all_letters, k, out_counts):
    acc = np.zeros((2, 8), dtype=np.int64)
    for i in range(all_letters.shape[0]):
        out_counts[i] = _eval_pauli(all_letters[i], k, acc)


# keep undecorated references for tests and swap in the compiled versions
_eval_pauli_py = _eval_pauli
_census_counts_py = _census_counts

if _HAVE_NUMBA:
    _site = _njit(cache=True)(_site)
    _block_line = _njit(cache=True)(_block_line)
    _block_terms = _njit(cache=True)(_block_terms)
    _eval_k2 = _njit(cache=True)(_eval_k2)
    _eval_pauli = _njit(cache=True)(_eval_pauli)
    _census_counts = _njit(cache=True)(_census_counts)


def sample_letters(k: int, samples: int, seed: int) -> np.ndarray:
    """Seeded uniform Pauli letter rows; shared by both census paths."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(samples, k), dtype=np.int64)


def exhaustive_letters(k: int) -> np.ndarray:
    n = 4 ** k
    out = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        v = i
        for q in range(k):
            out[i, q] = v % 4
            v //= 4
    return out


def eval_expectation_acc(letters: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """(acc[2,8], nonzero-count) for one Pauli letter row."""
    acc = np.zeros((2, 8), dtype=np.int64)
    n = _eval_pauli(np.ascontiguousarray(letters, dtype=np.int64), k, acc)
    return acc, int(n)


def acc_to_exact(acc: np.ndarray, k: int):
    """Reassemble the exact ring expectation from the integer accumulators."""
    from .phase_ring import ExactAmplitude, ZERO, eighth_root
    total = ZERO
    for par in range(2):
        for p in range(8):
            coeff = int(acc[par, p])
            if coeff:
                v = eighth_root(p).scale_int(coeff)
                if par:
                    v = v * ExactAmplitude(0, 1)
                total = total + v
    return total * ExactAmplitude(1, 0, 0, 0, 2 * k)


def census(k: int, mode: str, samples: int, seed: int
           ) -> tuple[int, dict[int, int]]:
    letters = (exhaustive_letters(k) if mode == "exhaustive"
               else sample_letters(k, samples, seed))
    counts = np.zeros(letters.shape[0], dtype=np.int64)
    _census_counts(letters, k, counts)
    values, freq = np.unique(counts, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, freq)}
    return int(values.max()), hist
