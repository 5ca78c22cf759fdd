"""Multi-Pauli strong simulation on magic-state stabilizer decompositions.

The exact path evaluates

    <Psi| Pi |Psi> = sum_{j,l} conj(c_j) c_l <phi_j| Pi |phi_l>

with chi(chi+1)/2 Gram entries, not chi^2: for a Hermitian Pi the Gram
matrix is Hermitian, so the pairs l < j are the conjugates of the pairs
j < l.  A Pauli P shifts each ket (``apply_pauli_state``).  A projector
Pi = prod_i (I + s_i P_i)/2 is never applied to a state: <phi_j|Pi|phi_l>
= 2^-r <phi_j|K_l>, where the ket variables K_l = sum_S s^S P_S |phi_l>
(``projector_ket``) are one quadratic form with a variable S_i per factor.
What does not depend on the operator, the pivot table, null basis and
pulled-back form, depends only on the class of each raw state, its
columns, cross data and ``odd`` mask (``_classes``).  So the entries of
one pair of classes share one ``GramPair`` and one elimination plan
(``gram_entries``), and each entry adds only its right-hand side and a
few parities read off the plan: the 1128 entries at t = 12 fall into 414
blocks, 27 on the diagonal and 387 above it, one per ordered pair of the
27 classes of its 47 terms that has an entry.  The classes lie on 10
column sets (``_column_sets``), and the blocks of one pair of column sets
share one ``gram_entries`` call, so one column step: 80 calls per
operator, 10 on the diagonal and 70 above it.  A Pauli's kets add no
columns, so its blocks use the plan kept with the pair, and a repeated
Pauli op eliminates nothing; a projector's blocks build one plan each,
and the blocks of one ket class in a call walk its kets' share of the new
null vectors once.  The upper triangle is
summed row by row as integer numerators over one power of sqrt2, so its
entries cost no ring product.  The pairs of a catalog entry
(``catalog_entry``) are cached for the life of the process, at most
sum_k c_k^2 = 768 of them for class counts c_k; any other decomposition,
a tensor product, a padded or a file-read one, builds its pairs per call
and drops them on return.

The sampled path trades the quadratic cost for L = ceil(eps^-2 ln(1/p_f))
Haar-random stabilizer samples using the two-design property:

    E_psi |<psi|Phi>|^2 = ||Phi||^2 / 2^n   with  Phi = Pi |Psi>,

so ``2^n / L * sum_a |<psi_a|Phi>|^2`` is an unbiased estimate of the
expectation; the 2^n normalization is pinned by requiring exact
unbiasedness on <Psi|Psi> (checked against the exact path in the tests).
Its kets are the same projector kets as the exact path's: Pi|phi_l> =
2^-r K_l, with 2^-r in K_l's ring scale, so no term is projected.  A term
whose diagonal entry <phi_l|K_l> is zero is annihilated by Pi and dropped
(``_diagonal``, the exact path's diagonal pass).  The kept kets are fixed
for all L samples, so the kets of one class form one block with one
``GramPair``, and the blocks of the classes on one column set share its
pivot table.  One ``gram_entries`` call per column set and sample (3 at
t = 6, 10 at t = 12, against 5 and 27 classes) reduces a random state's
columns and walks its share of the new null vectors' columns; each block
adds its kets' share and the couplings for one elimination plan, and each
ket its shift and phases.  The overlaps' floats come from a per-call
table, so the loop does no ring arithmetic.  Sample a's random state is
decoded from the raw words of the PCG64 stream that
``default_rng(SeedSequence([seed, a]))`` runs on, read ahead in one batch
that is held as Python ints, and the states of all L streams come from
one vectorized port of ``SeedSequence``, so no Generator is built per
sample.  Sampled stdout therefore rests on PCG64's raw stream and on that
port, which live in ``tmagic.draws`` (``RawDraws``, ``pcg64_streams``);
``tests/test_stabilizer.py`` pins both against numpy.

Three engines take a decomposition built by the caller (``catalog``'s
``block_decomposition``, then ``extend_with_zeros`` for padding qubits):
``exact_expectation`` for a projector, ``exact_pauli_expectation`` for one
Hermitian Pauli, and ``sampled_expectation``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .blocks import CATALOG_TERM_COUNTS
from .catalog import MagicDecomposition, catalog_entry
from .draws import RawDraws, pcg64_streams
from .pauli import PauliOperator, PauliProjector
from .phase_ring import ExactAmplitude, ONE, ZERO, canonical, sqrt2_root
from .stabilizer import (GramPair, StabilizerState, apply_pauli_state,
                         gram_entries, pivot_table, projector_ket,
                         random_stabilizer_state)


@dataclass
class SimulationResult:
    value: float
    inner_products_evaluated: int = 0
    samples_used: int = 0
    term_count: int = 0
    exact_value: Optional[ExactAmplitude] = None  # exact paths only
    std_error: Optional[float] = None  # sampled path with L >= 2 only


#: the most samples the estimator takes: it keeps one float64 per sample,
#: so 10^8 samples hold 800 MB
MAX_SAMPLES = 10 ** 8


def sample_count(epsilon: float, p_f: float) -> int:
    """L(eps, p_f) = ceil(eps^-2 ln(1/p_f)); eps > 0 and 0 < p_f < 1, and
    L must be finite in floating point (eps^2 may underflow to 0, 1/p_f
    overflow to inf)."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < p_f < 1:
        raise ValueError(f"failure probability must lie in (0, 1), got {p_f}")
    eps_sq = epsilon * epsilon
    count = math.log(1.0 / p_f) / eps_sq if eps_sq > 0 else math.inf
    if not math.isfinite(count):
        raise ValueError(f"sample count for epsilon {epsilon} and failure "
                         f"probability {p_f} is not finite")
    return max(1, math.ceil(count))


def _classes(states: Sequence[StabilizerState]) -> list[list[int]]:
    """The indices of ``states`` grouped by class, in ascending order within
    a class and with classes in order of first appearance.

    A class is a state's columns, cross data and ``odd`` mask.  States of
    one class differ only in shift and phases, so the Gram entries of a
    bra class and a ket class share one ``GramPair`` and one column step.
    """
    groups: dict = {}
    for i, s in enumerate(states):
        groups.setdefault((s.basis, s.bmat, s.odd), []).append(i)
    return list(groups.values())


# GramPairs of the catalog entries used so far, per process: for T-count k,
# the GramPair of classes (a, b) of catalog_entry(k)'s terms (``_classes``,
# c of them) at a * c + b, built at first use.  Only catalog entries are
# kept, so the cache holds at most sum c_k^2 = 1 + 4 + 9 + 25 + 729 = 768
# pairs; any other decomposition's pairs last one call.
_GRAM_PAIRS: dict[int, list[Optional[GramPair]]] = {}


def _gram_pairs(dec: MagicDecomposition, classes: list[list[int]]
                ) -> Callable[[int, int], GramPair]:
    """(a, b) -> the GramPair of dec's term classes a and b (``classes`` is
    ``_classes`` of dec's terms), cached when dec is a catalog entry and
    built afresh otherwise.  Pairs built in one call share the pivot
    tables of equal bases."""
    reps = [dec.terms[members[0]][1] for members in classes]
    tables: dict = {}

    def build(a: int, b: int) -> GramPair:
        sa, sb = reps[a], reps[b]
        key = (sa.basis, sb.basis)
        table = tables.get(key)
        if table is None:
            table = tables[key] = pivot_table(sa, sb)
        return GramPair(sa, sb, table)

    if dec.k not in CATALOG_TERM_COUNTS or dec is not catalog_entry(dec.k):
        return build
    c = len(classes)
    pairs = _GRAM_PAIRS.setdefault(dec.k, [None] * c * c)

    def lookup(a: int, b: int) -> GramPair:
        key = a * c + b
        pair = pairs[key]
        if pair is None:
            pair = pairs[key] = build(a, b)
        return pair
    return lookup


def _column_sets(states: Sequence[StabilizerState], classes: list[list[int]]
                 ) -> list[list[int]]:
    """The indices of ``classes`` (``_classes`` of ``states``) grouped by
    their states' columns, in order of first appearance.  The classes of
    one column set share its pivot tables, so their blocks can share one
    ``gram_entries`` call."""
    sets: dict = {}
    for a, members in enumerate(classes):
        sets.setdefault(states[members[0]].basis, []).append(a)
    return list(sets.values())


def _diagonal(dec: MagicDecomposition, kets: Sequence[StabilizerState],
              classes: list[list[int]], pair: Callable[[int, int], GramPair]
              ) -> list[Optional[tuple[int, int]]]:
    """<phi_j|k_j> for every term j, as ``gram_entries``' (k, p) or None,
    in term order: one call per column set of dec's terms, with one block
    per class a of the set, over the pair (a, a) from ``_gram_pairs``.

    For a projector ket k_j = ``projector_ket``(phi_j), the entry is
    2^r |Pi phi_j|^2, so None marks a term that Pi annihilates.
    """
    terms = dec.terms
    out: list[Optional[tuple[int, int]]] = [None] * len(terms)
    for group in _column_sets([s for _, s in terms], classes):
        values = gram_entries([(pair(a, a), [(terms[j][1], kets[j])
                                             for j in classes[a]])
                               for a in group])
        for j, ks in zip([j for a in group for j in classes[a]], values):
            out[j] = ks
    return out


def _ket_blocks(kets: Sequence[StabilizerState]
                ) -> list[tuple[list[tuple[GramPair, list[StabilizerState]]],
                                list[int]]]:
    """The kets as ``gram_entries`` takes them against a random state, one
    call per column set: for each set of columns among the kets
    (``_column_sets``), the blocks of its classes, each a ``GramPair`` of
    (the class's first ket, a state with no columns) and the class's
    kets, and the indices of those kets in block order.  The pairs of one
    column set share its pivot table and their second state, and any
    random state is one class, so the blocks of a set share one column
    step and one walk of the random state's share."""
    classes = _classes(kets)
    out = []
    for group in _column_sets(kets, classes):
        first = kets[classes[group[0]][0]]
        empty = StabilizerState.computational(first.n)
        table = pivot_table(first, empty)
        out.append(([(GramPair(kets[classes[a][0]], empty, table),
                      [kets[l] for l in classes[a]]) for a in group],
                    [l for a in group for l in classes[a]]))
    return out


def _hermitian_sum(dec: MagicDecomposition, kets: Sequence[StabilizerState],
                   weight: ExactAmplitude = ONE, positive: bool = False
                   ) -> SimulationResult:
    """weight * sum_{j,l} conj(c_j) c_l <phi_j|k_l> over a Hermitian Gram
    matrix, one ``gram_entries`` call per pair of column sets.

    ``kets[l]`` is term l shifted by a Pauli or extended by projector
    factors, so it keeps the class of term l up to the factors' columns.
    The caller guarantees <phi_l|k_j> = conj(<phi_j|k_l>), so only the
    diagonal D and the upper triangle S are evaluated, chi(chi+1)/2
    entries in all, and the sum is D + S + conj(S).  The diagonal goes
    one call per column set (``_diagonal``), and the upper triangle one
    call per ordered pair (bra column set, ket column set) that has an
    entry, holding a block per (bra class, ket class) pair on the two
    sets, grouped by ket class: the call does the column step once, each
    ket class walks its kets' share of the new null vectors once, and
    each entry does the right-hand-side step.  Each diagonal entry must
    be real; one that is not means the operator is not Hermitian.  With
    ``positive`` the Gram matrix is positive semidefinite (a
    projector's), so a zero diagonal entry zeroes its row and column and
    only the kept terms' pairs are evaluated and counted.  An
    upper-triangle entry does no ring arithmetic: row j is sum_l coef_l
    sqrt2^k zeta^p with coef_l = weight c_l scale(k_l), kept as four
    integers over one sqrt2^e, and an entry adds ``_rotations``' coef_l
    sqrt2^(k mod 2) zeta^p shifted by k // 2.  Each row is made canonical
    and multiplied by conj(c_j scale(phi_j)) once; the diagonal keeps one
    ring product per entry.  The sum is exact, so neither the block order
    nor the integer rows change a bit of the value.
    """
    terms = dec.terms
    states = [s for _, s in terms]
    classes = _classes(states)
    pair = _gram_pairs(dec, classes)
    coef = [weight * c * ket.scale for (c, _), ket in zip(terms, kets)]
    diag = ZERO
    kept = []  # per class, its kept terms in ascending order
    values = _diagonal(dec, kets, classes, pair)
    for members in classes:
        kept_a = []
        for j in members:
            ks = values[j]
            if ks is not None:
                cj, bra = terms[j]
                g = (cj * bra.scale).conj() * (coef[j] * sqrt2_root(*ks))
                if not g.is_real():
                    raise ValueError(f"non-real diagonal Gram entry {j}: {g}")
                diag = diag + g
            elif positive:
                continue
            kept_a.append(j)
        kept.append(kept_a)
    # row j of the upper triangle is sum_l coef_l sqrt2^k zeta^p over its
    # non-zero entries (k, p), kept as four integers over sqrt2^e
    e = max(c.e for c in coef) + 1
    rot = [_rotations(c, e) for c in coef]
    rows = [[0, 0, 0, 0] for _ in terms]
    sets = _column_sets(states, classes)
    for bras in sets:
        for ket_set in sets:
            blocks = []
            jls = []
            for b in ket_set:
                ls = kept[b]
                for a in bras:
                    block = [(j, l) for j in kept[a]
                             for l in ls[bisect_right(ls, j):]]
                    if block:
                        blocks.append((pair(a, b), [(terms[j][1], kets[l])
                                                    for j, l in block]))
                        jls += block
            if not blocks:
                continue
            for (j, l), ks in zip(jls, gram_entries(blocks)):
                if ks is not None:  # most pairs of a Pauli op are zero
                    k, p = ks
                    x = rot[l][k & 1][p]
                    s = k >> 1
                    row = rows[j]
                    row[0] += x[0] << s
                    row[1] += x[1] << s
                    row[2] += x[2] << s
                    row[3] += x[3] << s
    upper = ZERO
    for (cj, bra), row in zip(terms, rows):
        if any(row):
            upper = upper + (cj * bra.scale).conj() * canonical(*row, e)
    total = diag + upper + upper.conj()
    n_kept = sum(map(len, kept))
    return SimulationResult(value=total.real_float(),
                            inner_products_evaluated=n_kept * (n_kept + 1) // 2,
                            term_count=len(dec),
                            exact_value=total)


def _rotations(x: ExactAmplitude, e: int
               ) -> tuple[list[tuple[int, int, int, int]], ...]:
    """x sqrt2^h zeta^p at [h][p], for h = 0, 1 and p = 0..7, each as the
    four integers (a, b, c, d) of its value over sqrt2^e; e > x.e.

    Lifting to a larger denominator multiplies the numerator by sqrt2,
    (a, b, c, d) -> (2b, a, 2d, c); i maps it to (-c, -d, a, b); and zeta
    = (1 + i)/sqrt2 maps a numerator over sqrt2^(e-1) to (a - c, b - d,
    a + c, b + d) over sqrt2^e.
    """
    a, b, c, d = x.a, x.b, x.c, x.d
    for _ in range(e - 1 - x.e):
        a, b, c, d = 2 * b, a, 2 * d, c
    plain = []
    for _ in range(4):  # x i^q over sqrt2^(e-1)
        plain.append((2 * b, a, 2 * d, c))  # zeta^2q, lifted
        plain.append((a - c, b - d, a + c, b + d))  # zeta^(2q+1)
        a, b, c, d = -c, -d, a, b
    return plain, [(2 * b, a, 2 * d, c) for a, b, c, d in plain]


def exact_expectation(dec: MagicDecomposition, proj: PauliProjector
                      ) -> SimulationResult:
    """<Psi| Pi |Psi> = 2^-r sum_{j,l} conj(c_j) c_l <phi_j|K_l>.

    For Pi = prod_i (I + sign_i P_i)/2, K_l = ``projector_ket`` of term l
    is 2^r Pi|phi_l> as one form with a variable per factor, so no term is
    projected first.  <phi_j|Pi|phi_j> = |Pi phi_j|^2, so a zero diagonal
    entry marks a term Pi annihilates.
    """
    bases: dict = {}
    kets = [projector_ket(s, proj.factors, bases) for _, s in dec.terms]
    return _hermitian_sum(dec, kets, ExactAmplitude(1, 0, 0, 0, 2 * len(proj.factors)),
                          positive=True)


def exact_pauli_expectation(dec: MagicDecomposition, p: PauliOperator
                            ) -> SimulationResult:
    """<Psi| P |Psi> against P-shifted kets, for a Hermitian P."""
    if p.omega_exp % 2:
        raise ValueError(f"Pauli {p} is not Hermitian: its phase must be +1 or -1")
    return _hermitian_sum(dec, [apply_pauli_state(s, p) for _, s in dec.terms])


def sampled_expectation(dec: MagicDecomposition, proj: PauliProjector,
                        epsilon: float, p_f: float, seed: int,
                        samples_override: Optional[int] = None
                        ) -> SimulationResult:
    """Two-design estimate of <Psi| Pi |Psi> from L random stabilizer states.

    L is ``sample_count(epsilon, p_f)`` unless ``samples_override`` (at
    least 1) replaces it; above ``MAX_SAMPLES`` it is refused.  Sample a
    decodes psi_a (``RawDraws``) from the PCG64 stream of
    ``default_rng(SeedSequence([seed, a]))``, whose state
    comes from one vectorized pass over all L (``pcg64_streams``), so the
    loop is order-free; accumulation happens in sample order for
    reproducibility.  No one else reads a sample's stream, so its decoder
    reads ahead.  The value thus rests on PCG64's raw stream and the
    SeedSequence port, which ``tests/test_stabilizer.py`` pins against
    numpy.  ``std_error`` is the empirical standard error of the mean of
    the L per-sample terms 2^n |<psi_a|Phi>|^2, kept in one float64 array.

    The kets are 2^-r ``projector_ket``(phi_l) for the terms that Pi does
    not annihilate, in term order.  They are fixed for all L samples, so
    they are grouped by class (``_classes``), and each group is one block
    over a ``GramPair`` of (ket, a state with no columns); the blocks of
    the classes with one column set share its pivot table.  So one
    ``gram_entries`` call per column set reduces a random state psi's
    columns and walks psi's share of each new null vector's column, each
    block builds and eliminates one form, and each ket adds only its
    right-hand side and one evaluation of that plan.  That gives
    <K_l|psi> = sqrt2^k zeta^p, so <psi|K_l> is (k, -p); its float,
    conj(psi.scale) scale_l sqrt2^k zeta^-p, is formed once per
    (psi.scale, l, (k, p)) and looked up after, so the loop does no ring
    arithmetic.
    """
    import numpy as np
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n = dec.n
    big_l = sample_count(epsilon, p_f)
    if samples_override is not None:
        if samples_override < 1:
            raise ValueError(f"sample count must be at least 1, got {samples_override}")
        big_l = samples_override
    if big_l > MAX_SAMPLES:
        raise ValueError(f"{big_l} samples exceed the cap of {MAX_SAMPLES}")
    terms = dec.terms
    classes = _classes([s for _, s in terms])
    bases: dict = {}
    kets = [projector_ket(s, proj.factors, bases) for _, s in terms]
    diag = _diagonal(dec, kets, classes, _gram_pairs(dec, classes))
    kept = [j for j, ks in enumerate(diag) if ks is not None]
    # K_l 2^-r = Pi|phi_l>, with 2^-r in the ring scale, so each overlap's
    # float comes from one canonical ring value
    inv = ExactAmplitude(1, 0, 0, 0, 2 * len(proj.factors))
    coeffs = [terms[l][0].to_float() for l in kept]
    kets = [replace(kets[l], scale=kets[l].scale * inv) for l in kept]
    steps = _ket_blocks(kets)
    overlaps: dict = {}  # psi.scale -> {(l, (k, p) or None): <psi|K_l>}
    x = [0j] * len(kets)
    dim = float(1 << n)
    total = 0.0
    squares = np.empty(big_l)
    # each stream is read by its state's decoder alone, so one read ahead
    # covers most states: those words would draw a full-support state in
    # four rank-rejection attempts
    bg = np.random.PCG64(0)
    ahead = (n * (n + 9) + 4) // 4

    def words(k: int) -> np.ndarray:
        return bg.random_raw(max(k, ahead))

    for a, stream in enumerate(pcg64_streams(seed, big_l)):
        bg.state = stream
        psi = random_stabilizer_state(n, RawDraws(words))
        overlap = overlaps.setdefault(psi.scale, {})
        for blocks, ls in steps:
            values = gram_entries([(pair, [(ket, psi) for ket in group])
                                   for pair, group in blocks])
            for l, ks in zip(ls, values):
                v = overlap.get((l, ks))
                if v is None:
                    v = overlap[l, ks] = _overlap_float(psi, kets[l], ks)
                x[l] = v
        amp = 0j
        for c, v in zip(coeffs, x):
            amp += c * v
        sq = abs(amp) ** 2
        squares[a] = sq
        total += sq
    se = (dim * float(np.std(squares, ddof=1)) / math.sqrt(big_l)
          if big_l > 1 else None)
    return SimulationResult(value=dim * total / big_l,
                            inner_products_evaluated=big_l * len(kets),
                            samples_used=big_l,
                            term_count=len(dec),
                            std_error=se)


def _overlap_float(psi: StabilizerState, ket: StabilizerState,
                   ks: Optional[tuple[int, int]]) -> complex:
    """<psi|ket> as a float from ``gram_entries``' (k, p) of <ket|psi>."""
    if ks is None:
        return ZERO.to_float()
    k, p = ks
    return (psi.scale.conj() * ket.scale * sqrt2_root(k, -p % 8)).to_float()
