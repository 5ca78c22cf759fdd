"""Multi-Pauli strong simulation on magic-state stabilizer decompositions.

The exact path evaluates

    <Psi| Pi |Psi> = sum_{j,l} conj(c_j) c_l <phi_j| Pi |phi_l>

with chi(chi+1)/2 stabilizer inner products, not chi^2: for a Hermitian Pi
the Gram matrix is Hermitian, so the pairs l < j are the conjugates of the
pairs j < l.  A projector is pushed through both sides first, leaving
<Pi phi_j|Pi phi_l> over the terms it does not annihilate.  The sampled
path trades the quadratic cost for L = ceil(eps^-2 ln(1/p_f)) Haar-random
stabilizer samples using the two-design property:

    E_psi |<psi|Phi>|^2 = ||Phi||^2 / 2^n   with  Phi = Pi |Psi>,

so ``2^n / L * sum_a |<psi_a|Phi>|^2`` is an unbiased estimate of the
expectation; the 2^n normalization is pinned by requiring exact
unbiasedness on <Psi|Psi> (checked against the exact path in the tests).

Three engines take a decomposition built by the caller (``catalog``'s
``block_decomposition``, then ``extend_with_zeros`` for padding qubits):
``exact_expectation`` for a projector, ``exact_pauli_expectation`` for one
Hermitian Pauli, and ``sampled_expectation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .catalog import MagicDecomposition
from .pauli import PauliOperator, PauliProjector
from .phase_ring import ExactAmplitude, ZERO
from .stabilizer import (StabilizerState, apply_pauli_state, inner_product,
                         measure_pauli, random_stabilizer_state)


@dataclass
class SimulationResult:
    value: float
    inner_products_evaluated: int = 0
    samples_used: int = 0
    term_count: int = 0
    exact_value: Optional[ExactAmplitude] = None  # exact paths only
    std_error: Optional[float] = None  # sampled path with L >= 2 only


def sample_count(epsilon: float, p_f: float) -> int:
    """L(eps, p_f) = ceil(eps^-2 ln(1/p_f)); eps > 0 and 0 < p_f < 1."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < p_f < 1:
        raise ValueError(f"failure probability must lie in (0, 1), got {p_f}")
    return max(1, math.ceil(math.log(1.0 / p_f) / (epsilon * epsilon)))


def _projected_terms(dec: MagicDecomposition, proj: PauliProjector
                     ) -> list[tuple[ExactAmplitude, StabilizerState]]:
    """Pi |phi_l> for every ket term, dropping annihilated ones."""
    out = []
    for coeff, state in dec.terms:
        cur: Optional[StabilizerState] = state
        for p, sign in proj.factors:
            cur, _ = measure_pauli(cur, p, sign)
            if cur is None:
                break
        if cur is not None:
            out.append((coeff, cur))
    return out


def _hermitian_sum(dec: MagicDecomposition,
                   terms: Sequence[tuple[ExactAmplitude, StabilizerState]],
                   kets: Sequence[StabilizerState]) -> SimulationResult:
    """sum_{j,l} conj(c_j) c_l <b_j|k_l> over a Hermitian Gram matrix.

    ``terms`` holds (c_j, b_j) and ``kets[l]`` carries the coefficient c_l of
    ``terms[l]``.  The caller guarantees <b_l|k_j> = conj(<b_j|k_l>), so only
    the diagonal D and the upper triangle S are evaluated, chi(chi+1)/2
    inner products in all, and the sum is D + S + conj(S).  Each diagonal
    entry must be real; one that is not means the operator is not Hermitian.
    """
    diag = ZERO
    upper = ZERO
    for j, (cj, bra) in enumerate(terms):
        g = inner_product(bra, kets[j])
        if not g.is_real():
            raise ValueError(f"non-real diagonal Gram entry {j}: {g}")
        if not g.is_zero():
            diag = diag + cj.norm_sq() * g
        row = ZERO
        for (cl, _), ket in zip(terms[j + 1:], kets[j + 1:]):
            g = inner_product(bra, ket)
            if not g.is_zero():  # most pairs of a Pauli op are
                row = row + cl * g
        upper = upper + cj.conj() * row
    total = diag + upper + upper.conj()
    return SimulationResult(value=total.real_float(),
                            inner_products_evaluated=len(terms) * (len(terms) + 1) // 2,
                            term_count=len(dec),
                            exact_value=total)


def exact_expectation(dec: MagicDecomposition, proj: PauliProjector
                      ) -> SimulationResult:
    """<Psi| Pi |Psi> = sum_{j,l} conj(c_j) c_l <Pi phi_j|Pi phi_l>.

    Pi is a Hermitian idempotent, so <phi_j|Pi|phi_l> = <Pi phi_j|Pi phi_l>
    and both sides of the Gram matrix are the surviving projected terms.
    """
    kept = _projected_terms(dec, proj)
    return _hermitian_sum(dec, kept, [s for _, s in kept])


def exact_pauli_expectation(dec: MagicDecomposition, p: PauliOperator
                            ) -> SimulationResult:
    """<Psi| P |Psi> against P-shifted kets, for a Hermitian P."""
    if p.omega_exp % 2:
        raise ValueError(f"Pauli {p} is not Hermitian: its phase must be +1 or -1")
    kets = [apply_pauli_state(s, p) for _, s in dec.terms]
    return _hermitian_sum(dec, dec.terms, kets)


def sampled_expectation(dec: MagicDecomposition, proj: PauliProjector,
                        epsilon: float, p_f: float, seed: int,
                        samples_override: Optional[int] = None
                        ) -> SimulationResult:
    """Two-design estimate of <Psi| Pi |Psi> from L random stabilizer states.

    L is ``sample_count(epsilon, p_f)`` unless ``samples_override`` (at
    least 1) replaces it.  Per-sample generators derive from (seed, a) so
    the loop is order-free; accumulation happens in sample order for
    reproducibility.  ``std_error`` is the empirical standard error of the
    mean of the L per-sample terms 2^n |<psi_a|Phi>|^2.
    """
    import numpy as np
    n = dec.n
    big_l = sample_count(epsilon, p_f)
    if samples_override is not None:
        if samples_override < 1:
            raise ValueError(f"sample count must be at least 1, got {samples_override}")
        big_l = samples_override
    kets = _projected_terms(dec, proj)
    coeffs = [c.to_float() for c, _ in kets]
    dim = float(1 << n)
    total = 0.0
    count = 0
    squares = []
    for a in range(big_l):
        rng = np.random.default_rng(np.random.SeedSequence([seed, a]))
        psi = random_stabilizer_state(n, rng)
        amp = 0j
        for c, ket in zip(coeffs, kets):
            amp += c * inner_product(psi, ket[1]).to_float()
            count += 1
        sq = abs(amp) ** 2
        squares.append(sq)
        total += sq
    se = (dim * float(np.std(squares, ddof=1)) / math.sqrt(big_l)
          if big_l > 1 else None)
    return SimulationResult(value=dim * total / big_l,
                            inner_products_evaluated=count,
                            samples_used=big_l,
                            term_count=len(dec),
                            std_error=se)
