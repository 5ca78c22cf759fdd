"""Loop-based reference versions of the stabilizer inner-product kernel.

These are the straightforward implementations that the bit-packed kernel in
``tmagic.gf2`` / ``tmagic.stabilizer`` replaced: a transpose-then-row-reduce
GF(2) solver, a pullback that visits every bit pair of every coupling, and
the quarter-phase exponential sum on plain lists.  They are slow (O(n^4) and
worse) but easy to audit, and the differential tests require the fast
kernel to agree with them by exact ring equality.

``exact_expectation`` and ``exact_pauli_expectation`` are the chi^2 double
loops that the Hermitian-symmetric exact engine in ``tmagic.strong_sim``
replaced.  They run on the fast kernel's ``inner_product``, one plain call
per pair, so they check the class blocks and the summation, not the inner
products.  ``kept_terms`` counts the terms a projector does not annihilate.

``dense_pauli_expectation`` is <psi| P |psi> in ring arithmetic over exact
dense amplitudes (``dense.dense_magic_state_exact``), the third engine the
stabilizer-rank and Gauss-sum values are compared with.
``gauss_sum_eval`` sums a quadratic Gauss sum point by point,
``gauss_block_terms`` lists, as ring values (``ring_value``), the tagged
terms ``gauss.expect_block`` sums, enumerated on their own from each
block's ``gauss._Block3(code)`` (``block_codes``, ``gauss_groups``),
``stabilizer_state_count`` is the closed form for |S(n)|, and ``all_paulis``
enumerates the phase-free k-qubit Paulis for exhaustive checks.

``numpy_randbelow`` and ``numpy_random_stabilizer_state`` make every draw
with a numpy ``Generator`` call, one at a time: the stream that
``draws.RawDraws`` decodes from raw PCG64 words must equal theirs.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from tmagic import gauss, stabilizer
from tmagic.gf2 import parity, rank_of, revbits
from tmagic.pauli import PauliOperator, letters_to_pauli
from tmagic.phase_ring import ExactAmplitude, ONE, ZERO, eighth_root, sqrt2_root
from tmagic.stabilizer import StabilizerState, apply_pauli_state, projector_ket


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def solve_columns(columns: list[int], rhs: int, n: int
                  ) -> Optional[tuple[int, list[int]]]:
    """sum_j u_j columns[j] = rhs: (particular u, null basis) or None."""
    m = len(columns)
    rows = []
    for i in range(n):
        coeff = 0
        for j in range(m):
            coeff |= ((columns[j] >> i) & 1) << j
        rows.append((coeff, (rhs >> i) & 1))
    reduced: list[tuple[int, int]] = []
    for coeff, b in rows:
        changed = True
        while changed and coeff:
            changed = False
            for rc, rb in reduced:
                if rc.bit_length() == coeff.bit_length():
                    coeff ^= rc
                    b ^= rb
                    changed = True
        if coeff:
            reduced.append((coeff, b))
            reduced.sort(key=lambda t: -t[0].bit_length())
        elif b:
            return None
    ascending = sorted(reduced, key=lambda t: t[0].bit_length())
    particular = 0
    for rc, rb in ascending:
        p = rc.bit_length() - 1
        if rb ^ parity(rc & ~(1 << p) & particular):
            particular |= 1 << p
    pivot_bits = {rc.bit_length() - 1 for rc, _ in reduced}
    null = []
    for f in range(m):
        if f in pivot_bits:
            continue
        x = 1 << f
        for rc, _ in ascending:
            if parity(rc & x):
                x ^= 1 << (rc.bit_length() - 1)
        null.append(x)
    return particular, null


class _Pullback:
    """A Z_8 even form on r variables built one affine substitution at a time."""

    def __init__(self, r: int):
        self.c = 0
        self.d = [0] * r
        self.b = [0] * r

    def _add_xor(self, t: int, mask: int) -> None:
        t %= 8
        idxs = _bits(mask)
        for a in idxs:
            self.d[a] = (self.d[a] + t) % 8
        if (t >> 1) & 1:
            for i, a in enumerate(idxs):
                for b2 in idxs[i + 1:]:
                    self.b[a] ^= 1 << b2
                    self.b[b2] ^= 1 << a

    def add_form(self, s: StabilizerState, base: int, rows: list[int],
                 sign: int) -> None:
        """Add sign * phi_s composed with u_a = base_a xor (rows[a] . w)."""
        self.c = (self.c + sign * s.c) % 8
        for a in range(s.m):
            t = (sign * s.dvec[a]) % 8
            if (base >> a) & 1:
                self.c = (self.c + t) % 8
                t = -t
            self._add_xor(t, rows[a])
        for a in range(s.m):
            for b2 in _bits(s.bmat[a] >> (a + 1)):
                b2 += a + 1
                la, lb = rows[a], rows[b2]
                ba, bb = (base >> a) & 1, (base >> b2) & 1
                if ba and bb:
                    self.c = (self.c + 4) % 8
                if ba:
                    self._add_xor(4, lb)
                if bb:
                    self._add_xor(4, la)
                for i in _bits(la):
                    for j in _bits(lb):
                        if i == j:
                            self.d[i] = (self.d[i] + 4) % 8
                        else:
                            self.b[i] ^= 1 << j
                            self.b[j] ^= 1 << i


def _one_plus_ipow(k: int) -> ExactAmplitude:
    return {0: ExactAmplitude(2), 1: ExactAmplitude(1, 0, 1, 0, 0),
            2: ZERO, 3: ExactAmplitude(1, 0, -1, 0, 0)}[k % 4]


def _transvect4(d4: list[int], b: list[int], p: int, q: int) -> None:
    """Substitute old u_p = new u_p xor u_q in the quarter-phase form."""
    bpq = (b[p] >> q) & 1
    d4[q] = (d4[q] + d4[p] + 2 * bpq) % 4
    if d4[p] & 1:
        b[p] ^= 1 << q
        b[q] ^= 1 << p
    rest = b[p] & ~((1 << p) | (1 << q))
    b[q] ^= rest
    for z in _bits(rest):
        b[z] ^= 1 << q


def exponential_sum(s: StabilizerState) -> ExactAmplitude:
    """scale * sum_u zeta^{phi(u)}, eliminating one or two variables a step."""
    acc = s.scale * eighth_root(s.c)
    d4 = [d // 2 for d in s.dvec]
    b = list(s.bmat)
    active = list(range(s.m))
    act_mask = (1 << s.m) - 1
    while active:
        a = active[0]
        nmask = b[a] & act_mask & ~(1 << a)
        if nmask == 0:
            if d4[a] == 2:
                return ZERO
            acc = acc * _one_plus_ipow(d4[a])
            active.pop(0)
            act_mask ^= 1 << a
            continue
        bv = (nmask & -nmask).bit_length() - 1
        for x in _bits(nmask & ~(1 << bv)):
            _transvect4(d4, b, bv, x)
        if d4[a] % 2 == 0:
            acc = acc.scale_int(2)
            if d4[a] == 2:
                acc = acc * eighth_root(2 * d4[bv])
                for z in _bits(b[bv] & act_mask & ~(1 << a) & ~(1 << bv)):
                    d4[z] = (d4[z] + 2) % 4
            active.remove(a)
            active.remove(bv)
            act_mask ^= (1 << a) | (1 << bv)
        else:
            acc = acc * _one_plus_ipow(d4[a])
            d4[bv] = (d4[bv] + 4 - d4[a]) % 4
            active.pop(0)
            act_mask ^= 1 << a
    return acc


def inner_product(sa: StabilizerState, sb: StabilizerState) -> ExactAmplitude:
    """<a|b> through the reference solver, pullback and exponential sum."""
    sol = solve_columns(list(sa.basis) + list(sb.basis),
                        sa.shift ^ sb.shift, sa.n)
    if sol is None:
        return ZERO
    part, null = sol
    ma = sa.m
    r = len(null)

    def rows(offset: int, count: int) -> list[int]:
        return [sum(((null[k] >> (offset + a)) & 1) << k for k in range(r))
                for a in range(count)]

    acc = _Pullback(r)
    acc.add_form(sb, part >> ma, rows(ma, sb.m), 1)
    acc.add_form(sa, part & ((1 << ma) - 1), rows(0, sa.m), -1)
    inter = StabilizerState(max(r, 1), tuple(1 << i for i in range(r)), 0,
                            tuple(acc.b), tuple(acc.d), acc.c, ONE)
    return sa.scale.conj() * sb.scale * exponential_sum(inter)


def exact_expectation(dec, proj) -> ExactAmplitude:
    """<Psi| Pi |Psi> = sum_{j,l} conj(c_j) c_l 2^-r <phi_j|K_l> over every
    pair of terms, with K_l = ``projector_ket``(phi_l) = 2^r Pi|phi_l>."""
    inv = ExactAmplitude(1, 0, 0, 0, 2 * len(proj.factors))
    kets = [(cl * inv, projector_ket(sl, proj.factors)) for cl, sl in dec.terms]
    total = ZERO
    for cj, sj in dec.terms:
        for cl, kl in kets:
            total = total + cj.conj() * cl * stabilizer.inner_product(sj, kl)
    return total


def kept_terms(dec, proj) -> int:
    """The number of terms that Pi does not annihilate: those whose
    <phi_l|K_l> = 2^r |Pi phi_l|^2 is not zero."""
    return sum(not stabilizer.inner_product(s, projector_ket(s, proj.factors)
                                            ).is_zero() for _, s in dec.terms)


def exact_pauli_expectation(dec, p) -> ExactAmplitude:
    """<Psi| P |Psi> via chi^2 inner products against P-shifted kets."""
    total = ZERO
    kets = [(c, apply_pauli_state(s, p)) for c, s in dec.terms]
    for cj, sj in dec.terms:
        for cl, sl in kets:
            total = total + cj.conj() * cl * stabilizer.inner_product(sj, sl)
    return total


def dense_pauli_expectation(amps: Sequence[ExactAmplitude], p: PauliOperator
                            ) -> ExactAmplitude:
    """<psi| P |psi> in ring arithmetic from exact dense amplitudes.

    P|x> = i^(omega + #Y) (-1)^|x & z| |x ^ x_mask> in the dense index
    convention of ``dense.apply_pauli``.
    """
    xm, zm = revbits(p.x_mask, p.n), revbits(p.z_mask, p.n)
    total = ZERO
    for x, amp in enumerate(amps):
        k = p.omega_exp + p.delta.bit_count() + 2 * (x & zm).bit_count()
        total = total + amps[x ^ xm].conj() * eighth_root(2 * k) * amp
    return total


def gauss_sum_eval(a_matrix: Sequence[Sequence[int]], v: Sequence[int],
                   c: int, m: int = 1) -> ExactAmplitude:
    """G_m(A, v, c) = sum_x exp[(pi i / 2^m)(x A x^T + 2 v x^T + c)].

    Direct summation over 2^dim points; exact only for m <= 2 (eighth
    roots), dim capped at 24.
    """
    dim = len(v)
    if dim > 24:
        raise ValueError("direct Gauss-sum summation capped at dimension 24")
    if m not in (0, 1, 2):
        raise ValueError("exact arithmetic supports m in {0, 1, 2}")
    step = 2 ** (2 - m)  # exponent unit in zeta = e^{i pi/4} steps
    total = ZERO
    for bits in range(1 << dim):
        x = [(bits >> i) & 1 for i in range(dim)]
        q = c
        for i in range(dim):
            q += 2 * v[i] * x[i]
            for j in range(dim):
                q += a_matrix[i][j] * x[i] * x[j]
        total = total + eighth_root(step * q)
    return total


def ring_value(item: Optional[tuple[int, int]]) -> ExactAmplitude:
    """The ring value of a Gauss-sum item: sqrt2^r * zeta^q, or ZERO."""
    return ZERO if item is None else sqrt2_root(*item)


def block_codes(k: int, p: PauliOperator) -> list[int]:
    """The letter code l0 + 4 l1 + 16 l2 (0 = I, 1 = Z, 2 = X, 3 = Y) of
    each 3-qubit block of P, read letter by letter."""
    return [sum("IZXY".index(p.letter(3 * i + j)) << 2 * j for j in range(3))
            for i in range(k // 3)]


def gauss_groups(k: int, p: PauliOperator
                 ) -> list[list[tuple[tuple, int, ExactAmplitude]]]:
    """The (tag, log2-multiplicity, value) items of each chained group of
    a k = 3, 6 or 12 block, tagged with their per-block (index, family,
    x, y), by recursion over ``gauss._Block3(code).terms(seed)``.

    A pair of blocks chains when both are reducible, and a four-block
    block is one chain when both its pairs are.  A chain of r blocks
    carries 2^(r-1) times 2^(product of its exponent bits), each block's
    ranges seeded by the parity of the preceding link bits; a lone B
    block's exponent bit is its prefactor 2.
    """
    blocks = [(i, gauss._Block3(code)) for i, code in enumerate(block_codes(k, p))]

    def chains(run):
        if all(blk.reducible for _, blk in run):
            return [run]
        if len(run) == 4:
            return chains(run[:2]) + chains(run[2:])
        return [[b] for b in run]

    def items(chain, i=0, seed=0, tag=(), eprod=1, val=ONE):
        if i == len(chain):
            return [(tag, len(chain) - 1 + eprod, val)]
        index, blk = chain[i]
        return [item for x, y, e, link, v in blk.terms(seed)
                for item in items(chain, i + 1, seed ^ link,
                                  tag + ((index, blk.family, x, y),),
                                  eprod * e, val * ring_value(v))]

    return [items(chain) for chain in chains(blocks)]


def gauss_block_terms(k: int, p: PauliOperator
                      ) -> list[tuple[tuple, ExactAmplitude, int]]:
    """(tag, value, multiplicity) of every Gauss sum ``gauss.expect_block``
    adds up for the phase-free part of P, before the sign and the 2^-k.

    Each item's (r, q) or None becomes the ring value sqrt2^r * zeta^q or
    ZERO, and the items multiply in the ring.  At k = 3, 6 and 12 a term is
    the product of one ``gauss_groups`` item per chained group, tagged with
    its items' tags; at k = 1 and 2 the two one-block terms are untagged.
    """
    if k in (1, 2):
        items = gauss._terms_k1(p) if k == 1 else gauss._terms_k2(p)
        return [((), ring_value(v), 1) for v in items]
    out = []
    for combo in itertools.product(*gauss_groups(k, p)):
        val = ONE
        for _, _, v in combo:
            val = val * v
        out.append((sum((tag for tag, _, _ in combo), ()), val,
                    1 << sum(e for _, e, _ in combo)))
    return out


def stabilizer_state_count(n: int) -> int:
    """|S(n)| = 2^n prod_{j=1}^n (2^j + 1)."""
    total = 1 << n
    for j in range(1, n + 1):
        total *= (1 << j) + 1
    return total


def all_paulis(k: int) -> Iterator[PauliOperator]:
    """Every phase-free k-qubit Pauli, in base-4 letter order."""
    for letters in itertools.product(range(4), repeat=k):
        yield letters_to_pauli(letters)


def numpy_randbelow(rng, bound: int) -> int:
    """Uniform integer in [0, bound): ``Generator.integers`` up to 2^62;
    above, ``Generator.bytes`` masked to the bound's bit length, rejected
    at the bound."""
    if bound <= (1 << 62):
        return int(rng.integers(0, bound))
    k = (bound - 1).bit_length()
    while True:
        v = int.from_bytes(rng.bytes((k + 7) // 8), "little") & ((1 << k) - 1)
        if v < bound:
            return v


def numpy_random_stabilizer_state(n: int, rng) -> StabilizerState:
    """``stabilizer.random_stabilizer_state`` with one numpy call per draw."""
    weights, total = stabilizer._dimension_weights(n)
    r = numpy_randbelow(rng, total)
    m = 0
    while r >= weights[m]:
        r -= weights[m]
        m += 1
    while True:
        cols = [numpy_randbelow(rng, 1 << n) for _ in range(m)]
        if rank_of(cols) == m:
            break
    h = numpy_randbelow(rng, 1 << n)
    dvec = tuple(2 * numpy_randbelow(rng, 4) for _ in range(m))
    brows = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if numpy_randbelow(rng, 2):
                brows[a] |= 1 << b
                brows[b] |= 1 << a
    return StabilizerState(n, tuple(cols), h, tuple(brows), dvec, 0,
                           ExactAmplitude(1, 0, 0, 0, m))
