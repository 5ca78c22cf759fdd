"""The bit-packed kernel against its loop-based reference and the oracle.

``reference_kernel`` keeps the straightforward GF(2) solver, bit-pair
pullback and exponential sum; the fast kernel must agree with it by exact
ring equality, and with the exact dense oracle on small random states.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tmagic
from tmagic import strong_sim
from tmagic.catalog import (block_decomposition, catalog_entry,
                            extend_with_zeros, read_catalog_file,
                            t12_decomposition, write_catalog_file)
from tmagic.draws import PCG64Words, RawDraws
from tmagic.gf2 import rank_of, solve_columns
from tmagic.pauli import PauliOperator, PauliProjector, random_pauli
from tmagic.phase_ring import ZERO, ExactAmplitude, sqrt2_root
from tmagic import stabilizer
from tmagic.stabilizer import (GramPair, StabilizerState, apply_pauli_state,
                               gram_entries, inner_product, pivot_table,
                               projector_ket, random_stabilizer_state)

import reference_kernel


class TestAgainstReference:
    def test_random_pairs_n1_to_24(self):
        draws = RawDraws(PCG64Words(2024))
        for n in range(1, 25):
            for _ in range(40 if n <= 12 else 6):
                a = random_stabilizer_state(n, draws)
                b = random_stabilizer_state(n, draws)
                assert inner_product(a, b) == reference_kernel.inner_product(a, b)

    def test_every_t12_catalog_pair_after_a_pauli(self):
        rng = np.random.default_rng(2025)
        terms = [s for _, s in t12_decomposition().terms]
        kets = [apply_pauli_state(s, random_pauli(12, rng)) for s in terms]
        for a in terms:
            for b in kets:
                assert inner_product(a, b) == reference_kernel.inner_product(a, b)

    def test_low_dimensional_pairs(self):
        # shrunk states give small supports, empty intersections and r = 0
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            a = _shrunk_state(n, rng, int(rng.integers(0, n + 1)))
            b = _shrunk_state(n, rng, int(rng.integers(0, n + 1)))
            assert inner_product(a, b) == reference_kernel.inner_product(a, b)

    def test_shifted_and_projected_partners_n1_to_48(self):
        # partners on the state's own support, so most pairs are consistent
        # and the intersection form is built, not short-circuited to 0
        rng = np.random.default_rng(2027)
        pairs = consistent = 0
        for n in (1, 6, 12, 24, 48):
            for _ in range(8):
                a = _shrunk_state(n, rng, int(rng.integers(0, 3)))
                for b in _partners(a, rng):
                    for x, y in ((a, b), (b, a)):
                        assert (inner_product(x, y)
                                == reference_kernel.inner_product(x, y)), n
                        pairs += 1
                        consistent += solve_columns(
                            list(x.basis) + list(y.basis), x.shift ^ y.shift,
                            n) is not None
        assert pairs >= 200
        assert consistent > pairs // 2


class TestGroupedOverlaps:
    """``gram_entries`` as the sampled estimator uses it: one GramPair of
    (ket, a state with no columns) per group of kets that share columns,
    cross data and ``odd`` mask, and a random state as the ket side.  Every
    other group is a group of projector kets, whose columns may be
    dependent."""

    def test_ring_equal_to_inner_product_n1_to_48(self):
        rng = np.random.default_rng(2028)
        entries = consistent = empty_sides = 0
        for n in (1, 2, 3, 6, 12, 24, 48):
            for trial in range(16 if n <= 12 else 10):
                cuts = n if trial % 4 == 0 else int(rng.integers(0, 3))
                base = _shrunk_state(n, rng, cuts)
                psi = _shrunk_state(n, rng, n if trial % 4 == 1 else 0)
                if trial % 2:
                    base = projector_ket(base, _factors(n, rng))
                # Pauli shifts keep columns, cross data and odd mask, so
                # the base and its shifts form one group
                group = [base] + [apply_pauli_state(base, random_pauli(n, rng))
                                  for _ in range(3)]
                empty = StabilizerState.computational(n)
                pair = GramPair(base, empty, pivot_table(base, empty))
                empty_sides += base.m == 0 or psi.m == 0
                got = gram_entries([(pair, [(ket, psi) for ket in group])])
                for ket, ks in zip(group, got):
                    want = inner_product(ket, psi)
                    assert want == reference_kernel.inner_product(ket, psi)
                    assert inner_product(psi, ket) == want.conj()
                    entries += 1
                    if ks is None:
                        assert want == ZERO
                        continue
                    consistent += 1
                    k, p = ks
                    assert ket.scale.conj() * psi.scale * sqrt2_root(k, p) == want
        assert entries >= 250
        assert consistent > entries // 2
        assert empty_sides >= 20


class TestColumnSetBlocks:
    """``gram_entries`` over the blocks of one column set, as the sampled
    estimator calls it (``strong_sim._ket_blocks``): one column step, and
    one walk of the random state's share of the new null vectors, for all
    the ket classes on the set.  Each ket's (k, p) must be what one call
    per class gives, and ring-equal to ``inner_product``."""

    def test_matches_one_call_per_class_and_inner_product(self):
        rng = np.random.default_rng(2034)
        draws = RawDraws(PCG64Words(2035))
        shared = dependent = entries = consistent = 0
        for n in range(1, 9):
            # the catalog terms for t <= 6, and their tensor products above
            terms = [s for _, s in block_decomposition(n).terms]
            for m in range(n + 1):
                psi = _state_of_dimension(n, m, draws)
                assert psi.m == m
                for nf in (1, 2, 3):
                    # the first factor's column lies in one term's span
                    cols = terms[int(rng.integers(len(terms)))].basis
                    x = 0
                    for col in cols:
                        x ^= col * int(rng.integers(0, 2))
                    paulis = [_pauli_with_x(n, x, rng)]
                    paulis += [random_pauli(n, rng) for _ in range(nf - 1)]
                    factors = [(p, 1 - 2 * int(rng.integers(0, 2)))
                               for p in paulis]
                    kets = [projector_ket(s, factors) for s in terms]
                    dependent += sum(rank_of(k.basis) < k.m for k in kets)
                    steps = strong_sim._ket_blocks(kets)
                    assert sorted(l for _, ls in steps for l in ls) == list(
                        range(len(kets)))
                    for blocks, ls in steps:
                        got = gram_entries([(pair, [(ket, psi) for ket in group])
                                            for pair, group in blocks])
                        alone = [ks for pair, group in blocks
                                 for ks in gram_entries(
                                     [(pair, [(ket, psi) for ket in group])])]
                        assert got == alone, (n, m, nf)
                        shared += len(blocks) > 1
                        for l, ks in zip(ls, got):
                            ket = kets[l]
                            want = inner_product(ket, psi)
                            entries += 1
                            if ks is None:
                                assert want == ZERO, (n, m, nf, l)
                                continue
                            consistent += 1
                            k, p = ks
                            assert (ket.scale.conj() * psi.scale
                                    * sqrt2_root(k, p) == want), (n, m, nf, l)
        assert shared >= 100 and dependent >= 100
        assert consistent > entries // 2


class TestClassBlocks:
    """``gram_entries`` with one block per call, one call per ordered pair
    of term classes, over that pair's ``GramPair`` (cached for a catalog
    entry, per call otherwise), ring-equal to ``inner_product`` on every
    (bra, ket) entry, not only the upper triangle.  ``TestColumnSetPairCalls``
    groups the blocks as the exact engine does."""

    @staticmethod
    def _block_values(dec, kets):
        """gram_entries over every class block, by (j, l)."""
        states = [s for _, s in dec.terms]
        classes = strong_sim._classes(states)
        pair = strong_sim._gram_pairs(dec, classes)
        out = {}
        for a, js in enumerate(classes):
            for b, ls in enumerate(classes):
                block = [(j, l) for j in js for l in ls]
                out.update(zip(block, gram_entries(
                    [(pair(a, b), [(states[j], kets[l]) for j, l in block])])))
        return out

    @classmethod
    def _check_blocks(cls, dec, kets):
        states = [s for _, s in dec.terms]
        got = cls._block_values(dec, kets)
        assert len(got) == len(states) ** 2
        nonzero = 0
        for (j, l), ks in got.items():
            want = inner_product(states[j], kets[l])
            if ks is None:
                assert want == ZERO, (j, l)
                continue
            nonzero += 1
            k, p = ks
            assert (states[j].scale.conj() * kets[l].scale
                    * sqrt2_root(k, p) == want), (j, l)
        return nonzero

    @staticmethod
    def _projector(n, nf, rng):
        while True:
            ops = [random_pauli(n, rng) for _ in range(nf)]
            signs = [1 - 2 * int(rng.integers(0, 2)) for _ in range(nf)]
            try:
                return PauliProjector(n, tuple(zip(ops, signs)))
            except ValueError:
                continue

    def _check(self, dec, rng, paulis, projectors):
        nonzero = 0
        for _ in range(paulis):
            p = random_pauli(dec.n, rng)
            nonzero += self._check_blocks(
                dec, [apply_pauli_state(s, p) for _, s in dec.terms])
        for nf in range(1, projectors + 1):
            proj = self._projector(dec.n, nf, rng)
            nonzero += self._check_blocks(
                dec, [projector_ket(s, proj.factors) for _, s in dec.terms])
        assert nonzero > 0

    def test_catalog_entries(self, monkeypatch):
        monkeypatch.setattr(strong_sim, "_GRAM_PAIRS", {})
        rng = np.random.default_rng(2029)
        for k, paulis in ((3, 6), (6, 4), (12, 2)):
            # the cached pairs serve every operator after the first
            self._check(catalog_entry(k), rng, paulis, 3)
        assert set(strong_sim._GRAM_PAIRS) == {3, 6, 12}

    def test_second_op_reuses_the_cached_plans(self, monkeypatch):
        # a Pauli op builds each block's plan once, the same op again
        # builds none, another Pauli only those of blocks the first had no
        # consistent entry in, and a projector op builds its own plans
        # (and the kept one of a block whose factor columns close no null
        # vector) and leaves the kept ones; every op stays ring-equal to
        # inner_product
        monkeypatch.setattr(strong_sim, "_GRAM_PAIRS", {})
        built = []
        plan_of = stabilizer.exponential_sum

        def counted(*args):
            built.append(args)
            return plan_of(*args)
        monkeypatch.setattr(stabilizer, "exponential_sum", counted)
        rng = np.random.default_rng(2033)
        dec = catalog_entry(12)

        def kept():
            return [None if pair is None else pair._plan
                    for pair in strong_sim._GRAM_PAIRS[12]]

        p, q = random_pauli(12, rng), random_pauli(12, rng)
        kets_p = [apply_pauli_state(s, p) for _, s in dec.terms]
        values = self._block_values(dec, kets_p)
        first = len(built)
        plans = kept()
        assert 0 < first == sum(plan is not None for plan in plans) <= 27 ** 2
        assert self._block_values(dec, kets_p) == values
        assert len(built) == first and kept() == plans
        kets_q = [apply_pauli_state(s, q) for _, s in dec.terms]
        self._block_values(dec, kets_q)
        after = kept()
        assert all(x is y for x, y in zip(plans, after) if x is not None)
        assert len(built) - first == sum(
            x is None and y is not None for x, y in zip(plans, after))
        proj = self._projector(12, 2, rng)
        kets_proj = [projector_ket(s, proj.factors) for _, s in dec.terms]
        before = len(built)
        self._block_values(dec, kets_proj)
        assert len(built) > before
        assert all(x is y for x, y in zip(after, kept()) if x is not None)
        for kets in (kets_p, kets_q, kets_proj):
            assert self._check_blocks(dec, kets) > 0

    def test_uncached_tensor_decomposition(self, monkeypatch):
        monkeypatch.setattr(strong_sim, "_GRAM_PAIRS", {})
        dec = block_decomposition(9)
        assert len(strong_sim._classes([s for _, s in dec.terms])) < len(dec)
        self._check(dec, np.random.default_rng(2030), 3, 3)
        assert strong_sim._GRAM_PAIRS == {}


class TestColumnSetPairCalls:
    """``gram_entries`` as the exact engine calls it (``_diagonal``,
    ``_hermitian_sum``): one call per ordered pair of column sets, with a
    block per (bra class, ket class) pair on the two sets, grouped by ket
    class, so the call shares one column step and each ket class one walk
    of its kets' share.  Every entry's (k, p) must be what one call per
    block gives, and ring-equal to ``inner_product``; here on every
    (bra, ket) entry, not only the upper triangle."""

    @staticmethod
    def _check_calls(dec, kets):
        states = [s for _, s in dec.terms]
        classes = strong_sim._classes(states)
        sets = strong_sim._column_sets(states, classes)
        assert sorted(a for group in sets for a in group) == list(
            range(len(classes)))
        pair = strong_sim._gram_pairs(dec, classes)
        grouped = nonzero = 0
        for bras in sets:
            for ket_set in sets:
                blocks, jls = [], []
                for b in ket_set:
                    for a in bras:
                        block = [(j, l) for j in classes[a] for l in classes[b]]
                        blocks.append((pair(a, b), [(states[j], kets[l])
                                                    for j, l in block]))
                        jls += block
                got = gram_entries(blocks)
                alone = [ks for block in blocks for ks in gram_entries([block])]
                assert got == alone
                grouped += len(ket_set) > 1 and len(bras) > 1
                for (j, l), ks in zip(jls, got):
                    want = inner_product(states[j], kets[l])
                    if ks is None:
                        assert want == ZERO, (j, l)
                        continue
                    nonzero += 1
                    k, p = ks
                    assert (states[j].scale.conj() * kets[l].scale
                            * sqrt2_root(k, p) == want), (j, l)
        return grouped, nonzero

    @pytest.mark.parametrize("t", [6, 12])
    def test_catalog_terms_match_one_call_per_block(self, t, monkeypatch):
        monkeypatch.setattr(strong_sim, "_GRAM_PAIRS", {})
        rng = np.random.default_rng(2040 + t)
        dec = catalog_entry(t)
        states = [s for _, s in dec.terms]
        grouped = nonzero = dependent = 0
        ket_lists = [[apply_pauli_state(s, p) for s in states]
                     for p in (random_pauli(t, rng), random_pauli(t, rng))]
        for nf in (1, 2, 3):
            for in_span in (False, True):
                factors = []
                if in_span:  # the first factor's column lies in span(G_j)
                    x = 0
                    for col in states[int(rng.integers(len(states)))].basis:
                        x ^= col * int(rng.integers(0, 2))
                    factors.append((_pauli_with_x(t, x, rng), 1))
                while len(factors) < nf:
                    factors.append((random_pauli(t, rng),
                                    1 - 2 * int(rng.integers(0, 2))))
                kets = [projector_ket(s, factors) for s in states]
                dependent += sum(rank_of(k.basis) < k.m for k in kets)
                ket_lists.append(kets)
        for kets in ket_lists:
            g, z = self._check_calls(dec, kets)
            grouped += g
            nonzero += z
        assert grouped > 0 and nonzero > 0 and dependent > 0

    @pytest.mark.parametrize("build", ["policy6_t12", "t3_padded_to_5", "t14",
                                       "catalog_file"])
    def test_uncached_exact_values_ring_equal(self, build, monkeypatch,
                                              tmp_path):
        # these decompositions are no catalog entry, so their pairs are
        # built per call and never cached
        monkeypatch.setattr(strong_sim, "_GRAM_PAIRS", {})
        if build == "policy6_t12":
            dec = block_decomposition(12, policy=(6,))
        elif build == "t3_padded_to_5":
            dec = extend_with_zeros(block_decomposition(3), 5)
        elif build == "t14":
            dec = block_decomposition(14)
        else:
            path = tmp_path / "t12.txt"
            with open(path, "w") as fh:
                write_catalog_file(catalog_entry(12), fh)
            dec = read_catalog_file(str(path))
            assert dec == catalog_entry(12) and dec is not catalog_entry(12)
        rng = np.random.default_rng(2050)
        n = dec.n
        for nf in (0, 1, 2, 3):
            if nf == 0:
                p = random_pauli(n, rng)
                assert (strong_sim.exact_pauli_expectation(dec, p).exact_value
                        == reference_kernel.exact_pauli_expectation(dec, p))
                continue
            proj = TestClassBlocks._projector(n, nf, rng)
            assert (strong_sim.exact_expectation(dec, proj).exact_value
                    == reference_kernel.exact_expectation(dec, proj))
        assert strong_sim._GRAM_PAIRS == {}


def _factors(n, rng):
    """One to three random Hermitian projector factors with random signs."""
    return [(random_pauli(n, rng), 1 - 2 * int(rng.integers(0, 2)))
            for _ in range(int(rng.integers(1, 4)))]


def _pauli_with_x(n, x, rng):
    """A random Hermitian Pauli whose X and Y sites are those of x."""
    y = x & int(rng.integers(0, 1 << n))
    z = ~x & int(rng.integers(0, 1 << n))
    return PauliOperator(n, beta=z, gamma=x & ~y, delta=y)


def _state_of_dimension(n, m, draws):
    """A seeded random state on m columns: a full-support draw restricted
    to u_a = 0 on all but its first m columns, rescaled to norm 1."""
    while True:
        s = random_stabilizer_state(n, draws)
        if s.m == n:
            break
    low = (1 << m) - 1
    return StabilizerState(n, s.basis[:m], s.shift,
                           tuple(row & low for row in s.bmat[:m]),
                           s.dvec[:m], s.c, ExactAmplitude(1, 0, 0, 0, m))


def _partners(s, rng):
    """P s, K s, K P s and a P-shifted copy of the last, for random Paulis
    P and random projector kets K (``projector_ket``, which may have
    dependent columns)."""
    n = s.n
    shifted = apply_pauli_state(s, random_pauli(n, rng))
    out = [shifted]
    for base in (s, shifted):
        out.append(projector_ket(base, _factors(n, rng)))
    out.append(apply_pauli_state(out[-1], random_pauli(n, rng)))
    return out


def _shrunk_state(n, rng, cuts):
    """A random state restricted to u_a = 0 on all but its first m - cuts
    columns: a state on fewer columns, none at all where cuts >= m."""
    s = random_stabilizer_state(n, rng)
    m = max(s.m - cuts, 0)
    low = (1 << m) - 1
    return StabilizerState(n, s.basis[:m], s.shift,
                           tuple(row & low for row in s.bmat[:m]),
                           s.dvec[:m], s.c, s.scale)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 10), st.integers(0, 10))
def test_inner_product_matches_exact_dense(n, seed, cuts_a, cuts_b):
    rng = np.random.default_rng(seed)
    a = _shrunk_state(n, rng, cuts_a)
    b = _shrunk_state(n, rng, cuts_b)
    want = ZERO
    for x, y in zip(a.to_dense_exact(), b.to_dense_exact()):
        want = want + x.conj() * y
    assert inner_product(a, b) == want


def test_invariant_checks_survive_optimized_mode():
    """The state and kernel invariants, and every value class's constructor
    check, raise ValueError under python -O."""
    code = """
from tmagic.catalog import t1_decomposition
from tmagic.gauss import _group_blocks, _sum_terms
from tmagic.phase_ring import ONE, ExactAmplitude
from tmagic.pauli import PauliOperator, PauliProjector
from tmagic import strong_sim
from tmagic.stabilizer import StabilizerState, apply_pauli_state, projector_ket
from tmagic.strong_sim import exact_pauli_expectation
print("debug", __debug__)
def check(label, fn):
    try:
        fn()
    except ValueError as exc:
        print(label, "ValueError", exc)
    else:
        print(label, "accepted")
check("odd-dvec", lambda: StabilizerState(2, (1,), 0, (0,), (3,), 0, ONE))
check("short-bmat", lambda: StabilizerState(2, (1,), 0, (), (0,), 0, ONE))
check("bmat-diagonal", lambda: StabilizerState(2, (1,), 0, (1,), (0,), 0, ONE))
check("negative-exponent", lambda: ExactAmplitude(1, 0, 0, 0, -1))
check("site-mask", lambda: PauliOperator(1, 2))
check("two-letters", lambda: PauliOperator(2, 1, 1))
z = PauliOperator.from_str("Z")
check("projector-qubits", lambda: PauliProjector(2, ((z, 1),)))
check("projector-phase", lambda: PauliProjector(
    1, ((PauliOperator.from_str("i:Z"), 1),)))
check("projector-commute", lambda: PauliProjector(
    1, ((z, 1), (PauliOperator.from_str("X"), 1))))
check("projector-sign", lambda: PauliProjector(1, ((z, 0),)))
zero = StabilizerState.computational(1)
check("factor-sign", lambda: projector_ket(
    zero, [(PauliOperator.from_str("X"), 0)]))
check("factor-qubits", lambda: projector_ket(
    zero, [(PauliOperator.from_str("XX"), 1)]))
check("non-hermitian-pauli", lambda: exact_pauli_expectation(
    t1_decomposition(), PauliOperator.from_str("i:Z")))
dec = t1_decomposition()
iz = PauliOperator.from_str("i:Z")
check("non-real-diagonal", lambda: strong_sim._hermitian_sum(
    dec, [apply_pauli_state(s, iz) for _, s in dec.terms]))
check("non-hermitian-factor", lambda: projector_ket(
    zero, [(PauliOperator.from_str("i:Z"), 1)]))
check("non-real-gauss", lambda: _sum_terms(1, [((0, 1), 1)], False))
xyz = 2 + 4 * 3 + 16 * 1  # the letter code of the block XYZ
check("three-block-chain", lambda: _group_blocks([xyz] * 3))
from tmagic.catalog import catalog_entry
from tmagic.stabilizer import GramPair, gram_entries, pivot_table
s6 = [s for _, s in catalog_entry(6).terms]
a = s6[0]
b = next(s for s in s6 if s.basis != a.basis)
aa = GramPair(a, a, pivot_table(a, a))
check("block-bra-bases", lambda: gram_entries(
    [(aa, [(a, a)]), (GramPair(b, a, pivot_table(b, a)), [(b, a)])]))
check("block-ket-bases", lambda: gram_entries(
    [(aa, [(a, a)]), (GramPair(a, b, pivot_table(a, b)), [(a, b)])]))
check("block-kets", lambda: gram_entries([(aa, [(a, a)]), (aa, [(a, b)])]))
"""
    src = str(Path(tmagic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "debug False"
    got = dict(line.split(" ", 1) for line in lines[1:])
    assert set(got) == {"odd-dvec", "short-bmat", "bmat-diagonal",
                        "negative-exponent", "site-mask", "two-letters",
                        "projector-qubits", "projector-phase",
                        "projector-commute", "projector-sign", "factor-sign",
                        "factor-qubits", "non-hermitian-pauli",
                        "non-real-diagonal", "non-hermitian-factor",
                        "non-real-gauss", "three-block-chain",
                        "block-bra-bases", "block-ket-bases", "block-kets"}
    for label, result in got.items():
        assert result.startswith("ValueError"), (label, result)
    # the value classes' constructor checks, message for message
    assert got["odd-dvec"] == "ValueError dvec entries must be even, got (3,)"
    assert got["short-bmat"] == ("ValueError bmat and dvec need one entry per "
                                 "basis column (1), got 0 and 1")
    assert got["bmat-diagonal"] == ("ValueError bmat must have a zero "
                                    "diagonal, got (1,)")
    assert got["negative-exponent"] == ("ValueError denominator exponent "
                                        "must be non-negative")
    assert got["site-mask"] == "ValueError site mask exceeds qubit count"
    assert got["two-letters"] == ("ValueError each qubit must carry exactly "
                                  "one of I, Z, X, Y")
    assert got["projector-qubits"] == "ValueError factor qubit count mismatch"
    assert got["projector-phase"] == ("ValueError projector factors must be "
                                      "Hermitian (phase +-1)")
    assert got["projector-commute"] == ("ValueError projector factors 1 and "
                                        "2 do not commute")
    assert got["projector-sign"] == ("ValueError projector signs must be +1 "
                                     "or -1")
    assert "sign must be +1 or -1" in got["factor-sign"]
    assert "qubit count" in got["factor-qubits"]
    assert "not Hermitian" in got["non-hermitian-pauli"]
    assert "non-real diagonal" in got["non-real-diagonal"]
    assert "must be Hermitian" in got["non-hermitian-factor"]
    assert "non-real" in got["non-real-gauss"]
    assert "got 3" in got["three-block-chain"]
    assert "other bases" in got["block-bra-bases"]
    assert "other bases" in got["block-ket-bases"]
    assert "another column set" in got["block-kets"]
