"""Gauss-sum evaluators against the dense oracle, plus structural invariants."""

import ast
from pathlib import Path

import numpy as np
import pytest

from tmagic._gauss_kernels import sample_letters
from tmagic.dense import (dense_magic_state, dense_magic_state_exact,
                          dense_pauli_expect)
from tmagic import gauss
from tmagic.gauss import (WORST_CASE_UNIQUE, _Block3, _group_blocks,
                          count_nonzero_sums, expect_block,
                          expect_single_pauli, rank_census)
from tmagic.pauli import PauliOperator, letters_to_pauli, random_pauli
from tmagic.phase_ring import ExactAmplitude, ONE, ZERO

from reference_kernel import (all_paulis, block_codes,
                              dense_pauli_expectation, gauss_block_terms,
                              gauss_groups, gauss_sum_eval, ring_value)


class TestGaussSumEval:
    def test_cancelling_phase(self):
        # sum_x e^{i pi x} = 0
        assert gauss_sum_eval([[2]], [0], 0).is_zero()

    def test_trivial_phase(self):
        assert gauss_sum_eval([[0]], [0], 0) == ExactAmplitude(2)

    def test_cross_term(self):
        a = [[0, 1], [1, 0]]
        assert gauss_sum_eval(a, [0, 0], 0) == ExactAmplitude(2)

    def test_value_form(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            a = np.zeros((dim, dim), dtype=int)
            for i in range(dim):
                for j in range(i, dim):
                    a[i][j] = a[j][i] = int(rng.integers(0, 4))
            v = [int(x) for x in rng.integers(0, 4, size=dim)]
            out = gauss_sum_eval(a.tolist(), v, int(rng.integers(0, 8)))
            if out.is_zero():
                continue
            mag2 = out * out.conj()
            assert mag2.b == 0 and mag2.e == 0
            assert mag2.a & (mag2.a - 1) == 0  # power of two

    def test_guards(self):
        with pytest.raises(ValueError):
            gauss_sum_eval([[0]] * 25, [0] * 25, 0)
        with pytest.raises(ValueError):
            gauss_sum_eval([[0]], [0], 0, m=3)


def _oracle(k, p):
    return dense_pauli_expect(dense_magic_state(k), p).real


class TestBlockEvaluators:
    def test_k1_examples(self):
        assert expect_block(1, PauliOperator.from_str("I")).expectation == 1
        assert expect_block(1, PauliOperator.from_str("I")).unique_nonzero_sums == 2
        assert expect_block(1, PauliOperator.from_str("Z")).expectation == 0
        got = expect_block(1, PauliOperator.from_str("X")).expectation
        assert got == pytest.approx(2 ** -0.5)

    def test_k2_examples(self):
        assert expect_block(2, PauliOperator.from_str("II")).expectation == 1
        assert expect_block(2, PauliOperator.from_str("XX")).expectation == pytest.approx(0.5)
        assert expect_block(2, PauliOperator.from_str("ZI")).expectation == 0

    def test_k3_examples(self):
        rep = expect_block(3, PauliOperator.from_str("III"))
        assert rep.expectation == 1 and rep.unique_nonzero_sums <= 3
        got = expect_block(3, PauliOperator.from_str("XXX")).expectation
        assert got == pytest.approx(_oracle(3, PauliOperator.from_str("XXX")))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_oracle(self, k):
        vec = dense_magic_state(k)
        for p in all_paulis(k):
            rep = expect_block(k, p)
            assert rep.expectation == pytest.approx(
                dense_pauli_expect(vec, p).real, abs=1e-12), str(p)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 12])
    def test_exact_ring_oracle(self, k):
        # ring equality of the exact value, exhaustive through k = 6
        amps = dense_magic_state_exact(k)
        if k <= 6:
            paulis = list(all_paulis(k))
        else:
            paulis = [letters_to_pauli(row) for row in sample_letters(k, 100, 0)]
        for p in paulis:
            assert expect_block(k, p).exact == dense_pauli_expectation(amps, p), str(p)

    def test_k6_exhaustive_oracle_and_max(self):
        vec = dense_magic_state(6)
        worst = 0
        for p in all_paulis(6):
            rep = expect_block(6, p)
            assert rep.expectation == pytest.approx(
                dense_pauli_expect(vec, p).real, abs=1e-10), str(p)
            worst = max(worst, rep.unique_nonzero_sums)
        assert worst == 7

    def test_k12_sampled_oracle(self):
        vec = dense_magic_state(12)
        rng = np.random.default_rng(1)
        worst = 0
        for _ in range(1500):
            p = random_pauli(12, rng)
            rep = expect_block(12, p)
            assert abs(rep.expectation - dense_pauli_expect(vec, p).real) < 1e-9
            worst = max(worst, rep.unique_nonzero_sums)
        assert worst <= 42

    def test_identity_at_all_sizes(self):
        for k in (1, 2, 3, 6, 12):
            p = PauliOperator(k)
            rep = expect_block(k, p)
            assert rep.exact == ONE

    def test_rejects_non_hermitian_phase(self):
        with pytest.raises(ValueError):
            expect_block(1, PauliOperator.from_str("+i:X"))

    def test_negated_pauli(self):
        p = PauliOperator.from_str("-1:X")
        assert expect_block(1, p).expectation == pytest.approx(-(2 ** -0.5))


class TestStructuralInvariants:
    def test_equal_magnitudes_k1_k2(self):
        for k in (1, 2):
            for p in all_paulis(k):
                mags = {v * v.conj() for _, v, _ in gauss_block_terms(k, p)
                        if not v.is_zero()}
                assert len(mags) <= 1, str(p)

    def test_exactly_one_family_combination(self):
        rng = np.random.default_rng(2)
        for k in (3, 6, 12):
            for _ in range(100):
                p = random_pauli(k, rng)
                fams = {tuple(entry[1] for entry in tag)
                        for tag, _, _ in gauss_block_terms(k, p)}
                assert len(fams) == 1, str(p)

    def test_multiplicity_conservation_full(self):
        # sum of multiplicities equals the fully unreduced tensor count 4^(k/3);
        # at k=12 seeded C-chains book extra weight onto zero-valued terms, so
        # the universally exact statement is the per-nonzero-value one below
        rng = np.random.default_rng(3)
        for k in (3, 6):
            for _ in range(150):
                p = random_pauli(k, rng)
                terms = gauss_block_terms(k, p)
                assert sum(m for _, _, m in terms) == 4 ** (k // 3), str(p)

    def test_multiplicity_conservation_per_value(self):
        # for every nonzero value V: reduced weight on V == unreduced weight
        import itertools
        from collections import defaultdict
        rng = np.random.default_rng(13)
        for k in (3, 6, 12):
            for _ in range(40):
                p = random_pauli(k, rng)
                blocks = [_Block3(code) for code in block_codes(k, p)]
                unred: dict = defaultdict(int)
                # a term stands for 2^e naive-tensor terms: a B term for 2
                per_block = [[(ring_value(v), 1 << e)
                              for (_, _, e, _, v) in b.terms(0)]
                             for b in blocks]
                for combo in itertools.product(*per_block):
                    val, w = combo[0]
                    for v2, w2 in combo[1:]:
                        val, w = val * v2, w * w2
                    if not val.is_zero():
                        unred[val] += w
                red: dict = defaultdict(int)
                for _, v, m in gauss_block_terms(k, p):
                    if not v.is_zero():
                        red[v] += m
                assert dict(red) == dict(unred), str(p)

    def test_reduced_counts_nine_and_fortynine(self):
        # chained A-pairs: 9 sums (3x3 block tuples) collapse to 7 terms;
        # chained A-quads: 49 sums (7x7 pair tuples) collapse to 31
        def per_term_exponents(group, tag):
            es = []
            seed = 0
            for blk, (_, fam, x, y) in zip(group, tag):
                match = [t for t in blk.terms(seed)
                         if t[0] == x and t[1] == y]
                assert len(match) == 1
                es.append(match[0][2])
                seed = (seed + match[0][3]) & 1
            return es

        p6 = PauliOperator.from_str("XYXXYX")
        assert expect_block(6, p6).unique_nonzero_sums == 7
        group = [_Block3(code) for code in block_codes(6, p6)]
        [items] = gauss_groups(6, p6)
        total6 = sum(1 << (lg2 - sum(per_term_exponents(group, tag)))
                     for tag, lg2, _ in items)
        assert total6 == 9

        p12 = PauliOperator.from_str("XYXXYX" * 2)
        assert len(gauss_block_terms(12, p12)) == 31
        group = [_Block3(code) for code in block_codes(12, p12)]
        [items] = gauss_groups(12, p12)
        total12 = 0
        for tag, lg2, _ in items:
            es = per_term_exponents(group, tag)
            total12 += 1 << (lg2 - (1 + es[0] * es[1]) - (1 + es[2] * es[3]))
        assert total12 == 49

    def test_expect_block_sums_the_listed_terms(self):
        # the terms read above are the ones expect_block adds up: its exact
        # value and non-zero count match theirs, for both signs
        def check(k, p, neg):
            terms = gauss_block_terms(k, p)
            total = ZERO
            for _, v, m in terms:
                total = total + v.scale_int(m)
            want = total * ExactAmplitude(1, 0, 0, 0, 2 * k)
            signed = PauliOperator(k, p.beta, p.gamma, p.delta, 2 * neg)
            rep = expect_block(k, signed)
            assert rep.exact == (-want if neg else want), str(signed)
            assert rep.unique_nonzero_sums == sum(
                1 for _, v, _ in terms if not v.is_zero()), str(signed)

        for k in (1, 2, 3, 6):
            for p in all_paulis(k):
                check(k, p, 0)
                check(k, p, 1)
        for i, row in enumerate(sample_letters(12, 3000, 7)):
            check(12, letters_to_pauli(row), i % 2)

    def test_worst_case_42_is_a_six_by_seven_set(self):
        # a B-carrying half (3 x 2 sums) tensored with a chained 7-half
        p = PauliOperator.from_str("XYXXIZ" + "XYXXYX")
        rep = expect_block(12, p)
        assert rep.unique_nonzero_sums == 42
        # groups A, B and the chained pair AA, counted one by one
        groups = _group_blocks(block_codes(12, p))
        assert [[_Block3(c).line for c in g] for g in groups] == [
            ["A"], ["B"], ["A", "A"]]
        assert [sum(1 for _, _, v in g if not v.is_zero())
                for g in gauss_groups(12, p)] == [3, 2, 7]
        assert count_nonzero_sums(12, p) == 42

    def test_count_matches_expect_block(self):
        # the per-group count equals the count over summed product terms,
        # on every Pauli through k = 6 with both signs and 3000 at k = 12
        def check(k, p, neg):
            signed = PauliOperator(k, p.beta, p.gamma, p.delta, 2 * neg)
            assert (count_nonzero_sums(k, signed)
                    == expect_block(k, signed).unique_nonzero_sums), str(signed)

        for k in (1, 2, 3, 6):
            for p in all_paulis(k):
                check(k, p, 0)
                check(k, p, 1)
        for i, row in enumerate(sample_letters(12, 3000, 7)):
            check(12, letters_to_pauli(row), i % 2)

    @pytest.mark.parametrize("k, p", [(4, PauliOperator(4)),
                                      (3, PauliOperator(2)),
                                      (1, PauliOperator.from_str("+i:X"))])
    def test_count_refuses_what_expect_block_refuses(self, k, p):
        with pytest.raises(ValueError):
            expect_block(k, p)
        with pytest.raises(ValueError):
            count_nonzero_sums(k, p)


class TestTripleTable:
    """A block's closed forms are built once per letter triple, not per row."""

    def test_census_builds_at_most_64_blocks(self, monkeypatch):
        built = []

        class Counted(_Block3):
            def __init__(self, code):
                built.append(code)
                super().__init__(code)

        monkeypatch.setattr(gauss, "_Block3", Counted)
        gauss._triple.cache_clear()
        try:
            rank_census(12, "sampled", samples=2000, seed=0)
        finally:
            gauss._triple.cache_clear()
        assert 0 < len(built) <= 64
        assert len(set(built)) == len(built)

    def test_only_the_cached_builder_builds_blocks(self):
        # every _Block3(...) call in src sits in gauss._triple, behind cache
        src = Path(gauss.__file__).resolve().parent
        found = []

        def visit(node, fn, path):
            for child in ast.iter_child_nodes(node):
                func = getattr(child, "func", None)
                if isinstance(child, ast.Call) and "_Block3" in (
                        getattr(func, "id", None), getattr(func, "attr", None)):
                    found.append((path.stem, fn))
                inner = isinstance(child, (ast.FunctionDef, ast.Lambda))
                visit(child, child if inner else fn, path)

        for path in sorted(src.glob("*.py")):
            visit(ast.parse(path.read_text(), str(path)), None, path)
        assert found
        for module, fn in found:
            assert module == "gauss" and isinstance(fn, ast.FunctionDef) \
                and fn.name == "_triple", (module, getattr(fn, "name", fn))
            assert [d.id for d in fn.decorator_list] == ["cache"]


class TestMultiBlock:
    def test_t13_identity(self):
        p = PauliOperator(13)
        rep = expect_single_pauli(13, p)
        assert rep.expectation == 1

    def test_t14_random_vs_blockwise_oracle(self):
        rng = np.random.default_rng(4)
        v12 = dense_magic_state(12)
        v2 = dense_magic_state(2)
        for _ in range(60):
            p = random_pauli(14, rng)
            rep = expect_single_pauli(14, p)
            p12 = PauliOperator(12, p.beta & 0xFFF, p.gamma & 0xFFF, p.delta & 0xFFF)
            p2 = PauliOperator(2, p.beta >> 12, p.gamma >> 12, p.delta >> 12)
            want = (dense_pauli_expect(v12, p12) * dense_pauli_expect(v2, p2)).real
            assert abs(rep.expectation - want) < 1e-9

    def test_unique_counts_multiply(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = random_pauli(14, rng)
            rep = expect_single_pauli(14, p)
            p12 = PauliOperator(12, p.beta & 0xFFF, p.gamma & 0xFFF, p.delta & 0xFFF)
            p2 = PauliOperator(2, p.beta >> 12, p.gamma >> 12, p.delta >> 12)
            want = (expect_block(12, p12).unique_nonzero_sums
                    * expect_block(2, p2).unique_nonzero_sums)
            assert rep.unique_nonzero_sums == want

    def test_non_hermitian_rejected_before_any_block(self, monkeypatch):
        import tmagic.gauss
        calls = []
        block = tmagic.gauss.expect_block
        monkeypatch.setattr(tmagic.gauss, "expect_block",
                            lambda *args: calls.append(args) or block(*args))
        with pytest.raises(ValueError, match="Hermitian"):
            expect_single_pauli(14, PauliOperator.from_str("i:XYZXYZXYZXYZXY"))
        assert calls == []

    def test_t24_worst_case_bound(self):
        assert WORST_CASE_UNIQUE[12] ** 2 == 1764  # tensor bound at t=24


class TestCensus:
    def test_exhaustive_maxima(self):
        for k, want in ((1, 2), (2, 2), (3, 3)):
            mx, hist = rank_census(k, "exhaustive")
            assert mx == want
            assert sum(hist.values()) == 4 ** k

    def test_k6_exhaustive(self):
        mx, hist = rank_census(6, "exhaustive")
        assert mx == 7
        assert sum(hist.values()) == 4096

    def test_sampled_k12(self):
        mx, hist = rank_census(12, "sampled", samples=20_000, seed=0)
        assert mx <= 42
        assert 42 in hist  # worst case attained
        # the whole histogram, so a faster evaluator must keep every count
        assert hist == {0: 12611, 1: 2, 2: 109, 3: 42, 4: 592, 6: 287,
                        7: 41, 8: 1505, 9: 35, 12: 1009, 14: 177, 15: 28,
                        16: 1419, 18: 190, 21: 31, 24: 1133, 28: 310,
                        30: 33, 31: 25, 36: 289, 42: 132}

    def test_exhaustive_rejected_for_k12(self):
        with pytest.raises(ValueError):
            rank_census(12, "exhaustive")

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_count_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="--samples must be at least 1"):
            rank_census(12, "sampled", samples=samples)

    def test_exhaustive_histograms(self):
        # the full histograms of every exhaustive census, not just the maxima
        assert rank_census(1, "exhaustive") == (2, {2: 4})
        assert rank_census(2, "exhaustive") == (2, {0: 2, 1: 4, 2: 10})
        assert rank_census(3, "exhaustive") == (3, {0: 14, 1: 8, 2: 30, 3: 12})
        assert rank_census(6, "exhaustive") == (
            7, {0: 1596, 1: 64, 2: 544, 3: 192, 4: 1028, 6: 528, 7: 144})

    def test_census_never_sums_a_product_term(self, monkeypatch):
        # the census counts from the chained groups: it neither reaches
        # expect_block nor adds or multiplies two ring values
        def refuse(*args):
            raise AssertionError("census did ring arithmetic on a Gauss sum")

        monkeypatch.setattr(gauss, "expect_block", refuse)
        monkeypatch.setattr(ExactAmplitude, "__add__", refuse)
        monkeypatch.setattr(ExactAmplitude, "__mul__", refuse)
        assert rank_census(6, "exhaustive") == (
            7, {0: 1596, 1: 64, 2: 544, 3: 192, 4: 1028, 6: 528, 7: 144})
        mx, hist = rank_census(12, "sampled", samples=500, seed=0)
        assert mx <= 42 and sum(hist.values()) == 500

    def test_sample_letters_deterministic(self):
        a = sample_letters(12, 100, 5)
        b = sample_letters(12, 100, 5)
        assert np.array_equal(a, b)
