"""Exact and sampled strong-simulation paths."""

import math

import numpy as np
import pytest

from tmagic import strong_sim
from tmagic.catalog import (block_decomposition, catalog_entry,
                            extend_with_zeros, t1_decomposition,
                            t6_decomposition, t12_decomposition)
from tmagic.dense import (dense_magic_state, dense_magic_state_exact,
                          dense_projector_expect)
from tmagic.gauss import expect_block, expect_single_pauli
from tmagic.pauli import PauliOperator, PauliProjector, random_pauli
from tmagic.phase_ring import ExactAmplitude, ONE, ZERO, canonical, sqrt2_root
from tmagic.stabilizer import apply_pauli_state, inner_product
from tmagic.strong_sim import (exact_expectation, exact_pauli_expectation,
                               sample_count, sampled_expectation)

import reference_kernel


def _proj(s: str, sign: int = 1) -> PauliProjector:
    return PauliProjector.single(PauliOperator.from_str(s), sign)


def _random_projector(n: int, nf: int, rng) -> PauliProjector:
    while True:
        ops = [random_pauli(n, rng) for _ in range(nf)]
        signs = [1 if rng.integers(0, 2) else -1 for _ in range(nf)]
        try:
            return PauliProjector(n, tuple(zip(ops, signs)))
        except ValueError:
            continue


class TestExact:
    def test_t1_z_projector(self):
        assert exact_expectation(t1_decomposition(), _proj("Z")).value == pytest.approx(0.5)

    def test_t1_x_projector(self):
        got = exact_expectation(t1_decomposition(), _proj("X")).value
        assert got == pytest.approx((1 + 2 ** -0.5) / 2)

    def test_t6_all_x_vs_dense(self):
        proj = _proj("XXXXXX")
        got = exact_expectation(t6_decomposition(), proj).value
        want = dense_projector_expect(dense_magic_state(6), proj)
        assert got == pytest.approx(want, abs=1e-12)

    def test_random_multi_factor_projectors_vs_dense(self):
        rng = np.random.default_rng(0)
        dec = t6_decomposition()
        vec = dense_magic_state(6)
        for _ in range(25):
            proj = _random_projector(6, int(rng.integers(1, 4)), rng)
            got = exact_expectation(dec, proj)
            assert got.value == pytest.approx(dense_projector_expect(vec, proj), abs=1e-12)

    def test_sign_pair_sums_to_one_exactly(self):
        rng = np.random.default_rng(1)
        dec = block_decomposition(3)
        for _ in range(30):
            p = random_pauli(3, rng)
            plus = exact_expectation(dec, _proj(str(p), 1))
            minus = exact_expectation(dec, _proj(str(p), -1))
            assert plus.exact_value + minus.exact_value == ONE

    def test_imaginary_part_vanishes_for_all_single_paulis(self):
        # the engine's total is real by construction; the full chi^2 sum,
        # which sums both triangles independently, must be real as well
        for k in (1, 2):
            dec = block_decomposition(k)
            for p in reference_kernel.all_paulis(k):
                proj = _proj(str(p), 1)
                full = reference_kernel.exact_expectation(dec, proj)
                assert full.is_real()
                assert exact_expectation(dec, proj).exact_value == full

    def test_pauli_expectation_matches_gauss_engine(self):
        rng = np.random.default_rng(2)
        dec = t6_decomposition()
        for _ in range(25):
            p = random_pauli(6, rng)
            a = exact_pauli_expectation(dec, p).value
            b = expect_block(6, p).expectation
            assert a == pytest.approx(b, abs=1e-12)

    def test_non_hermitian_pauli_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            exact_pauli_expectation(t1_decomposition(),
                                    PauliOperator.from_str("i:X"))

    def test_non_real_diagonal_rejected(self):
        # past the entry check, the diagonal <phi_j|P|phi_j> of an
        # anti-Hermitian P is imaginary and must not be summed
        dec = t1_decomposition()
        p = PauliOperator.from_str("i:Z")
        kets = [apply_pauli_state(s, p) for _, s in dec.terms]
        with pytest.raises(ValueError, match="non-real diagonal"):
            strong_sim._hermitian_sum(dec, kets)

    def test_t12_values_pinned(self):
        # the ring sum is exact, so no grouping or order of the Gram
        # entries may change these bits
        rng = np.random.default_rng(1212)
        p = PauliOperator.from_str("-1:" + "".join(rng.choice(list("IXY"), size=12)))
        assert str(p) == "-1:IIXYXIXIIYXI"
        res = exact_pauli_expectation(block_decomposition(12), p)
        assert res.exact_value == ExactAmplitude(-1, 0, 0, 0, 6)
        assert res.inner_products_evaluated == 1128
        proj = _random_projector(12, 3, np.random.default_rng(1213))
        assert str(proj) == "+YZXZIZXYYXYI -YYYXXIXIYXXY +ZIIYZZXZYYYZ"
        res = exact_expectation(block_decomposition(12), proj)
        assert res.exact_value == ExactAmplitude(31, 0, 0, 0, 16)
        assert repr(res.value) == "0.12109374999999986"
        assert res.inner_products_evaluated == 1128

    def test_non_commuting_projector_rejected(self):
        with pytest.raises(ValueError):
            PauliProjector(2, ((PauliOperator.from_str("XI"), 1),
                               (PauliOperator.from_str("ZI"), 1)))


class TestHermitianGram:
    """The chi(chi+1)/2 engine against the chi^2 reference loops."""

    @pytest.mark.parametrize("t,n", [(1, 1), (2, 2), (3, 3), (6, 6), (12, 12),
                                     (12, 14)])
    def test_ring_equal_to_reference_loops(self, t, n):
        rng = np.random.default_rng(1000 * t + n)
        dec = extend_with_zeros(block_decomposition(t), n)
        for _ in range(3 if t == 12 else 10):
            p = random_pauli(n, rng)
            assert (exact_pauli_expectation(dec, p).exact_value
                    == reference_kernel.exact_pauli_expectation(dec, p))
            proj = _random_projector(n, int(rng.integers(1, min(3, n) + 1)), rng)
            res = exact_expectation(dec, proj)
            assert res.exact_value == reference_kernel.exact_expectation(dec, proj)
            kept = reference_kernel.kept_terms(dec, proj)
            assert res.inner_products_evaluated == kept * (kept + 1) // 2

    @pytest.mark.parametrize("t,n", [(2, 2), (6, 6), (12, 14)])
    def test_projector_annihilating_every_term(self, t, n):
        zz = PauliOperator.from_str("ZZ" + "I" * (n - 2))
        proj = PauliProjector(n, ((zz, 1), (zz, -1)))
        dec = extend_with_zeros(block_decomposition(t), n)
        res = exact_expectation(dec, proj)
        assert res.exact_value == ZERO == reference_kernel.exact_expectation(dec, proj)
        assert res.inner_products_evaluated == 0

    @pytest.mark.parametrize("t", [1, 2, 3, 6, 12])
    def test_three_engines_ring_equal(self, t):
        # stabilizer rank, Gauss sums and the exact dense oracle agree by
        # ring equality, on phase-free and -1: Paulis
        rng = np.random.default_rng(300 + t)
        dec = block_decomposition(t)
        amps = dense_magic_state_exact(t)
        for i in range(4 if t == 12 else 16):
            q = random_pauli(t, rng)
            p = PauliOperator(t, q.beta, q.gamma, q.delta, 2 * (i % 2))
            want = reference_kernel.dense_pauli_expectation(amps, p)
            assert exact_pauli_expectation(dec, p).exact_value == want, str(p)
            assert expect_single_pauli(t, p).exact == want, str(p)

    def test_t12_gram_matrix_is_hermitian(self):
        dec = t12_decomposition()
        rng = np.random.default_rng(12)
        for _ in range(3):
            p = random_pauli(12, rng)
            kets = [apply_pauli_state(s, p) for _, s in dec.terms]
            for _, bra in dec.terms:
                for ket in kets:
                    assert inner_product(ket, bra) == inner_product(bra, ket).conj()


def _product(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """The Pauli p q, phase included, for commuting p and q (Hermitian)."""
    x, z = p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask
    y = x & z
    omega = (p.omega_exp + q.omega_exp + p.delta.bit_count()
             + q.delta.bit_count() - y.bit_count()
             + 2 * ((p.z_mask & q.x_mask).bit_count() & 1))
    return PauliOperator(p.n, z & ~x, x & ~z, y, omega)


def _factor_lists(n: int, rng) -> list[tuple[tuple[PauliOperator, int], ...]]:
    """Projector factors with 1-3 random factors, a duplicate, a
    contradiction, and a product of two factors."""
    out = [_random_projector(n, nf, rng).factors for nf in (1, 2, 3)]
    p, q = _random_projector(n, 2, rng).factors
    out.append((p, p))
    out.append((p, (p[0], -p[1])))
    out.append((p, q, (_product(p[0], q[0]), -p[1] * q[1])))
    return out


class TestGramEngine:
    """The cached Gram engine against the chi^2 reference loops, which
    take plain inner products with 2^-r ``projector_ket`` kets."""

    @staticmethod
    def _check(dec, rng, paulis=2):
        n = dec.n
        for i in range(paulis):
            q = random_pauli(n, rng)
            p = PauliOperator(n, q.beta, q.gamma, q.delta, 2 * (i % 2))
            assert (exact_pauli_expectation(dec, p).exact_value
                    == reference_kernel.exact_pauli_expectation(dec, p)), str(p)
        for factors in _factor_lists(n, rng):
            proj = PauliProjector(n, factors)
            res = exact_expectation(dec, proj)
            assert res.exact_value == reference_kernel.exact_expectation(dec, proj), str(proj)
            kept = reference_kernel.kept_terms(dec, proj)
            assert res.inner_products_evaluated == kept * (kept + 1) // 2

    @pytest.mark.parametrize("t", [4, 5, 7, 13])
    def test_multi_block_t_counts(self, t):
        self._check(block_decomposition(t), np.random.default_rng(400 + t))

    @pytest.mark.parametrize("t,n", [(3, 5), (7, 9)])
    def test_padded_qubits(self, t, n):
        rng = np.random.default_rng(500 + n)
        dec = extend_with_zeros(block_decomposition(t), n)
        self._check(dec, rng, paulis=4)
        # a Pauli that flips a padding qubit, and one that does not
        for text in ("X" * t + "XI", "Y" * t + "ZI"):
            p = PauliOperator.from_str(text)
            assert (exact_pauli_expectation(dec, p).exact_value
                    == reference_kernel.exact_pauli_expectation(dec, p)), text
        # factors on the padding qubits only
        proj = PauliProjector(n, ((PauliOperator.from_str("I" * t + "XX"), 1),
                                  (PauliOperator.from_str("I" * t + "ZZ"), -1)))
        assert exact_expectation(dec, proj).exact_value == ZERO
        proj = PauliProjector(n, ((PauliOperator.from_str("I" * t + "XX"), 1),))
        want = reference_kernel.exact_expectation(dec, proj)
        assert exact_expectation(dec, proj).exact_value == want

    def test_annihilated_terms_are_not_counted(self):
        dec = block_decomposition(6)
        rng = np.random.default_rng(6)
        counts = set()
        for _ in range(10):
            proj = _random_projector(6, 3, rng)
            kept = reference_kernel.kept_terms(dec, proj)
            res = exact_expectation(dec, proj)
            assert res.exact_value == reference_kernel.exact_expectation(dec, proj)
            assert res.inner_products_evaluated == kept * (kept + 1) // 2
            counts.add(kept)
        assert len(counts) > 1 and min(counts) < len(dec)

    def test_policy_six_49_terms(self):
        dec = block_decomposition(12, (6,))
        assert len(dec) == 49
        self._check(dec, np.random.default_rng(49), paulis=1)

    @staticmethod
    def _read_back(dec, tmp_path):
        import io
        from tmagic.catalog import read_catalog_file, write_catalog_file
        buf = io.StringIO()
        write_catalog_file(dec, buf)
        path = tmp_path / "dec.txt"
        path.write_text(buf.getvalue())
        return read_catalog_file(str(path))

    def test_decomposition_read_from_catalog_file(self, tmp_path):
        dec = extend_with_zeros(self._read_back(catalog_entry(6), tmp_path), 7)
        assert dec.n == 7
        self._check(dec, np.random.default_rng(7))
        self._check(catalog_entry(6), np.random.default_rng(8))

    def test_only_catalog_entries_are_cached(self, monkeypatch, tmp_path):
        monkeypatch.setattr(strong_sim, "_GRAM_PAIRS", {})
        rng = np.random.default_rng(12)
        copy = self._read_back(catalog_entry(12), tmp_path)
        assert copy == catalog_entry(12) and copy is not catalog_entry(12)
        for dec in (copy, extend_with_zeros(catalog_entry(6), 8),
                    block_decomposition(9)):
            exact_pauli_expectation(dec, random_pauli(dec.n, rng))
            exact_expectation(dec, _random_projector(dec.n, 2, rng))
        assert strong_sim._GRAM_PAIRS == {}

    def test_cache_is_bounded_by_the_catalog_blocks(self, monkeypatch):
        monkeypatch.setattr(strong_sim, "_GRAM_PAIRS", {})
        rng = np.random.default_rng(13)
        proj = _random_projector(12, 3, rng)
        cold = exact_expectation(block_decomposition(12), proj).exact_value
        for t in (1, 2, 3, 5, 7, 12, 13, 18):
            dec = block_decomposition(t)
            exact_pauli_expectation(dec, random_pauli(t, rng))
            exact_expectation(dec, _random_projector(t, min(t, 3), rng))
        cache = strong_sim._GRAM_PAIRS
        assert set(cache) == {1, 2, 3, 12}
        # one pair per ordered pair of term classes: c_k^2 for T-count k
        classes = {k: len(strong_sim._classes([s for _, s in catalog_entry(k).terms]))
                   for k in cache}
        assert classes == {1: 1, 2: 2, 3: 3, 12: 27}
        for k, entries in cache.items():
            pairs = [pair for pair in entries if pair is not None]
            forms = [pair for pair in pairs if pair._form is not None]
            assert len(forms) <= len(pairs) <= classes[k] ** 2
        assert exact_expectation(block_decomposition(12), proj).exact_value == cold


class TestIntegerRows:
    """The upper triangle summed as integer numerators over one sqrt2^e
    (``_rotations``), against ring products, on decompositions whose
    coefficients c_l scale(k_l) have unequal denominators."""

    def test_rotations_are_ring_products(self):
        rng = np.random.default_rng(600)
        for _ in range(200):
            x = ExactAmplitude(*(int(v) for v in rng.integers(-9, 10, 4)),
                               int(rng.integers(0, 6)))
            e = x.e + 1 + int(rng.integers(0, 4))
            rot = strong_sim._rotations(x, e)
            for h in (0, 1):
                for p in range(8):
                    assert canonical(*rot[h][p], e) == x * sqrt2_root(h, p)

    @staticmethod
    def _check(dec, rng, paulis=2, projectors=2):
        scales = {(c * s.scale).e for c, s in dec.terms}
        assert len(scales) > 1, scales
        n = dec.n
        for i in range(paulis):
            q = random_pauli(n, rng)
            p = PauliOperator(n, q.beta, q.gamma, q.delta, 2 * (i % 2))
            assert (exact_pauli_expectation(dec, p).exact_value
                    == reference_kernel.exact_pauli_expectation(dec, p)), str(p)
        for i in range(projectors):
            proj = _random_projector(n, 1 + i % 3, rng)
            assert (exact_expectation(dec, proj).exact_value
                    == reference_kernel.exact_expectation(dec, proj)), str(proj)

    def test_tensor_product_t9(self):
        self._check(block_decomposition(9), np.random.default_rng(601),
                    projectors=3)

    def test_read_back_catalog_file(self, tmp_path):
        dec = extend_with_zeros(TestGramEngine._read_back(catalog_entry(12),
                                                          tmp_path), 13)
        self._check(dec, np.random.default_rng(602), paulis=2, projectors=2)

    def test_t3_padded_to_five_qubits(self):
        self._check(extend_with_zeros(block_decomposition(3), 5),
                    np.random.default_rng(603), paulis=6, projectors=6)

    def test_t14(self):
        self._check(block_decomposition(14), np.random.default_rng(604),
                    paulis=2, projectors=2)


class TestSampled:
    def test_sample_count_formula(self):
        assert sample_count(0.1, 0.05) == int(np.ceil(np.log(20) / 0.01))
        assert sample_count(1.0, 0.5) == 1

    def test_sample_count_must_be_finite(self):
        # eps^2 underflows to 0, or 1/p_f overflows to inf
        for eps, p_f in ((1e-200, 0.05), (1e-150, 1e-320)):
            with pytest.raises(ValueError, match="is not finite"):
                sample_count(eps, p_f)
        assert sample_count(1e-100, 0.05) == math.ceil(math.log(20) / 1e-200)

    def test_sample_count_above_the_cap_is_refused(self):
        # refused before the estimator allocates its float64 per sample
        dec = catalog_entry(2)
        proj = _proj("XX")
        for eps, p_f, override in ((1e-5, 1e-300, None), (0.1, 0.05, 10 ** 8 + 1)):
            with pytest.raises(ValueError, match="exceed the cap of 100000000"):
                sampled_expectation(dec, proj, eps, p_f, 0, override)

    @pytest.mark.parametrize("proj, seed, value, se", [
        (_proj("XYZIXZ"), 11, "0.46597482267209916", "0.027603591672801787"),
        (PauliProjector(6, ((PauliOperator.from_str("XXIIZZ"), 1),
                            (PauliOperator.from_str("ZZYYII"), -1))),
         12, "0.24348730611451042", "0.013664240747314068"),
    ])
    def test_t6_estimate_pinned(self, proj, seed, value, se):
        # every draw, overlap and float operation of the estimator is
        # pinned: grouping the kets and looking up each overlap's float
        # must give these bits
        res = sampled_expectation(block_decomposition(6), proj, 0.1, 0.05, seed)
        assert (repr(res.value), repr(res.std_error)) == (value, se)
        assert res.samples_used == 300 and res.inner_products_evaluated == 2100

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            sampled_expectation(block_decomposition(2), _proj("XY"), 0.1, 0.05, -1)

    def test_identity_projector_unbiased(self):
        dec = block_decomposition(2)
        vals = [sampled_expectation(dec, PauliProjector(2, ()), 0.2, 0.2,
                                    seed).value for seed in range(40)]
        mean = float(np.mean(vals))
        sem = float(np.std(vals) / np.sqrt(len(vals)))
        assert abs(mean - 1.0) < 4 * max(sem, 1e-3)

    def test_matches_exact_within_noise(self):
        rng = np.random.default_rng(3)
        dec = t6_decomposition()
        p = random_pauli(6, rng)
        proj = _proj(str(p), 1)
        want = exact_expectation(dec, proj).value
        vals = [sampled_expectation(dec, proj, 0.15, 0.1, seed).value
                for seed in range(40)]
        mean = float(np.mean(vals))
        sem = float(np.std(vals) / np.sqrt(len(vals)))
        assert abs(mean - want) < 4 * max(sem, 1e-3)

    def test_std_error_tracks_spread_of_seeded_estimates(self):
        dec = block_decomposition(2)
        proj = _proj("XY", 1)
        runs = [sampled_expectation(dec, proj, 0.2, 0.2, seed)
                for seed in range(40)]
        spread = float(np.std([r.value for r in runs], ddof=1))
        reported = float(np.mean([r.std_error for r in runs]))
        assert spread / 2 < reported < 2 * spread
        assert sampled_expectation(dec, proj, 0.1, 0.05, 0,
                                   samples_override=1).std_error is None

    def test_consistency_error_shrinks_with_epsilon(self):
        dec = block_decomposition(2)
        p = PauliOperator.from_str("XY")
        proj = _proj(str(p), 1)
        want = exact_expectation(dec, proj).value
        medians = []
        for eps in (0.3, 0.1):
            errs = [abs(sampled_expectation(dec, proj, eps, 0.05, seed).value - want)
                    for seed in range(50)]
            medians.append(float(np.median(errs)))
        assert medians[1] < medians[0]

    def test_seeded_reproducibility(self):
        dec = t6_decomposition()
        proj = _proj("XXYYZZ", 1)
        a = sampled_expectation(dec, proj, 0.3, 0.1, seed=7)
        b = sampled_expectation(dec, proj, 0.3, 0.1, seed=7)
        assert a.value == b.value

    def test_samples_override(self):
        dec = block_decomposition(2)
        res = sampled_expectation(dec, _proj("XX"), 0.1, 0.05, 0,
                                  samples_override=100)
        assert res.samples_used == 100
        assert res.inner_products_evaluated <= 100 * len(dec)


class TestSampledEdgeCases:
    """CLI sampled calls whose stdout and ``[se]`` line are pinned: every
    term annihilated, repeated, contradicting and identity factors, factors
    on padding qubits only, and decompositions that are not catalog
    entries (the 6 + 1 tensor product at t = 7 and the 3 + 2 + 1 cover of
    t = 6), whose pairs are built per call."""

    @pytest.mark.parametrize("t, args, inner_products, terms, value, se", [
        (2, ["--projector", "+ZI,-ZI"], 0, 2, 0.0, "0"),
        (2, ["--projector", "+XX,+XX"], 600, 2, 0.7739746271847505, "0.0326204"),
        (2, ["--projector", "+XX,-XX"], 0, 2, 0.0, "0"),
        (2, ["--projector", "+II"], 600, 2, 1.0601184463531088, "0.0450223"),
        (3, ["--projector", "+IIIXX,-IIIZZ"], 0, 3, 0.0, "0"),
        (3, ["--projector", "+IIIXX"], 900, 3, 0.4900245310429352, "0.0253639"),
        (7, ["--pauli", "XYZIXZY"], 4200, 14, -0.05705669785961509, "0.0536674"),
        (7, ["--projector", "+XXIIZZI,-ZZYYIIX"], 4200, 14, 0.2616644984083153,
         "0.0146237"),
        (6, ["--policy", "3 2 1", "--pauli", "XYZIXZ"], 2700, 9,
         0.12930543520114113, "0.0616487"),
        (6, ["--policy", "3 2 1", "--projector", "+XXIIZZ,-ZZYYII"], 2700, 9,
         0.2583407362304024, "0.0155077"),
    ])
    def test_stdout_and_se_pinned(self, capsys, t, args, inner_products,
                                  terms, value, se):
        import json
        from tmagic.cli import main
        assert main(["expect", "--t", str(t), "--mode", "sampled", *args]) == 0
        out, err = capsys.readouterr()
        operator, text = args[-2:]
        record = {"command": "expect", "t": t, "mode": "sampled", "seed": 0,
                  operator[2:]: text.replace(",", " "), "value": value,
                  "inner_products": inner_products, "samples_used": 300,
                  "terms": terms}
        assert out == json.dumps(record, sort_keys=True) + "\n"
        assert f"[se] {se}" in err.splitlines()


class TestMoreFactorsThanQubits:
    """A projector may have more factors than qubits: repeated, dependent
    and contradicting factors are all one projector's factors."""

    @pytest.mark.parametrize("t, text, want", [
        (1, "+Z,+Z", 0.5),
        (1, "+Z,-Z", 0.0),
        (2, "+ZI,+IZ,+ZZ", 0.25),
        (2, "+ZI,+IZ,-ZZ", 0.0),
        (3, "+XXI,+IXX,+XIX,-ZZZ", 0.3125),
    ])
    def test_exact_and_sampled_match_dense(self, t, text, want):
        proj = PauliProjector(t, tuple(
            (PauliOperator.from_str(f[1:]), 1 if f[0] == "+" else -1)
            for f in text.split(",")))
        dense = dense_projector_expect(dense_magic_state(t), proj)
        assert dense == pytest.approx(want, abs=1e-12)
        dec = block_decomposition(t)
        assert exact_expectation(dec, proj).value == pytest.approx(want, abs=1e-12)
        res = sampled_expectation(dec, proj, 0.05, 0.05, 1)
        if want == 0:
            assert res.value == 0 and res.inner_products_evaluated == 0
        else:
            assert abs(res.value - want) < 4 * res.std_error

    def test_cli_exact(self, capsys):
        import json
        from tmagic.cli import main
        assert main(["expect", "--t", "2", "--mode", "exact",
                     "--projector=+ZI,+IZ,+ZZ"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.25)


class TestRunTask:
    """A task as the CLI runs it: ``block_decomposition``, then
    ``extend_with_zeros`` for padding qubits, then one engine."""

    def test_t12_exact_counter_bound(self):
        p = random_pauli(12, np.random.default_rng(5))
        res = exact_expectation(block_decomposition(12), _proj(str(p), 1))
        assert res.term_count == 47
        assert res.inner_products_evaluated == 47 * 48 // 2

    def test_forced_sample_count(self):
        p = random_pauli(2, np.random.default_rng(6))
        res = sampled_expectation(block_decomposition(2), _proj(str(p), 1),
                                  0.1, 0.05, seed=1, samples_override=100)
        assert res.samples_used == 100

    def test_policy_work_ratio_47_vs_49(self):
        p = random_pauli(12, np.random.default_rng(7))
        proj = _proj(str(p), 1)
        r12 = sampled_expectation(block_decomposition(12, (12,)), proj,
                                  0.1, 0.05, seed=0, samples_override=5)
        r66 = sampled_expectation(block_decomposition(12, (6,)), proj,
                                  0.1, 0.05, seed=0, samples_override=5)
        assert r12.term_count == 47 and r66.term_count == 49
        # kernel inner products per sample scale with the term count
        assert r12.inner_products_evaluated <= 5 * 47
        assert r66.inner_products_evaluated <= 5 * 49

    def test_validation(self):
        dec = block_decomposition(2)
        proj = PauliProjector(2, ())
        with pytest.raises(ValueError, match="cannot extend"):
            extend_with_zeros(block_decomposition(3), 2)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            sample_count(0, 0.05)
        for p_f in (0, 1):
            with pytest.raises(ValueError, match="failure probability"):
                sample_count(0.1, p_f)
        # an override replaces L but not the checks on epsilon and p_f
        with pytest.raises(ValueError, match="epsilon must be positive"):
            sampled_expectation(dec, proj, 0, 0.05, 0, samples_override=10)
        with pytest.raises(ValueError, match="failure probability"):
            sampled_expectation(dec, proj, 0.1, 1.0, 0, samples_override=10)
        with pytest.raises(ValueError, match="sample count must be at least 1"):
            sampled_expectation(dec, proj, 0.1, 0.05, 0, samples_override=0)

    def test_padded_qubits(self):
        # t=2 magic + 2 padding zeros, measure Z on a padded qubit
        proj = PauliProjector.single(PauliOperator.from_str("IIZI"), 1)
        res = exact_expectation(extend_with_zeros(block_decomposition(2), 4),
                                proj)
        assert res.value == pytest.approx(1.0)
