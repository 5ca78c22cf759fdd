"""Catalog entries reconstruct their dense targets exactly, in the ring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmagic.blocks import CATALOG_TERM_COUNTS, block_cover
from tmagic.catalog import (MagicDecomposition, block_decomposition,
                            catalog_entry, extend_with_zeros,
                            read_catalog_file, tensor, t1_decomposition,
                            t2_decomposition, t3_decomposition,
                            t6_decomposition, t12_decomposition,
                            write_catalog_file, _CATALOG, _t6_states,
                            _t12_merge_states)
from tmagic.dense import dense_magic_state, dense_magic_state_exact
from tmagic.draws import PCG64Words, RawDraws
from tmagic.pauli import PauliProjector
from tmagic.phase_ring import ExactAmplitude, ONE, ZERO
from tmagic.stabilizer import (StabilizerState, inner_product,
                               random_stabilizer_state)
from tmagic.strong_sim import exact_expectation


def assert_exact_reconstruction(dec: MagicDecomposition, t: int) -> None:
    got = dec.reconstruct_dense_exact()
    want = dense_magic_state_exact(t)
    assert all(x == y for x, y in zip(got, want))


class TestSmallEntries:
    def test_t1(self):
        dec = t1_decomposition()
        assert len(dec) == 2
        assert_exact_reconstruction(dec, 1)
        mags = [c * c.conj() for c, _ in dec.terms]
        assert all(m == ExactAmplitude(1, 0, 0, 0, 2) for m in mags)

    def test_t2(self):
        dec = t2_decomposition()
        assert len(dec) == 2
        assert_exact_reconstruction(dec, 2)
        (c1, s1), (c2, s2) = dec.terms
        assert inner_product(s1, s2).is_zero()

    def test_t3(self):
        dec = t3_decomposition()
        assert len(dec) == 3
        assert_exact_reconstruction(dec, 3)
        # |psi1> = (|011> + i|100>)/sqrt2
        psi1 = dec.terms[0][1].to_dense()
        want = np.zeros(8, dtype=complex)
        want[0b011] = 2 ** -0.5
        want[0b100] = 1j * 2 ** -0.5
        assert np.allclose(psi1, want)


class TestT6:
    def test_term_count_and_reconstruction(self):
        dec = t6_decomposition()
        assert len(dec) == 7
        assert_exact_reconstruction(dec, 6)

    def test_b66_amplitude_pattern(self):
        # uniform magnitude 1/8, phases (-1)^(wt(x)+1)
        b66 = _t6_states()["b66"].to_dense()
        for idx in range(64):
            wt = bin(idx).count("1")
            assert b66[idx] == pytest.approx((-1) ** (wt + 1) / 8)

    def test_states_normalized(self):
        for name, s in _t6_states().items():
            assert inner_product(s, s) == ONE, name


class TestT12:
    def test_term_count(self):
        assert len(t12_decomposition()) == 47

    def test_reconstruction_exact(self):
        assert_exact_reconstruction(t12_decomposition(), 12)

    def test_bell_merge_identities(self):
        states = _t6_states()
        merged_b, merged_eo = _t12_merge_states()
        sqrt2 = np.sqrt(2.0)
        pair_b = (np.kron(states["b60"].to_dense(), states["b66"].to_dense())
                  + np.kron(states["b66"].to_dense(), states["b60"].to_dense()))
        assert np.allclose(pair_b, sqrt2 * merged_b.to_dense(), atol=1e-12)
        pair_eo = (np.kron(states["e6"].to_dense(), states["o6"].to_dense())
                   + np.kron(states["o6"].to_dense(), states["e6"].to_dense()))
        assert np.allclose(pair_eo, sqrt2 * merged_eo.to_dense(), atol=1e-12)

    def test_merged_states_are_single_stabilizer_states(self):
        for merged in _t12_merge_states():
            assert inner_product(merged, merged) == ONE
            v = merged.to_dense()
            nz = np.abs(v) > 1e-12
            assert np.count_nonzero(nz) == 2 ** 11
            assert np.allclose(np.abs(v[nz]), 2 ** -5.5)


class TestComposition:
    def test_tensor_t1_t1(self):
        dec = tensor(t1_decomposition(), t1_decomposition())
        assert len(dec) == 4
        assert_exact_reconstruction(dec, 2)

    def test_tensor_t6_t6_term_count(self):
        assert len(tensor(t6_decomposition(), t6_decomposition())) == 49

    def test_t12_t1_norm_identity(self):
        dec = tensor(t12_decomposition(), t1_decomposition())
        assert len(dec) == 94
        assert exact_expectation(dec, PauliProjector(dec.n, ())).exact_value == ONE

    def test_extend_with_zeros(self):
        dec = extend_with_zeros(t1_decomposition(), 2)
        assert len(dec) == 2 and dec.n == 2
        assert extend_with_zeros(t6_decomposition(), 6).n == 6
        got = extend_with_zeros(t3_decomposition(), 5).reconstruct_dense_exact()
        want = dense_magic_state_exact(3)
        # |T^3> x |00>: amplitude at (x << 2) matches, zero elsewhere
        for idx in range(32):
            if idx % 4 == 0:
                assert got[idx] == want[idx // 4]
            else:
                assert got[idx].is_zero()

    def test_one_basis_tuple_per_column_set(self, tmp_path):
        # gram_entries compares bases by identity first: the terms of one
        # column set, built, tensored, padded or read back, share one tuple
        def shared(dec):
            ids = {}
            for _, s in dec.terms:
                ids.setdefault(s.basis, set()).add(id(s.basis))
            return all(len(v) == 1 for v in ids.values()) and len(ids)
        for k in CATALOG_TERM_COUNTS:
            assert shared(catalog_entry(k))
        assert shared(catalog_entry(12)) == 10
        assert shared(block_decomposition(19))
        assert shared(extend_with_zeros(catalog_entry(6), 8)) == 3
        path = tmp_path / "t12.txt"
        with open(path, "w") as fh:
            write_catalog_file(catalog_entry(12), fh)
        assert shared(read_catalog_file(str(path))) == 10

    def test_extend_rejects_shrinking(self):
        with pytest.raises(ValueError):
            extend_with_zeros(t6_decomposition(), 3)

    def test_norm_identity_via_kernel_only(self):
        for k in (1, 2, 3, 6, 12):
            dec = catalog_entry(k)
            assert exact_expectation(dec, PauliProjector(dec.n, ())).exact_value == ONE


class TestBlockCover:
    def test_greedy_examples(self):
        assert block_cover(12) == [12]
        assert block_cover(24) == [12, 12]
        assert block_cover(7) == [6, 1]
        assert block_cover(14) == [12, 2]
        assert block_cover(23) == [12, 6, 3, 2]

    def test_term_counts(self):
        assert len(block_decomposition(12)) == 47
        assert len(block_decomposition(24)) == 47 * 47
        assert len(block_decomposition(7)) == 14
        assert len(block_decomposition(12, policy=(6,))) == 49

    def test_impossible_cover(self):
        with pytest.raises(ValueError):
            block_cover(7, policy=(6,))

    def test_reconstruction_small(self):
        for t in (4, 5, 7):
            assert_exact_reconstruction(block_decomposition(t), t)


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        for k in (1, 2, 3, 6):
            path = tmp_path / f"t{k}.txt"
            dec = catalog_entry(k)
            with open(path, "w") as fh:
                write_catalog_file(dec, fh, notes=["test export"])
            back = read_catalog_file(str(path))
            assert back.k == dec.k and len(back) == len(dec)
            assert_exact_reconstruction(back, k)

    def test_t12_roundtrip(self, tmp_path):
        path = tmp_path / "t12.txt"
        with open(path, "w") as fh:
            write_catalog_file(t12_decomposition(), fh)
        back = read_catalog_file(str(path))
        assert len(back) == 47
        assert_exact_reconstruction(back, 12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_decomposition_roundtrip(self, tmp_path_factory, data):
        # any decomposition reads back equal to what was written: random
        # states, single points (m = 0) among them, and ring coefficients
        n = data.draw(st.integers(1, 6))
        ints = st.integers(-50, 50)
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            seed = data.draw(st.integers(0, 2 ** 32 - 1))
            state = random_stabilizer_state(
                n, RawDraws(PCG64Words(seed)))
            if data.draw(st.booleans()):
                state = StabilizerState.computational(n, state.shift)
            coeff = ExactAmplitude(*(data.draw(ints) for _ in range(4)),
                                   data.draw(st.integers(0, 12)))
            terms.append((coeff, state))
        dec = MagicDecomposition(n, tuple(terms))
        path = tmp_path_factory.mktemp("roundtrip") / "dec.txt"
        with open(path, "w") as fh:
            write_catalog_file(dec, fh, notes=["random"])
        assert read_catalog_file(str(path)) == dec

    def test_equal_fields_equal_values_and_hashes(self):
        a = catalog_entry(3)
        b = MagicDecomposition(3, tuple(a.terms))
        assert a == b and hash(a) == hash(b) and a is not b
        assert len({a, b, t3_decomposition()}) == 1
        assert a != MagicDecomposition(4, a.terms)
        assert a != MagicDecomposition(3, a.terms[:2])
        assert a != (3, a.terms)
        assert repr(a) == f"MagicDecomposition(k=3, terms={a.terms!r})"

    def test_expected_term_counts_table(self):
        for k, want in CATALOG_TERM_COUNTS.items():
            assert len(catalog_entry(k)) == want

    def test_term_count_table_names_every_built_t_count(self):
        # block_cover accepts the table's sizes without building an entry,
        # so every T-count the catalog builds must be a key of the table
        assert sorted(_CATALOG) == sorted(CATALOG_TERM_COUNTS)
        for k in range(2 * max(CATALOG_TERM_COUNTS) + 1):
            if k not in CATALOG_TERM_COUNTS:
                with pytest.raises(ValueError, match="no catalog entry"):
                    catalog_entry(k)


class TestFileErrors:
    """A malformed catalog file is rejected with its line number."""

    @staticmethod
    def _t3_lines(tmp_path):
        path = tmp_path / "t3.txt"
        with open(path, "w") as fh:
            write_catalog_file(t3_decomposition(), fh, notes=["test export"])
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("entry", ["2", "6"])
    def test_rejects_j_entry_not_zero_or_four(self, tmp_path, entry):
        path, lines = self._t3_lines(tmp_path)
        no = lines.index("J=4,4,4") + 1
        lines[no - 1] = f"J=4,{entry},4"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"line {no}: J= entries must be 0 or 4"):
            read_catalog_file(str(path))

    def test_rejects_too_few_j_values(self, tmp_path):
        path, lines = self._t3_lines(tmp_path)
        no = lines.index("J=4,4,4") + 1
        lines[no - 1] = "J=4,4"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"line {no}: J= holds 2 values, expected 3"):
            read_catalog_file(str(path))

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_t_count_below_one(self, tmp_path, k):
        # k=-1 with no terms once reached the dense check, whose 1 << -1
        # raised outside the reader's ValueError contract
        path = tmp_path / "k.txt"
        path.write_text(f"# no terms\nk={k} terms=0\n")
        with pytest.raises(ValueError, match=rf"line 2: k= must be a T-count "
                                             rf"of at least 1, got {k}$"):
            read_catalog_file(str(path))

    @pytest.mark.parametrize("old, new, bad", [
        ("k=3 terms=3", "k=0_3 terms=3", "0_3"),  # underscore
        ("k=3 terms=3", "k=3 terms=\u0663", "\u0663"),  # Arabic-Indic three
        ("coeff=(1,0,-1,1,3)", "coeff=(1, 0,-1,1,3)", " 0"),  # inner space
    ], ids=["underscore", "non-ascii-digit", "inner-space"])
    def test_rejects_integer_only_int_takes(self, tmp_path, capsys, old, new,
                                            bad):
        # int() read each of these as the exported integer, and verify
        # printed PASS for the file
        from tmagic.cli import main
        path, lines = self._t3_lines(tmp_path)
        no = lines.index(old) + 1
        lines[no - 1] = new
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scope", "decompositions", "--catalog-file",
                  str(path)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"invalid --catalog-file: {path}, line "
                                    f"{no}: {bad!r} is not an integer"]

    @pytest.mark.parametrize("old, new, why", [
        ("coeff=(1,0,-1,1,3)", "coeff=((1,0,-1,1,3))",
         "'(1' is not an integer"),
        ("global=(1,0,0,0,1)", "global=1,0,0,0,1",
         "malformed amplitude '1,0,0,0,1', expected (a,b,c,d,e)"),
    ], ids=["two-pairs", "no-pair"])
    def test_rejects_amplitude_not_in_one_pair_of_parentheses(
            self, tmp_path, capsys, old, new, why):
        # both once read as the exported amplitude, and verify printed PASS
        from tmagic.cli import main
        path, lines = self._t3_lines(tmp_path)
        no = lines.index(old) + 1
        lines[no - 1] = new
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scope", "decompositions", "--catalog-file",
                  str(path)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"invalid --catalog-file: {path}, line "
                                    f"{no}: {why}"]

    def test_rejects_truncated_file(self, tmp_path):
        path, lines = self._t3_lines(tmp_path)
        no = lines.index("J=4,4,4")  # cut after the h= line of the last term
        path.write_text("\n".join(lines[:no]) + "\n")
        with pytest.raises(ValueError, match=rf"line {no}: file ends before J="):
            read_catalog_file(str(path))

    def test_rejects_dependent_columns(self, tmp_path):
        # the first k=2 term on the columns 11, 11: a catalog state's
        # columns are independent, so the G= line is refused
        path = tmp_path / "t2.txt"
        with open(path, "w") as fh:
            write_catalog_file(t2_decomposition(), fh)
        lines = path.read_text().splitlines()
        no = lines.index("G=11") + 1
        lines[no - 2:no + 3] = ["n=2 m=2", "G=11 11", lines[no], "J=0", "D=2,0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"line {no}: G= columns are "
                                             r"dependent: rank 1, expected m=2"):
            read_catalog_file(str(path))
