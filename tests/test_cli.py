"""CLI behaviour: values, formats, and byte-level determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tmagic
from tmagic.cli import main

_ENV = dict(os.environ, PYTHONPATH=str(Path(tmagic.__file__).resolve().parent.parent))


def run_cli(args, check=True):
    proc = subprocess.run([sys.executable, "-m", "tmagic.cli", *args],
                          capture_output=True, text=True, env=_ENV)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {args}\n{proc.stderr}")
    return proc


def assert_rejected(args, message):
    """The CLI exits with status 2 and ``message`` as its only stderr line."""
    proc = run_cli(args, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [message]


class TestExpect:
    def test_gauss_single_qubit(self, capsys):
        main(["expect", "--t", "1", "--pauli", "X", "--mode", "gauss"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == pytest.approx(0.7071067811865476)

    def test_gauss_identity(self, capsys):
        main(["expect", "--t", "6", "--pauli", "IIIIII", "--mode", "gauss"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == 1.0

    def test_modes_agree_on_seeded_random_pauli(self, capsys):
        # both modes print the float of the same ring value, byte for byte;
        # gauss mode once printed a product of block floats, which reads
        # -0.0 for a negated zero and rounds apart at t = 13
        import numpy as np
        from tmagic.pauli import random_pauli
        rng = np.random.default_rng(7)
        cases = [(t, str(random_pauli(t, rng))) for t in (12, 14)]
        for t, p in cases + [(13, "XIIIIIYIXYIIX")]:
            for sign in ("", "-1:"):
                values = []
                for mode in ("exact", "gauss"):
                    main(["expect", "--t", str(t), f"--pauli={sign}{p}",
                          "--mode", mode])
                    out = capsys.readouterr().out
                    values.append(out[out.index('"value": '):])
                assert values[0] == values[1], (t, sign + p)

    def test_projector_mode(self, capsys):
        main(["expect", "--t", "2", "--projector", "+ZI,-IZ", "--mode", "exact"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == pytest.approx(0.25)

    def test_sampled_standard_error_goes_to_stderr_only(self):
        proc = run_cli(["expect", "--t", "2", "--pauli", "XY", "--mode",
                        "sampled", "--samples", "20", "--seed", "9"])
        assert proc.stdout == (
            '{"command": "expect", "inner_products": 40, "mode": "sampled", '
            '"pauli": "XY", "samples_used": 20, "seed": 9, "t": 2, '
            '"terms": 2, "value": 0.28786796564403505}\n')
        se = [line for line in proc.stderr.splitlines()
              if line.startswith("[se] ")]
        assert len(se) == 1
        assert float(se[0].split()[1]) > 0

    @pytest.mark.parametrize("seed,value,se", [
        (2**32 - 1, "0.44343145750507507", "0.239565"),
        (2**32, "0.4234314575050755", "0.212538"),
        (2**64 + 1, "0.6428427124746181", "0.303384"),
        (2**100, "0.2868629150101518", "0.163882"),
    ])
    def test_sampled_multi_word_seed_pinned(self, seed, value, se):
        """Seeds of one to four 32-bit words, each sample's seed words
        followed by its index: the per-sample streams derive from
        SeedSequence([seed, a]) whatever the seed's size."""
        proc = run_cli(["expect", "--t", "2", "--mode", "sampled", "--pauli",
                        "XY", "--samples", "25", "--seed", str(seed)])
        assert proc.stdout == (
            '{"command": "expect", "inner_products": 50, "mode": "sampled", '
            f'"pauli": "XY", "samples_used": 25, "seed": {seed}, "t": 2, '
            f'"terms": 2, "value": {value}}}\n')
        assert [line for line in proc.stderr.splitlines()
                if line.startswith("[se] ")] == [f"[se] {se}"]

    def test_padded_pauli(self, capsys):
        main(["expect", "--t", "1", "--pauli", "XZ", "--mode", "gauss"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == pytest.approx(0.7071067811865476)
        main(["expect", "--t", "1", "--pauli", "XX", "--mode", "gauss"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == 0.0

    @pytest.mark.parametrize("mode", ["gauss", "exact", "sampled"])
    def test_x_on_padding_qubit_prints_zero_not_minus_zero(self, capsys, mode):
        main(["expect", "--t", "1", "--pauli=-1:IX", "--mode", mode,
              "--samples", "20"])
        out = capsys.readouterr().out
        assert '"value": 0.0}' in out and "-0.0" not in out
        if mode == "sampled":
            return
        # negated zeros of the T-count itself, on one block and on two
        for pauli in ("-1:IIZ", "-1:XXXXXXXXXXXXZ"):
            main(["expect", "--t", str(len(pauli) - 3), f"--pauli={pauli}",
                  "--mode", mode])
            out = capsys.readouterr().out
            assert '"value": 0.0}' in out and "-0.0" not in out, pauli

    def test_equals_form_takes_a_leading_minus(self, capsys):
        # argparse reads "--pauli -1:XY" as two options; the "=" forms
        # shown in the help run
        main(["expect", "--t", "2", "--pauli=-1:XY", "--mode", "gauss"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["pauli"] == "-1:XY" and rec["value"] == pytest.approx(-0.5)
        main(["expect", "--t", "2", "--projector=-ZZ,+XX", "--mode", "exact"])
        rec = json.loads(capsys.readouterr().out)
        assert rec["projector"] == "-ZZ +XX"
        assert rec["value"] == pytest.approx(0.5)

    @pytest.mark.parametrize("args, engine", [
        (["--t", "12", "--pauli", "XYZIXYZIXYZI", "--mode", "exact"],
         "exact_pauli_expectation"),
        (["--t", "6", "--projector", "+ZZIIII,-IIXXII", "--mode", "exact"],
         "exact_expectation"),
        (["--t", "47", "--pauli", "XYZ" * 15 + "ZY", "--mode", "gauss"],
         "expect_single_pauli"),
    ], ids=["exact-pauli", "exact-projector", "gauss"])
    def test_calls_its_engine_through_the_module_global(self, monkeypatch,
                                                        capsys, args, engine):
        # the engines are imported on first call, yet every command still
        # looks them up as tmagic.cli globals, which perfbench's spans rebind
        import tmagic.cli
        main(["expect", *args])
        want = capsys.readouterr().out
        names = ("block_decomposition", "exact_pauli_expectation",
                 "exact_expectation", "expect_single_pauli")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*a, fn=getattr(tmagic.cli, name), name=name):
                calls[name] += 1
                return fn(*a)
            monkeypatch.setattr(tmagic.cli, name, counted)
        main(["expect", *args])
        assert capsys.readouterr().out == want
        exact = engine != "expect_single_pauli"
        assert calls == dict.fromkeys(names, 0) | {
            "block_decomposition": int(exact), engine: 1}

    def test_exact_t18_projector_pinned(self, capsys):
        # a tensor-product decomposition (12 + 6), whose Gram pairs are
        # built per call and not cached
        main(["expect", "--t", "18", "--mode", "exact",
              "--projector=+XYZXYZIZXYZXYZXYZX,-IIIIIIIIIIIIIIIIYY"])
        out = capsys.readouterr().out
        assert '"inner_products": 27730' in out
        assert '"value": 0.12499999999999994' in out


class TestExpectRejectsBadInput:
    """Bad expect arguments end in a one-line message, not a traceback."""

    @staticmethod
    def _rejected(args, message):
        assert_rejected(["expect", *args], message)

    @pytest.mark.parametrize("mode", ["gauss", "exact", "sampled"])
    def test_non_hermitian_pauli(self, mode):
        self._rejected(["--t", "1", "--pauli", "i:X", "--mode", mode],
                       "--pauli 'i:X' is not Hermitian: its phase must be +1 or -1")

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_zero_t_count(self, mode):
        self._rejected(["--t", "0", "--pauli", "X", "--mode", mode],
                       "--t must be a T-count of at least 1, got 0")

    def test_zero_t_count_projector(self):
        self._rejected(["--t", "0", "--projector", "+Z", "--mode", "exact"],
                       "--t must be a T-count of at least 1, got 0")

    def test_unparsable_pauli_letter(self):
        self._rejected(["--t", "2", "--pauli", "XQ"],
                       "invalid --pauli 'XQ': invalid Pauli letter 'Q' at position 1")

    def test_unparsable_projector_letter(self):
        self._rejected(["--t", "1", "--projector", "+Q", "--mode", "exact"],
                       "invalid --projector '+Q': factor 1 '+Q': invalid Pauli "
                       "letter 'Q' at position 1")

    # each message names the factor by its 1-based position, and a bad
    # character by its position in the factor as typed, sign included
    @pytest.mark.parametrize("projector, message", [
        ("+ZZ,+XQ", "factor 2 '+XQ': invalid Pauli letter 'Q' at position 2"),
        ("++XX", "factor 1 '++XX': invalid Pauli letter '+' at position 1"),
        ("+ZZ,-j:XX", "factor 2 '-j:XX': unknown phase token 'j' at position 1"),
        ("+ZZ,-1:XQ", "factor 2 '-1:XQ': invalid Pauli letter 'Q' at position 4"),
        ("+ZZ,-i:XX", "factor 2 '-i:XX' is not Hermitian: its phase must be "
                      "+1 or -1"),
        ("+ZZ,+XXX", "factor 2 '+XXX' acts on 3 qubits, expected 2"),
    ])
    def test_bad_projector_factor_is_named(self, projector, message):
        self._rejected(["--t", "2", f"--projector={projector}", "--mode", "exact"],
                       f"invalid --projector {projector!r}: {message}")

    def test_unparsable_phase_prefixed_pauli_letter(self):
        # the position counts the phase token too
        self._rejected(["--t", "2", "--pauli=-1:XQ"],
                       "invalid --pauli '-1:XQ': invalid Pauli letter 'Q' at "
                       "position 4")

    @pytest.mark.parametrize("projector, position", [
        ("+ZZ,,+XX", 2), ("+ZZ,", 2), ("+", 1), (",+ZZ", 1), ("+ZZ,-XX,-", 3),
        ("+ZZ, - ,+XX", 2), ("+ZZ,1:", 2),
    ])
    def test_empty_projector_factor(self, projector, position):
        self._rejected(["--t", "2", f"--projector={projector}", "--mode", "exact"],
                       f"invalid --projector {projector!r}: factor {position} "
                       "is empty")

    def test_non_hermitian_projector_factor(self):
        self._rejected(["--t", "1", "--projector", "i:Z", "--mode", "exact"],
                       "invalid --projector 'i:Z': factor 1 'i:Z' is not "
                       "Hermitian: its phase must be +1 or -1")

    def test_non_commuting_projector_factors(self):
        self._rejected(["--t", "2", "--projector", "+XZ,+ZZ", "--mode", "exact"],
                       "invalid --projector '+XZ,+ZZ': projector factors 1 and 2 "
                       "do not commute")

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_pauli_and_projector_together(self, mode):
        # the two are one argparse exclusive group: usage, not a silent drop
        proc = run_cli(["expect", "--t", "2", "--mode", mode, "--pauli", "XX",
                        "--projector", "+ZZ"], check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert lines[0].startswith("usage: tmagic expect")
        assert lines[-1] == ("tmagic expect: error: argument --projector: "
                             "not allowed with argument --pauli")

    def test_neither_pauli_nor_projector(self):
        self._rejected(["--t", "2", "--mode", "exact"],
                       "need --pauli or --projector")

    def test_sampled_zero_epsilon(self):
        self._rejected(["--t", "2", "--pauli", "XY", "--mode", "sampled",
                        "--epsilon", "0"], "--epsilon must be positive, got 0.0")

    def test_sampled_zero_samples(self):
        self._rejected(["--t", "2", "--pauli", "XY", "--mode", "sampled",
                        "--samples", "0"], "--samples must be at least 1, got 0")

    # L = ceil(eps^-2 ln(1/pf)) = 6.9e12 would allocate 50 TiB
    @pytest.mark.parametrize("args, message", [
        (["--pf", "1e-300", "--epsilon", "1e-5"],
         "--epsilon 1e-05 and --pf 1e-300 need 6907755278983 samples, above "
         "the cap of 100000000"),
        (["--epsilon", "1e-4"],
         "--epsilon 0.0001 and --pf 0.05 need 299573228 samples, above the "
         "cap of 100000000"),
        (["--samples", "100000001"],
         "--samples 100000001 exceeds the cap of 100000000 samples"),
        (["--samples", "100000001", "--epsilon", "0.5"],
         "--samples 100000001 exceeds the cap of 100000000 samples"),
    ])
    def test_sampled_sample_count_above_the_cap(self, args, message):
        self._rejected(["--t", "2", "--pauli", "XX", "--mode", "sampled", *args],
                       message)

    def test_sampled_samples_below_the_cap_override_a_large_l(self, capsys):
        # --samples replaces L, so only its own count meets the cap
        assert main(["expect", "--t", "2", "--pauli", "XX", "--mode", "sampled",
                     "--pf", "1e-300", "--epsilon", "1e-5", "--samples", "4"]) == 0
        assert '"samples_used": 4' in capsys.readouterr().out

    def test_sampled_failure_probability_outside_unit_interval(self):
        self._rejected(["--t", "2", "--projector", "+XY", "--mode", "sampled",
                        "--pf", "1"], "--pf must lie in (0, 1), got 1.0")

    # epsilon^2 underflows to 0, or 1/pf overflows to inf: L is not finite
    @pytest.mark.parametrize("args, eps, pf", [
        (["--epsilon", "1e-200"], "1e-200", "0.05"),
        (["--pf", "1e-320", "--epsilon", "1e-150"], "1e-150", "1e-320"),
        (["--epsilon", "1e-200", "--samples", "3"], "1e-200", "0.05"),
    ])
    def test_sampled_non_finite_sample_count(self, args, eps, pf):
        self._rejected(["--t", "2", "--pauli", "XY", "--mode", "sampled", *args],
                       f"invalid --epsilon/--pf: sample count for epsilon {eps} "
                       f"and failure probability {pf} is not finite")

    @pytest.mark.parametrize("mode", ["gauss", "exact", "sampled"])
    def test_policy_size_outside_catalog(self, mode):
        self._rejected(["--t", "2", "--pauli", "XY", "--policy", "5", "--mode", mode],
                       "invalid --policy '5': policy block size 5 not in catalog")

    def test_policy_size_zero(self):
        self._rejected(["--t", "2", "--pauli", "XY", "--policy", "0"],
                       "invalid --policy '0': policy block size 0 not in catalog")

    @pytest.mark.parametrize("policy, sizes", [("", "[]"), ("12 6", "[12, 6]")])
    def test_policy_cannot_cover_t(self, policy, sizes):
        self._rejected(["--t", "2", "--pauli", "XY", "--policy", policy],
                       f"invalid --policy {policy!r}: policy {sizes} cannot cover t=2")

    @pytest.mark.parametrize("policy, position", [
        ("12,,6", 2), ("12,", 2), (",12", 1), ("12 6,,3", 3), ("12, ,6", 2),
    ])
    def test_policy_empty_item(self, policy, position):
        self._rejected(["--t", "12", "--pauli", "X" * 12, "--policy", policy],
                       f"invalid --policy {policy!r}: item {position} is empty")

    def test_policy_item_not_an_integer(self):
        self._rejected(["--t", "12", "--pauli", "X" * 12, "--policy", "12 x"],
                       "invalid --policy '12 x': item 2 'x' is not an integer")

    def test_policy_separators(self, capsys):
        outs = set()
        for policy in ("12 6", "12,6", "12 , 6", " 12  6 "):
            assert main(["expect", "--t", "18", "--pauli", "X" * 18,
                         "--policy", policy]) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1


class TestCensus:
    def test_exhaustive_k3(self, capsys):
        main(["census", "--k", "3", "--mode", "exhaustive"])
        out = capsys.readouterr().out
        assert '"max_unique": 3' in out
        assert "unique_nonzero_sums" in out

    def test_rejects_exhaustive_k12(self):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--k", "12", "--mode", "exhaustive"])
        assert exc.value.code == 2

    def test_rejects_k_outside_the_block_sizes(self):
        assert_rejected(["census", "--k", "5"],
                        "census supports block sizes (1, 2, 3, 6, 12)")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_rejects_sampled_count_below_one(self, samples):
        assert_rejected(["census", "--k", "12", "--mode", "sampled",
                         "--samples", samples],
                        f"--samples must be at least 1, got {samples}")


class TestBench:
    @pytest.mark.parametrize("mode, engine", [
        ("exact", "exact_pauli_expectation"),
        ("gauss", "expect_single_pauli"),
    ], ids=["exact", "gauss"])
    def test_times_the_pauli_engine(self, monkeypatch, capsys, mode, engine):
        # the engine that expect --pauli runs in the same mode, not the
        # one-factor projector's
        import tmagic.cli
        names = ("exact_pauli_expectation", "exact_expectation",
                 "expect_single_pauli")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, fn=getattr(tmagic.cli, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(tmagic.cli, name, counted)
        main(["bench", "--mode", mode, "--t", "6", "--reps", "3"])
        assert calls == dict.fromkeys(names, 0) | {engine: 3}

    def test_rejects_sampled_count_below_one(self):
        assert_rejected(["bench", "--mode", "sampled", "--t", "2",
                         "--samples", "0"], "--samples must be at least 1, got 0")

    @pytest.mark.parametrize("args, eps, pf", [
        (["--epsilon", "1e-200"], "1e-200", "0.05"),
        (["--pf", "1e-320", "--epsilon", "1e-150"], "1e-150", "1e-320"),
    ])
    def test_rejects_non_finite_sample_count(self, args, eps, pf):
        assert_rejected(["bench", "--mode", "sampled", "--t", "2", *args],
                        f"invalid --epsilon/--pf: sample count for epsilon {eps} "
                        f"and failure probability {pf} is not finite")

    def test_rejects_policy_outside_catalog(self):
        assert_rejected(["bench", "--mode", "exact", "--t", "2", "--policy", "5"],
                        "invalid --policy '5': policy block size 5 not in catalog")

    @pytest.mark.parametrize("mode", ["exact", "gauss"])
    def test_rejects_zero_t_count(self, mode):
        assert_rejected(["bench", "--mode", mode, "--t", "0"],
                        "--t must be a T-count of at least 1, got 0")

    def test_rejects_negative_t_count(self):
        assert_rejected(["bench", "--mode", "exact", "--t", "6 -1"],
                        "--t must be a T-count of at least 1, got -1")

    def test_rejects_unparsable_t(self):
        assert_rejected(["bench", "--mode", "exact", "--t", "6 x"],
                        "invalid --t '6 x': item 2 'x' is not an integer")

    def test_rejects_empty_t_item(self):
        assert_rejected(["bench", "--mode", "exact", "--t", "6,,12"],
                        "invalid --t '6,,12': item 2 is empty")

    def test_rejects_sample_count_above_the_cap(self):
        assert_rejected(["bench", "--mode", "sampled", "--t", "2",
                         "--samples", "100000001"],
                        "--samples 100000001 exceeds the cap of 100000000 samples")

    def test_rejects_empty_t(self):
        assert_rejected(["bench", "--mode", "exact", "--t", ""],
                        "--t must list at least one T-count")

    def test_rejects_repeated_t_count(self):
        assert_rejected(["bench", "--mode", "gauss", "--t", "6 6 12"],
                        "--t lists the T-count 6 twice")

    def test_single_t_count_fits_no_exponent(self):
        proc = run_cli(["bench", "--mode", "gauss", "--t", "12"])
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        assert rec["fitted_exponent"] is None
        assert '"fitted_exponent": null' in proc.stdout
        assert "RankWarning" not in proc.stderr

    def test_six_block_exponent(self, capsys):
        main(["bench", "--mode", "gauss", "--t", "6 12 18", "--policy", "6",
              "--reps", "3"])
        out = capsys.readouterr().out
        rec = json.loads(out.strip().splitlines()[-1])
        import numpy as np
        assert rec["fitted_exponent"] == pytest.approx(np.log2(7) / 6, abs=1e-3)


class TestVerify:
    def test_scope_decompositions(self, capsys):
        rc = main(["verify", "--scope", "decompositions"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5

    def test_rejects_missing_catalog_file(self, tmp_path):
        path = tmp_path / "absent.txt"
        assert_rejected(["verify", "--scope", "decompositions",
                         "--catalog-file", str(path)],
                        f"cannot read --catalog-file {str(path)!r}: "
                        "No such file or directory")

    def test_rejects_malformed_catalog_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("k=1 terms=1\ncoeff=(1,0,0,0,0)\nn=1 m=0\nG=\nh=2\n")
        assert_rejected(["verify", "--scope", "decompositions",
                         "--catalog-file", str(path)],
                        f"invalid --catalog-file: {path}, line 5: "
                        "invalid bit character '2'")

    @staticmethod
    def _write(path, dec, k=None):
        """dec's catalog file, with its header's k replaced by ``k``."""
        import io
        from tmagic.catalog import write_catalog_file
        buf = io.StringIO()
        write_catalog_file(dec, buf)
        text = buf.getvalue()
        if k is not None:
            text = text.replace(f"k={dec.k} ", f"k={k} ", 1)
        path.write_text(text)
        return text.splitlines()

    @staticmethod
    def _zero_t():
        """The k=1 decomposition moved to |0>|T>: its amplitudes are the
        first two of the four, so comparing only those read it as |T>."""
        from tmagic.catalog import MagicDecomposition, catalog_entry
        from tmagic.stabilizer import StabilizerState
        return MagicDecomposition(1, tuple(
            (c, StabilizerState(2, tuple(g << 1 for g in s.basis),
                                s.shift << 1, s.bmat, s.dvec, s.c, s.scale))
            for c, s in catalog_entry(1).terms))

    def test_rejects_terms_on_more_qubits_than_k(self, tmp_path):
        # a k=1 file whose terms act on 2 qubits, and the same with an
        # extra term 5 |11>, once passed: only the first two amplitudes
        # were compared
        from tmagic.catalog import MagicDecomposition
        from tmagic.phase_ring import ExactAmplitude
        from tmagic.stabilizer import StabilizerState
        padded = self._zero_t()
        extra = MagicDecomposition(1, padded.terms + (
            (ExactAmplitude(5), StabilizerState.computational(2, 0b11)),))
        for dec in (padded, extra):
            path = tmp_path / "padded.txt"
            lines = self._write(path, dec)
            assert lines.index("n=2 m=0") == 2
            assert_rejected(["verify", "--scope", "decompositions",
                             "--catalog-file", str(path)],
                            f"invalid --catalog-file: {path}, line 3: term "
                            "acts on n=2 qubits, expected the file's k=1")

    def test_rejects_terms_of_different_n(self, tmp_path):
        from tmagic.catalog import MagicDecomposition, catalog_entry
        from tmagic.stabilizer import StabilizerState
        (c0, s0), (c1, s1) = catalog_entry(2).terms
        dec = MagicDecomposition(2, ((c0, s0), (c1, StabilizerState(
            3, s1.basis, s1.shift, s1.bmat, s1.dvec, s1.c, s1.scale))))
        path = tmp_path / "mixed.txt"
        lines = self._write(path, dec)
        no = lines.index("n=3 m=1") + 1
        assert_rejected(["verify", "--scope", "decompositions",
                         "--catalog-file", str(path)],
                        f"invalid --catalog-file: {path}, line {no}: term "
                        "acts on n=3 qubits, expected the file's k=2")

    def test_rejects_dependent_catalog_columns(self, tmp_path):
        # this file once ran, printing FAIL catalog-file-k2 without naming
        # the line at fault
        from tmagic.catalog import catalog_entry
        path = tmp_path / "t2.txt"
        lines = self._write(path, catalog_entry(2))
        no = lines.index("G=11") + 1
        lines[no - 2:no + 3] = ["n=2 m=2", "G=11 11", lines[no], "J=0", "D=2,0"]
        path.write_text("\n".join(lines) + "\n")
        assert_rejected(["verify", "--scope", "decompositions",
                         "--catalog-file", str(path)],
                        f"invalid --catalog-file: {path}, line {no}: G= "
                        "columns are dependent: rank 1, expected m=2")

    def test_rejects_catalog_above_dense_cap(self, tmp_path):
        # a k=15 file once ended in to_dense_exact's ValueError traceback
        from tmagic.catalog import block_decomposition
        path = tmp_path / "t15.txt"
        self._write(path, block_decomposition(15))
        assert_rejected(["verify", "--scope", "decompositions",
                         "--catalog-file", str(path)],
                        f"--catalog-file {str(path)!r} holds k=15; verify "
                        "checks at most k=14 against the dense oracle")

    def test_catalog_check_compares_every_amplitude(self, capsys):
        # a decomposition on more qubits than its k, past the reader: the
        # check fails rather than comparing the first 2^k amplitudes
        from tmagic.catalog import catalog_entry
        from tmagic.cli import _verify_decompositions
        results = {}
        for dec in (catalog_entry(3), self._zero_t()):
            _verify_decompositions(
                lambda name, ok, detail: results.update({name: ok}), dec)
        assert results["catalog-file-k3"] is True
        assert results["catalog-file-k1"] is False

    def test_wrong_coefficient_fails(self, tmp_path):
        from tmagic.catalog import catalog_entry
        path = tmp_path / "t2.txt"
        lines = self._write(path, catalog_entry(2))
        no = next(i for i, line in enumerate(lines) if line.startswith("coeff="))
        lines[no] = "coeff=(5,0,0,0,0)"
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(["verify", "--scope", "decompositions",
                        "--catalog-file", str(path)], check=False)
        assert proc.returncode == 1
        assert "FAIL catalog-file-k2: terms=2" in proc.stdout

    @pytest.mark.parametrize("option", ["--samples", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rejects_count_below_one(self, option, value):
        assert_rejected(["verify", "--scope", "kernel", option, value],
                        f"{option} must be at least 1, got {value}")


class TestSeed:
    """A negative --seed is refused on every subcommand that takes one,
    before numpy sees it."""

    @pytest.mark.parametrize("args", [
        ["expect", "--t", "2", "--pauli", "XY", "--mode", "sampled"],
        ["expect", "--t", "2", "--pauli", "XY", "--mode", "exact"],
        ["expect", "--t", "2", "--pauli", "XY", "--mode", "gauss"],
        ["expect", "--t", "2", "--projector", "+XY", "--mode", "sampled"],
        ["census", "--k", "12", "--mode", "sampled", "--samples", "10"],
        ["census", "--k", "3", "--mode", "exhaustive"],
        ["bench", "--mode", "gauss", "--t", "6"],
        ["bench", "--mode", "exact", "--t", "6"],
        ["bench", "--mode", "sampled", "--t", "2", "--samples", "3"],
        ["verify", "--scope", "kernel", "--trials", "1"],
        ["verify", "--scope", "gauss-k12", "--samples", "1"],
    ])
    def test_rejects_negative_seed(self, args):
        assert_rejected([*args, "--seed", "-1"],
                        "--seed must be non-negative, got -1")

    def test_zero_seed_accepted(self, capsys):
        assert main(["census", "--k", "12", "--mode", "sampled",
                     "--samples", "5", "--seed", "0"]) == 0
        assert '"seed": 0' in capsys.readouterr().out


class TestOutPath:
    """An --out path that cannot be written is refused before any work."""

    @pytest.mark.parametrize("args", [
        ["expect", "--t", "1", "--pauli", "X"],
        ["census", "--k", "1"],
        ["bench", "--t", "1"],
        ["catalog", "--k", "1"],
    ], ids=["expect", "census", "bench", "catalog"])
    def test_rejects_missing_directory(self, tmp_path, args):
        out = tmp_path / "absent" / "out.txt"
        assert_rejected(args + ["--out", str(out)],
                        f"cannot write --out {str(out)!r}: "
                        f"no directory {str(out.parent)!r}")

    def test_rejects_directory(self, tmp_path):
        assert_rejected(["catalog", "--k", "1", "--out", str(tmp_path)],
                        f"cannot write --out {str(tmp_path)!r}: it is a directory")


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["census", "--k", "6", "--mode", "exhaustive"],
        ["census", "--k", "3", "--mode", "sampled", "--samples", "500", "--seed", "3"],
        ["expect", "--t", "2", "--pauli", "XY", "--mode", "sampled",
         "--samples", "20", "--seed", "9"],
        ["bench", "--mode", "gauss", "--t", "3 6", "--policy", "3", "--reps", "3"],
    ])
    def test_repeated_runs_byte_identical(self, args):
        a = run_cli(args).stdout
        b = run_cli(args).stdout
        assert a == b

    @pytest.mark.parametrize("args", [
        ["expect", "--t", "1", "--pauli", "X"],
        ["bench", "--t", "6"],
    ], ids=["expect", "bench"])
    def test_no_switch_puts_wall_time_on_stdout(self, args):
        proc = run_cli([*args, "--timing"], check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.strip().splitlines()[-1] == (
            "tmagic: error: unrecognized arguments: --timing")

    def test_census_workers_byte_identical(self):
        base = ["census", "--k", "3", "--mode", "sampled", "--samples", "400",
                "--seed", "11"]
        a = run_cli(base + ["--workers", "1"]).stdout
        b = run_cli(base + ["--workers", "2"]).stdout
        assert a == b


@pytest.fixture
def recorder_pool(monkeypatch):
    """A recorder stands in for the process pool and runs the chunks in this
    process, so no process is started; it lists the pool sizes asked for."""
    import concurrent.futures
    made = []

    class Recorder:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return made


class TestCensusWorkers:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_rejects_below_one(self, workers):
        assert_rejected(["census", "--k", "3", "--workers", workers],
                        f"--workers must be at least 1, got {workers}")

    @pytest.mark.parametrize("workers, samples, cpus, size", [
        (8, 3, 4, 3),        # one process per non-empty chunk
        (8, 400, 4, 4),      # no more processes than cores
        (3, 400, 16, 3),     # no more than --workers
        (8, 400, 1, None),   # one core: the chunks run in this process
        (8, 400, None, None),  # core count unknown: taken as one
        (2, 1, 16, None),    # one non-empty chunk
    ])
    def test_pool_size(self, monkeypatch, capsys, recorder_pool, workers,
                       samples, cpus, size):
        made = recorder_pool
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        base = ["census", "--k", "3", "--mode", "sampled", "--samples",
                str(samples), "--seed", "11"]
        assert main(base + ["--workers", str(workers)]) == 0
        out = capsys.readouterr().out
        assert made == ([] if size is None else [size])
        assert main(base + ["--workers", "1"]) == 0
        assert capsys.readouterr().out == out

    def test_rows_drawn_once(self, monkeypatch, capsys, recorder_pool):
        # four chunks share one draw of the rows
        import tmagic._gauss_kernels as gk
        draws = []
        sample = gk.sample_letters

        def recorded(*args):
            draws.append(args)
            return sample(*args)
        monkeypatch.setattr(gk, "sample_letters", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert main(["census", "--k", "3", "--mode", "sampled", "--samples",
                     "400", "--workers", "4"]) == 0
        assert recorder_pool == [4]
        assert draws == [(3, 400, 0)]

    def test_workers_far_above_the_rows(self, monkeypatch, capsys):
        # k = 1 has 4 rows: 3 000 000 workers split them into 4 slices of
        # one row, not 3 000 000 bounds, and print what one worker does
        import tracemalloc
        import tmagic.gauss
        monkeypatch.setattr(os, "cpu_count", lambda: 1)  # no pool
        chunks = []
        run_chunk = tmagic.gauss._census_chunk

        def recorded(task):
            chunks.append(len(task[1]))
            return run_chunk(task)
        monkeypatch.setattr(tmagic.gauss, "_census_chunk", recorded)
        assert main(["census", "--k", "1", "--workers", "1"]) == 0
        one = capsys.readouterr().out
        chunks.clear()
        tracemalloc.start()
        try:
            assert main(["census", "--k", "1", "--workers", "3000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == one
        assert chunks == [1, 1, 1, 1]
        assert peak < 1 << 20


class TestCatalogExport:
    @pytest.mark.parametrize("k", ["4", "0"])
    def test_rejects_k_outside_catalog(self, k):
        assert_rejected(["catalog", "--k", k],
                        f"catalog supports T-counts (1, 2, 3, 6, 12), got --k {k}")

    def test_roundtrip_via_verify(self, tmp_path):
        path = tmp_path / "t3.txt"
        run_cli(["catalog", "--k", "3", "--out", str(path)])
        proc = run_cli(["verify", "--scope", "decompositions",
                        "--catalog-file", str(path)])
        assert "PASS catalog-file-k3" in proc.stdout

    def test_stdout_matches_out_file_without_temp_files(self, tmp_path, capsys,
                                                        monkeypatch):
        import tempfile

        def refuse(*args, **kwargs):
            raise OSError("catalog must not need a temporary file")

        path = tmp_path / "t3.txt"
        assert main(["catalog", "--k", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        assert main(["catalog", "--k", "3"]) == 0
        assert capsys.readouterr().out.encode() == path.read_bytes()


class TestStartup:
    """A command imports only the modules it runs, checked in a fresh
    interpreter: the exact and Gauss-sum paths are pure integer code, the
    Gauss-sum path never loads the stabilizer-rank engine, and the exact
    path never loads the Gauss-sum evaluator.  No arguments: a bare
    ``import tmagic.cli``."""

    _PROBE = """
import contextlib, io, sys
import tmagic.cli
rc = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = tmagic.cli.main(sys.argv[1:])
print(rc, *[m for m in ("numpy", "concurrent.futures", "tmagic.catalog",
                        "tmagic.gauss", "tmagic.stabilizer",
                        "tmagic.strong_sim") if m in sys.modules])
"""
    _RANK_ENGINE = ("tmagic.catalog", "tmagic.stabilizer", "tmagic.strong_sim")

    @pytest.mark.parametrize("args, absent", [
        (["expect", "--t", "12", "--pauli", "XYZIXYZIXYZI", "--mode", "exact"],
         ("numpy", "concurrent.futures", "tmagic.gauss")),
        (["expect", "--t", "6", "--projector", "+ZZIIII,-IIXXII", "--mode", "exact"],
         ("numpy", "concurrent.futures", "tmagic.gauss")),
        (["expect", "--t", "47", "--pauli", "XYZ" * 15 + "ZY", "--mode", "gauss"],
         ("numpy", "concurrent.futures", *_RANK_ENGINE)),
        (["catalog", "--k", "6"],
         ("numpy", "concurrent.futures", "tmagic.gauss", "tmagic.strong_sim")),
        (["census", "--k", "3", "--workers", "1"],
         ("numpy", "concurrent.futures", *_RANK_ENGINE)),
        (["census", "--k", "12", "--mode", "sampled", "--samples", "50"],
         ("numpy", "concurrent.futures", *_RANK_ENGINE)),
        (["bench", "--mode", "exact", "--t", "6", "--reps", "3"],
         ("concurrent.futures", "tmagic.gauss")),
        ([], ("numpy", "concurrent.futures", "tmagic.gauss", *_RANK_ENGINE)),
    ], ids=["exact-pauli", "exact-projector", "gauss", "catalog", "census",
            "census-sampled", "bench-exact", "import"])
    def test_command_loads_only_what_it_runs(self, args, absent):
        proc = subprocess.run([sys.executable, "-c", self._PROBE, *args],
                              capture_output=True, text=True, env=_ENV,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, *loaded = proc.stdout.split()
        assert rc == "0"
        assert not set(loaded) & set(absent), loaded


# generated option text: Pauli-like characters, separators and now and then
# any character at all; integer items stay at or below 3 so every accepted
# call runs a T-count of at most 3
_PAULI_TEXT = st.text(st.one_of(st.sampled_from("IXYZixyz+-1:j "),
                                st.characters()), max_size=6)
def _not_an_integer(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


_ITEM = st.one_of(st.integers(-3, 3).map(str),
                  st.sampled_from(["", "x", "+1", "1.0", "٣"]),
                  st.text(max_size=3).filter(_not_an_integer))
_SEPARATOR = st.sampled_from([" ", ",", " , ", ",,", "\t", ", "])


@st.composite
def _item_list(draw, items):
    values = draw(st.lists(items, max_size=4))
    out = ""
    for i, value in enumerate(values):
        out += (draw(_SEPARATOR) if i else "") + value
    return draw(st.sampled_from(["", " "])) + out


class TestParserProperties:
    """Generated text through ``main``: every call exits 0 with one JSON
    record on stdout, or exits 2 with one stderr line and no stdout.  A
    traceback or exit 1 fails."""

    @staticmethod
    def _clean(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        if code == 0:
            records = [json.loads(line) for line in out.getvalue().splitlines()
                       if line.startswith("{")]
            assert [r["command"] for r in records] == [argv[0]], out.getvalue()
        else:
            assert code == 2, (argv, code, err.getvalue())
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t=st.integers(1, 3), mode=st.sampled_from(["gauss", "exact"]),
           text=_PAULI_TEXT)
    def test_pauli(self, t, mode, text):
        self._clean(["expect", f"--t={t}", f"--pauli={text}", f"--mode={mode}"])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t=st.integers(1, 3), mode=st.sampled_from(["gauss", "exact"]),
           factors=st.lists(_PAULI_TEXT, min_size=1, max_size=3))
    def test_projector(self, t, mode, factors):
        self._clean(["expect", f"--t={t}", f"--projector={','.join(factors)}",
                     f"--mode={mode}"])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t=st.integers(1, 3),
           policy=_item_list(st.one_of(_ITEM, st.sampled_from(["6", "12"]))))
    def test_policy(self, t, policy):
        self._clean(["expect", f"--t={t}", "--pauli=" + "X" * t,
                     f"--policy={policy}"])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ts=_item_list(_ITEM))
    def test_bench_t(self, ts):
        self._clean(["bench", "--mode=gauss", f"--t={ts}"])
