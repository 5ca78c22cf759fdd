"""Acceptance suite: every criterion at its stated size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Each test enforces both the numeric gate and the stated
runtime budget.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tmagic
from tmagic import _gauss_kernels as gk
from tmagic.blocks import CATALOG_TERM_COUNTS
from tmagic.catalog import (block_decomposition, catalog_entry, _t6_states,
                            _t12_merge_states)
from tmagic.dense import (apply_projector, dense_magic_state,
                          dense_magic_state_exact, dense_pauli_expect)
from tmagic.gauss import WORST_CASE_UNIQUE, expect_block, rank_census
from tmagic.pauli import (PauliOperator, PauliProjector, letters_to_pauli,
                          random_pauli)
from tmagic.phase_ring import ExactAmplitude
from tmagic.stabilizer import (inner_product, projector_ket,
                               random_stabilizer_state)
from tmagic.strong_sim import exact_expectation, sampled_expectation

from reference_kernel import all_paulis


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_catalog_exactness():
    start = time.perf_counter()
    counts = {}
    exact = True
    for k, want_terms in CATALOG_TERM_COUNTS.items():
        dec = catalog_entry(k)
        counts[k] = len(dec)
        recon = dec.reconstruct_dense_exact()
        target = dense_magic_state_exact(k)
        exact = exact and all(x == y for x, y in zip(recon, target))
        flo = np.array([a.to_float() for a in recon])
        exact = exact and np.allclose(flo, dense_magic_state(k), atol=1e-10)
    elapsed = time.perf_counter() - start
    ok = (exact and counts == CATALOG_TERM_COUNTS and elapsed < 10)
    _report("criterion-1 catalog exactness", ok,
            f"counts={counts} ring-exact={exact} {elapsed:.1f}s/<10s")


def test_criterion_2_bell_merges():
    start = time.perf_counter()
    states = _t6_states()
    merged_b, merged_eo = _t12_merge_states()
    sqrt2 = np.sqrt(2.0)
    pair_b = (np.kron(states["b60"].to_dense(), states["b66"].to_dense())
              + np.kron(states["b66"].to_dense(), states["b60"].to_dense()))
    pair_eo = (np.kron(states["e6"].to_dense(), states["o6"].to_dense())
               + np.kron(states["o6"].to_dense(), states["e6"].to_dense()))
    ok_b = np.allclose(pair_b, sqrt2 * merged_b.to_dense(), atol=1e-12)
    ok_eo = np.allclose(pair_eo, sqrt2 * merged_eo.to_dense(), atol=1e-12)
    elapsed = time.perf_counter() - start
    ok = bool(ok_b and ok_eo and elapsed < 5)
    _report("criterion-2 bell merges", ok,
            f"b-pair={ok_b} eo-pair={ok_eo} 4096 amplitudes {elapsed:.1f}s/<5s")


def test_criterion_3_kernel_vs_oracle():
    # <a|b> against the dense vdot, and <a|(I + sign P)/2|a> as
    # 2^-1 <a|projector_ket(a)> against the dense projector's norm
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    half = ExactAmplitude(1, 0, 0, 0, 2)
    bad_ip = bad_norm = 0
    trials_per_n = 1000
    for n in range(2, 9):
        for _ in range(trials_per_n):
            a = random_stabilizer_state(n, rng)
            b = random_stabilizer_state(n, rng)
            ip = inner_product(a, b).to_float()
            want = complex(np.vdot(a.to_dense(), b.to_dense()))
            if abs(ip - want) > 1e-10:
                bad_ip += 1
            p = random_pauli(n, rng)
            sign = 1 if rng.integers(0, 2) else -1
            norm = half * inner_product(a, projector_ket(a, [(p, sign)]))
            dense_norm = np.vdot(
                a.to_dense(),
                apply_projector(a.to_dense(), PauliProjector.single(p, sign))).real
            if abs(norm.to_float().real - dense_norm) > 1e-10:
                bad_norm += 1
    elapsed = time.perf_counter() - start
    ok = bad_ip == 0 and bad_norm == 0 and elapsed < 60
    _report("criterion-3 kernel vs oracle", ok,
            f"7000 pairs, bad-ip={bad_ip} bad-norm={bad_norm} {elapsed:.1f}s/<60s")


def test_criterion_4_gauss_oracle_equivalence():
    start = time.perf_counter()
    mismatches = {}
    for k in (1, 2, 3, 6):
        vec = dense_magic_state(k)
        bad = 0
        for p in all_paulis(k):
            got = expect_block(k, p).expectation
            if abs(got - dense_pauli_expect(vec, p).real) > 1e-9:
                bad += 1
        mismatches[k] = bad
    # k = 12: 1e5 random Paulis
    vec = dense_magic_state(12)
    rows = gk.sample_letters(12, 100_000, seed=77)
    bad = 0
    for row in rows:
        p = letters_to_pauli(row)
        got = expect_block(12, p).expectation
        want = dense_pauli_expect(vec, p).real
        if abs(got - want) > 1e-9:
            bad += 1
    mismatches[12] = bad
    elapsed = time.perf_counter() - start
    ok = all(v == 0 for v in mismatches.values()) and elapsed < 600
    _report("criterion-4 gauss vs oracle", ok,
            f"mismatches={mismatches} (4^k exhaustive + 1e5 at k=12) "
            f"{elapsed:.0f}s/<600s")


def test_criterion_5_rank_census():
    start = time.perf_counter()
    maxima = {}
    for k in (1, 2, 3, 6):
        maxima[k], _ = rank_census(k, "exhaustive")
    mx12, hist12 = rank_census(12, "sampled", samples=100_000, seed=0)
    maxima[12] = mx12
    elapsed = time.perf_counter() - start
    ok = (maxima == WORST_CASE_UNIQUE == {1: 2, 2: 2, 3: 3, 6: 7, 12: 42}
          and 42 in hist12)
    _report("criterion-5 rank census", ok,
            f"maxima={maxima} attained42={42 in hist12} {elapsed:.1f}s")


def test_criterion_6_scaling_exponents():
    start = time.perf_counter()

    def fit(ts, works):
        return float(np.polyfit(ts, np.log2(np.asarray(works, float)), 1)[0])

    results = {}
    for k, want in ((1, 1.0), (2, 0.5), (6, np.log2(7) / 6),
                    (12, np.log2(42) / 12)):
        ts = [k, 2 * k, 3 * k]
        works = [WORST_CASE_UNIQUE[k] ** (t // k) for t in ts]
        slope = fit(ts, works)
        results[k] = (slope, want)
    gauss_ok = all(abs(s - w) < 1e-3 for s, w in results.values())
    # reference values from the scaling analysis
    ref_ok = (abs(results[6][1] - 0.4676) < 1e-3
              and abs(results[12][1] - 0.4495) < 1e-3)

    n12 = len(block_decomposition(12, policy=(12,)))
    n66 = len(block_decomposition(12, policy=(6,)))
    chi_slope = fit([12, 24, 36], [47 ** (t // 12) for t in (12, 24, 36)])
    chi_ok = (n12 == 47 and n66 == 49
              and abs(chi_slope - np.log2(47) / 12) < 1e-3
              and abs(chi_slope - 0.4629) < 1e-3)
    elapsed = time.perf_counter() - start
    ok = gauss_ok and ref_ok and chi_ok
    detail = {k: f"{s:.4f}~{w:.4f}" for k, (s, w) in results.items()}
    _report("criterion-6 scaling exponents", ok,
            f"fits={detail} chi: {n12} vs {n66}, slope {chi_slope:.4f} "
            f"{elapsed:.1f}s")


@pytest.mark.parametrize("t", [2, 6])
def test_criterion_7_sampled_estimator(t):
    start = time.perf_counter()
    rng = np.random.default_rng(123 + t)
    p = random_pauli(t, rng)
    proj = PauliProjector.single(p, 1)
    dec = block_decomposition(t)
    want = exact_expectation(dec, proj).value
    runs = 500
    values = np.array([
        sampled_expectation(dec, proj, 0.1, 0.05, seed=10_000 * t + r,
                            samples_override=100).value
        for r in range(runs)])
    mean = values.mean()
    sem = values.std(ddof=1) / np.sqrt(runs)
    within = np.mean(np.abs(values - want) <= 0.1 * abs(want))
    elapsed = time.perf_counter() - start
    ok = abs(mean - want) <= 3 * sem and within >= 0.60 and elapsed < 300
    _report(f"criterion-7 sampled estimator t={t}", ok,
            f"P={p} exact={want:.4f} mean={mean:.4f} (3SE={3*sem:.4f}) "
            f"within10%={within:.1%}>=60% {elapsed:.0f}s/<300s")


def test_criterion_7_consistency_epsilon_sweep():
    # error decreases monotonically in the median as epsilon shrinks
    dec = block_decomposition(2)
    proj = PauliProjector.single(PauliOperator.from_str("XY"), 1)
    want = exact_expectation(dec, proj).value
    medians = []
    for eps in (0.3, 0.1, 0.03):
        errs = [abs(sampled_expectation(dec, proj, eps, 0.05, seed).value - want)
                for seed in range(200)]
        medians.append(float(np.median(errs)))
    ok = medians[0] > medians[1] > medians[2]
    _report("criterion-7b epsilon consistency", ok,
            f"median errors {[round(m, 4) for m in medians]} strictly decreasing")


def _run(args):
    src = str(Path(tmagic.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "tmagic.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    commands = [
        ["expect", "--t", "2", "--pauli", "XY", "--mode", "sampled",
         "--samples", "25", "--seed", "5"],
        ["expect", "--t", "12", "--pauli", "XYZXYZXYZXYZ", "--mode", "gauss"],
        ["census", "--k", "6", "--mode", "exhaustive"],
        ["census", "--k", "12", "--mode", "sampled", "--samples", "2000",
         "--seed", "1"],
        ["bench", "--mode", "gauss", "--t", "6 12 18", "--policy", "6",
         "--reps", "3", "--seed", "2"],
        ["verify", "--scope", "merges"],
    ]
    all_ok = True
    for args in commands:
        if _run(args) != _run(args):
            all_ok = False
    # worker fan-out must not change a single byte
    base = ["census", "--k", "3", "--mode", "sampled", "--samples", "1000",
            "--seed", "42"]
    w1 = _run(base + ["--workers", "1"])
    w4 = _run(base + ["--workers", "4"])
    workers_ok = w1 == w4
    # catalog export files byte-identical
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    _run(["catalog", "--k", "12", "--out", str(f1)])
    _run(["catalog", "--k", "12", "--out", str(f2)])
    files_ok = f1.read_bytes() == f2.read_bytes()
    elapsed = time.perf_counter() - start
    ok = all_ok and workers_ok and files_ok
    _report("criterion-8 determinism", ok,
            f"commands-identical={all_ok} workers1==4={workers_ok} "
            f"files={files_ok} {elapsed:.0f}s")
