"""Command-line driver: verification suites, expectations, rank census,
and the scaling benchmark harness.

Outputs are deterministic under a fixed seed: CSV/JSON data never contains
wall-clock times (they go to stderr), so repeated runs and different
--workers counts produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from .blocks import CATALOG_TERM_COUNTS, DEFAULT_POLICY, block_cover
from .pauli import PauliOperator, PauliProjector, letters_to_pauli

if TYPE_CHECKING:
    from .catalog import MagicDecomposition
    from .gauss import GaussSumReport
    from .strong_sim import SimulationResult

_DEFAULT_POLICY = " ".join(map(str, DEFAULT_POLICY))  # the --policy default


# ---------------------------------------------------------------------------
# engines, imported on first call
# ---------------------------------------------------------------------------
# Each command imports only the engine it runs.  The four engine calls that
# commands share go through these module globals, so one rebinding (a test's
# monkeypatch, perfbench's spans) sees every command's calls.

def block_decomposition(t: int, policy: Sequence[int]) -> MagicDecomposition:
    from . import catalog
    return catalog.block_decomposition(t, policy)


def exact_pauli_expectation(dec: MagicDecomposition,
                            p: PauliOperator) -> SimulationResult:
    from . import strong_sim
    return strong_sim.exact_pauli_expectation(dec, p)


def exact_expectation(dec: MagicDecomposition,
                      proj: PauliProjector) -> SimulationResult:
    from . import strong_sim
    return strong_sim.exact_expectation(dec, proj)


def expect_single_pauli(t: int, p: PauliOperator,
                        policy: Sequence[int]) -> GaussSumReport:
    from . import gauss
    return gauss.expect_single_pauli(t, p, policy)


def _reject(message: str) -> NoReturn:
    """Refuse bad input: ``message`` as the only stderr line, exit status 2
    (the status argparse uses for its own usage errors)."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _integer(text: str) -> int:
    """An optional sign and ASCII digits, the one integer form every option
    takes; ``int`` alone would also take '1_2', ' 3' or '٣'."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _parse_ints(option: str, text: str) -> list[int]:
    """The integers of a list such as '12 6 3' or '12,6,3'.  An empty item,
    between two commas or at either end, or one that is not an integer is
    refused by its 1-based position."""
    items = re.split(r"\s*,\s*|\s+", text.strip()) if text.strip() else []
    values = []
    for i, item in enumerate(items, 1):
        if not item:
            _reject(f"invalid {option} {text!r}: item {i} is empty")
        try:
            values.append(_integer(item))
        except argparse.ArgumentTypeError:
            _reject(f"invalid {option} {text!r}: item {i} {item!r} is not an "
                    "integer")
    return values


def _parse_policy(text: str, ts: Sequence[int]) -> tuple[int, ...]:
    """Catalog block sizes that cover every T-count in ts."""
    sizes = tuple(_parse_ints("--policy", text))
    try:
        for t in ts:
            block_cover(t, sizes)
    except ValueError as exc:
        _reject(f"invalid --policy {text!r}: {exc}")
    return sizes


def _parse_t_counts(text: str) -> list[int]:
    """bench --t: one or more distinct T-counts of at least 1."""
    ts = _parse_ints("--t", text)
    if not ts:
        _reject("--t must list at least one T-count")
    for i, t in enumerate(ts):
        if t < 1:
            _reject(f"--t must be a T-count of at least 1, got {t}")
        if t in ts[:i]:
            _reject(f"--t lists the T-count {t} twice")
    return ts


def _parse_pauli(option: str, text: str) -> PauliOperator:
    try:
        return PauliOperator.from_str(text)
    except ValueError as exc:
        _reject(f"invalid {option} {text!r}: {exc}")


def _parse_projector(text: str, t: int) -> PauliProjector:
    """Signed factors such as '+ZZ,-XX' on max(t, first factor) qubits.  A
    bad factor is named by its 1-based position, and a bad character by
    its position in the factor."""
    factors = []
    for i, part in enumerate(text.split(","), 1):
        part = part.strip()
        where = f"invalid --projector {text!r}: factor {i}"
        skip = int(part[:1] in ("+", "-"))  # the sign
        try:
            p = PauliOperator.from_str(part[skip:], start=skip)
        except ValueError as exc:
            _reject(f"{where} {part!r}: {exc}")
        if not p.n:
            _reject(f"{where} is empty")
        if p.omega_exp % 2:
            _reject(f"{where} {part!r} is not Hermitian: its phase must be "
                    "+1 or -1")
        factors.append((part, p, -1 if part[:1] == "-" else 1))
    n = max(t, factors[0][1].n)
    for i, (part, p, _) in enumerate(factors, 1):
        if p.n != n:
            _reject(f"invalid --projector {text!r}: factor {i} {part!r} acts "
                    f"on {p.n} qubits, expected {n}")
    try:
        return PauliProjector(n, tuple((p, sign) for _, p, sign in factors))
    except ValueError as exc:
        _reject(f"invalid --projector {text!r}: {exc}")


def _check_sampling(args) -> None:
    """The sampled estimator's --epsilon, --pf and --samples, and the sample
    count L they set, before anything is allocated."""
    if not args.epsilon > 0:
        _reject(f"--epsilon must be positive, got {args.epsilon}")
    if not 0 < args.pf < 1:
        _reject(f"--pf must lie in (0, 1), got {args.pf}")
    from .strong_sim import MAX_SAMPLES, sample_count
    try:
        big_l = sample_count(args.epsilon, args.pf)
    except ValueError as exc:
        _reject(f"invalid --epsilon/--pf: {exc}")
    if args.samples is not None:
        if args.samples < 1:
            _reject(f"--samples must be at least 1, got {args.samples}")
        if args.samples > MAX_SAMPLES:
            _reject(f"--samples {args.samples} exceeds the cap of "
                    f"{MAX_SAMPLES} samples")
    elif big_l > MAX_SAMPLES:
        _reject(f"--epsilon {args.epsilon} and --pf {args.pf} need {big_l} "
                f"samples, above the cap of {MAX_SAMPLES}")


def _check_out(path: str) -> None:
    """Reject an --out path that cannot be written, before any work."""
    target = os.path.abspath(path)
    folder = os.path.dirname(target)
    if os.path.isdir(target):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder!r}"
    elif not os.access(target if os.path.exists(target) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    _reject(f"cannot write --out {path!r}: {reason}")


def _read_catalog(path: str) -> MagicDecomposition:
    """verify --catalog-file, read and checked before any suite runs; its k
    must be within the dense oracle's qubit cap."""
    from .catalog import read_catalog_file
    from .dense import MAX_DENSE_QUBITS
    try:
        catalog = read_catalog_file(path)
    except OSError as exc:
        _reject(f"cannot read --catalog-file {path!r}: {exc.strerror}")
    except ValueError as exc:
        _reject(f"invalid --catalog-file: {exc}")
    if catalog.k > MAX_DENSE_QUBITS:
        _reject(f"--catalog-file {path!r} holds k={catalog.k}; verify checks "
                f"at most k={MAX_DENSE_QUBITS} against the dense oracle")
    return catalog


def _emit(record: dict, out: Optional[str]) -> None:
    text = json.dumps(record, sort_keys=True)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _write_csv(path: Optional[str], header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# expect
# ---------------------------------------------------------------------------

def _pauli_expectation(args, p: PauliOperator, policy: Sequence[int],
                       seed: int) -> tuple[dict, Optional[float]]:
    """<T^t| p |T^t> for a Hermitian Pauli p on t = p.n qubits in
    ``args.mode``: the record fields, and the standard error in sampled mode."""
    if args.mode == "gauss":
        rep = expect_single_pauli(p.n, p, policy)
        return {"value": rep.expectation,
                "unique_nonzero_sums": rep.unique_nonzero_sums}, None
    dec = block_decomposition(p.n, policy)
    if args.mode == "exact":
        res = exact_pauli_expectation(dec, p)
        return {"value": res.value, "inner_products": res.inner_products_evaluated,
                "terms": res.term_count}, None
    from .strong_sim import sampled_expectation
    res = sampled_expectation(dec, PauliProjector.single(p, 1), args.epsilon,
                              args.pf, seed, args.samples)
    # <p> = 2 <Pi_+> - 1, so the standard error doubles too
    se = None if res.std_error is None else 2 * res.std_error
    return {"value": 2 * res.value - 1,
            "inner_products": res.inner_products_evaluated,
            "samples_used": res.samples_used, "terms": res.term_count}, se


def cmd_expect(args) -> int:
    if args.t < 1:
        _reject(f"--t must be a T-count of at least 1, got {args.t}")
    if args.mode == "sampled":
        _check_sampling(args)
    policy = _parse_policy(args.policy, [args.t])
    record: dict = {"command": "expect", "t": args.t, "mode": args.mode,
                    "seed": args.seed}
    se: Optional[float] = None  # sampled mode's standard error
    start = time.perf_counter()
    if args.projector:
        proj = _parse_projector(args.projector, args.t)
        if args.mode == "gauss":
            _reject("gauss mode evaluates single Paulis; use --pauli")
        from .catalog import extend_with_zeros
        dec = extend_with_zeros(block_decomposition(args.t, policy), proj.n)
        if args.mode == "exact":
            res = exact_expectation(dec, proj)
        else:
            from .strong_sim import sampled_expectation
            res = sampled_expectation(dec, proj, args.epsilon, args.pf,
                                      args.seed, args.samples)
            se = res.std_error
        record.update(projector=str(proj), value=res.value,
                      inner_products=res.inner_products_evaluated,
                      samples_used=res.samples_used, terms=res.term_count)
    else:
        if not args.pauli:
            _reject("need --pauli or --projector")
        p = _parse_pauli("--pauli", args.pauli)
        if p.omega_exp % 2:
            _reject(f"--pauli {args.pauli!r} is not Hermitian: "
                    "its phase must be +1 or -1")
        if p.n < args.t:
            _reject(f"Pauli acts on {p.n} qubits but t={args.t}")
        magic = PauliOperator(args.t, p.beta & ((1 << args.t) - 1),
                              p.gamma & ((1 << args.t) - 1),
                              p.delta & ((1 << args.t) - 1), p.omega_exp)
        fields, se = _pauli_expectation(args, magic, policy, args.seed)
        record.update(fields, pauli=str(p))
        # qubits beyond the T-count hold |0>: X/Y there make the expectation
        # 0.0 (not -0.0), I/Z contribute a factor 1
        if p.x_mask >> args.t:
            record["value"] = 0.0
            se = None if se is None else 0.0
    elapsed = time.perf_counter() - start
    if args.mode == "sampled":
        # stderr only: stdout stays byte-identical across runs
        print(f"[se] {'n/a' if se is None else format(se, '.6g')}",
              file=sys.stderr)
    print(f"[time] {elapsed:.3f}s", file=sys.stderr)
    _emit(record, args.out)
    return 0


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def cmd_census(args) -> int:
    from .gauss import check_census, rank_census
    try:
        check_census(args.k, args.mode, args.samples, args.workers)
    except ValueError as exc:
        _reject(str(exc))
    # outside the try: an invariant failure in the census is a traceback
    start = time.perf_counter()
    worst, hist = rank_census(args.k, args.mode, args.samples, args.seed,
                              args.workers)
    elapsed = time.perf_counter() - start
    rows = [[args.k, args.mode, u, c] for u, c in hist.items()]
    text = _write_csv(args.out, ["k", "mode", "unique_nonzero_sums", "count"], rows)
    if not args.out:
        print(text, end="")
    print(json.dumps({"command": "census", "k": args.k, "mode": args.mode,
                      "max_unique": worst, "total": sum(hist.values()),
                      "seed": args.seed}, sort_keys=True))
    print(f"[time] {elapsed:.3f}s", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _fit_exponent(ts: Sequence[int], work: Sequence[int]) -> Optional[float]:
    """Slope of log2(work) against t, rounded; None for fewer than two
    distinct T-counts, where no line is fitted."""
    if len(set(ts)) < 2:
        return None
    import numpy as np
    xs = np.asarray(ts, dtype=float)
    ys = np.log2(np.asarray(work, dtype=float))
    slope = np.polyfit(xs, ys, 1)[0]
    return round(float(slope), 6)


def cmd_bench(args) -> int:
    import numpy as np
    ts = _parse_t_counts(args.t)
    policy = _parse_policy(args.policy, ts)
    if args.reps < 3:
        _reject("need at least 3 repetitions")
    if args.mode == "sampled":
        _check_sampling(args)
    if args.mode == "gauss":
        from .gauss import WORST_CASE_UNIQUE as block_work
    else:
        block_work = CATALOG_TERM_COUNTS
    rows = []
    works = []
    times_note = []
    for t in ts:
        blocks = block_cover(t, policy)
        works.append(math.prod(block_work[k] for k in blocks))
        samples = []
        for r in range(args.reps):
            rng = np.random.default_rng(np.random.SeedSequence([args.seed, r]))
            p = letters_to_pauli(rng.integers(0, 4, size=t))
            start = time.perf_counter()
            # the call expect --pauli makes, decomposition lookup included
            _pauli_expectation(args, p, policy, args.seed + r)
            samples.append(time.perf_counter() - start)
        rows.append([t, "+".join(str(b) for b in blocks), args.mode, args.reps,
                     works[-1], args.seed])
        times_note.append(f"t={t} median={float(np.median(samples)):.6g}s")
    text = _write_csv(args.out, ["t", "blocks", "mode", "reps", "work", "seed"],
                      rows)
    if not args.out:
        print(text, end="")
    print(json.dumps({"command": "bench", "mode": args.mode, "t": sorted(ts),
                      "policy": list(policy),
                      "fitted_exponent": _fit_exponent(ts, works),
                      "seed": args.seed}, sort_keys=True))
    for note in times_note:
        print(f"[time] {note}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    if args.k not in CATALOG_TERM_COUNTS:
        _reject(f"catalog supports T-counts {tuple(CATALOG_TERM_COUNTS)}, "
                f"got --k {args.k}")
    from .catalog import catalog_entry, write_catalog_file
    dec = catalog_entry(args.k)
    notes = [f"stabilizer decomposition of the {args.k}-fold T magic state",
             f"terms={len(dec)}"]
    if args.out:
        with open(args.out, "w") as fh:
            write_catalog_file(dec, fh, notes)
        print(json.dumps({"command": "catalog", "k": args.k,
                          "terms": len(dec), "out": args.out}, sort_keys=True))
    else:
        write_catalog_file(dec, sys.stdout, notes)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_decompositions(report,
                           catalog: Optional[MagicDecomposition]) -> None:
    from .catalog import catalog_entry
    from .dense import dense_magic_state_exact
    for k in CATALOG_TERM_COUNTS:
        dec = catalog_entry(k)
        ok = len(dec) == CATALOG_TERM_COUNTS[k]
        ok = ok and dec.reconstruct_dense_exact() == dense_magic_state_exact(k)
        report(f"decomposition-t{k}", ok,
               f"terms={len(dec)} exact-reconstruction={ok}")
    if catalog is not None:
        ok = (catalog.reconstruct_dense_exact()
              == dense_magic_state_exact(catalog.k))
        report(f"catalog-file-k{catalog.k}", ok, f"terms={len(catalog)}")


def _verify_merges(report) -> None:
    import numpy as np
    from .catalog import _t6_states, _t12_merge_states
    states = _t6_states()
    sqrt2 = np.sqrt(2.0)
    pair_b = (np.kron(states["b60"].to_dense(), states["b66"].to_dense())
              + np.kron(states["b66"].to_dense(), states["b60"].to_dense()))
    pair_eo = (np.kron(states["e6"].to_dense(), states["o6"].to_dense())
               + np.kron(states["o6"].to_dense(), states["e6"].to_dense()))
    merged_b, merged_eo = _t12_merge_states()
    ok_b = np.allclose(pair_b, sqrt2 * merged_b.to_dense(), atol=1e-12)
    ok_eo = np.allclose(pair_eo, sqrt2 * merged_eo.to_dense(), atol=1e-12)
    report("bell-merge-b", bool(ok_b), "pair equals sqrt2 * merged state")
    report("bell-merge-eo", bool(ok_eo), "pair equals sqrt2 * merged state")


def _verify_gauss(report, k: int, samples: int, seed: int) -> None:
    from .dense import dense_magic_state, dense_pauli_expect
    from .gauss import WORST_CASE_UNIQUE, census_letters, expect_block
    vec = dense_magic_state(k)
    mode = "exhaustive" if k <= 6 else "sampled"
    paulis = [letters_to_pauli(r) for r in census_letters(k, mode, samples, seed)]
    bad = 0
    worst = 0
    for p in paulis:
        rep = expect_block(k, p)
        want = dense_pauli_expect(vec, p).real
        if abs(rep.expectation - want) > 1e-9:
            bad += 1
        worst = max(worst, rep.unique_nonzero_sums)
    ok = bad == 0 and worst <= WORST_CASE_UNIQUE[k]
    report(f"gauss-k{k}", ok,
           f"checked={len(paulis)} mismatches={bad} max-unique={worst}")


def _verify_kernel(report, trials: int, seed: int) -> None:
    """inner_product and 2^-1 projector_ket against the dense oracle."""
    import numpy as np
    from .dense import apply_projector
    from .pauli import random_pauli
    from .draws import RawDraws
    from .stabilizer import (inner_product, projector_ket,
                             random_stabilizer_state)
    # the states come from their own PCG64 stream, which the decoder reads
    # ahead, the sizes, Paulis and signs from a Generator of their own
    rng = np.random.default_rng(seed)
    words = np.random.PCG64([seed, 1]).random_raw
    draws = RawDraws(lambda k: words(max(k, 64)))
    bad_ip = bad_pk = 0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        s1 = random_stabilizer_state(n, draws)
        s2 = random_stabilizer_state(n, draws)
        ip = inner_product(s1, s2).to_float()
        want = complex(np.vdot(s1.to_dense(), s2.to_dense()))
        if abs(ip - want) > 1e-10:
            bad_ip += 1
        p = random_pauli(n, rng)
        sign = 1 if rng.integers(0, 2) else -1
        got = projector_ket(s1, [(p, sign)]).to_dense() / 2
        wantv = apply_projector(s1.to_dense(), PauliProjector.single(p, sign))
        if not np.allclose(got, wantv, atol=1e-10):
            bad_pk += 1
    report("kernel-inner-product", bad_ip == 0, f"trials={trials} bad={bad_ip}")
    report("kernel-projector-ket", bad_pk == 0, f"trials={trials} bad={bad_pk}")


def cmd_verify(args) -> int:
    if args.samples < 1:
        _reject(f"--samples must be at least 1, got {args.samples}")
    if args.trials < 1:
        _reject(f"--trials must be at least 1, got {args.trials}")
    catalog = _read_catalog(args.catalog_file) if args.catalog_file else None
    results = []

    def report(name: str, ok: bool, detail: str) -> None:
        results.append({"name": name, "ok": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    scope = args.scope
    if scope in ("all", "decompositions"):
        _verify_decompositions(report, catalog)
    if scope in ("all", "merges"):
        _verify_merges(report)
    for k in CATALOG_TERM_COUNTS:  # the Gauss evaluator's block sizes too
        if scope in ("all", f"gauss-k{k}"):
            _verify_gauss(report, k, args.samples, args.seed)
    if scope in ("all", "kernel"):
        _verify_kernel(report, args.trials, args.seed)
    if not results:
        _reject(f"unknown verify scope {args.scope!r}")
    ok = all(r["ok"] for r in results)
    print(json.dumps({"command": "verify", "scope": scope, "ok": ok,
                      "cases": results}, sort_keys=True))
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tmagic",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("expect", help="evaluate a Pauli or projector expectation")
    pe.add_argument("--t", type=_integer, required=True, help="T-count")
    operator = pe.add_mutually_exclusive_group()
    operator.add_argument("--pauli", help="Pauli string, e.g. XYZI or --pauli=-1:XX")
    operator.add_argument("--projector", help="signed factors, e.g. --projector=-ZZ,+XX")
    pe.add_argument("--mode", choices=("exact", "sampled", "gauss"), default="gauss")
    pe.add_argument("--policy", default=_DEFAULT_POLICY)
    pe.add_argument("--epsilon", type=float, default=0.1)
    pe.add_argument("--pf", type=float, default=0.05)
    pe.add_argument("--samples", type=_integer, default=None,
                    help="override the sample count L")
    pe.add_argument("--seed", type=_integer, default=0)
    pe.add_argument("--out", default=None)
    pe.set_defaults(fn=cmd_expect)

    pc = sub.add_parser("census", help="histogram of unique non-zero Gauss sums")
    pc.add_argument("--k", type=_integer, required=True)
    pc.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    pc.add_argument("--samples", type=_integer, default=100_000)
    pc.add_argument("--seed", type=_integer, default=0)
    pc.add_argument("--workers", type=_integer, default=1)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_census)

    pb = sub.add_parser("bench", help="scaling benchmark with counter-based fits")
    pb.add_argument("--mode", choices=("gauss", "exact", "sampled"), default="gauss")
    pb.add_argument("--t", required=True, help="T-counts, e.g. '6 12 18'")
    pb.add_argument("--policy", default=_DEFAULT_POLICY)
    pb.add_argument("--reps", type=_integer, default=3)
    pb.add_argument("--seed", type=_integer, default=0)
    pb.add_argument("--epsilon", type=float, default=0.1)
    pb.add_argument("--pf", type=float, default=0.05)
    pb.add_argument("--samples", type=_integer, default=None)
    pb.add_argument("--out", default=None)
    pb.set_defaults(fn=cmd_bench)

    pk = sub.add_parser("catalog", help="export a decomposition text file")
    pk.add_argument("--k", type=_integer, required=True)
    pk.add_argument("--out", default=None)
    pk.set_defaults(fn=cmd_catalog)

    pv = sub.add_parser("verify", help="dense-oracle equivalence suites")
    pv.add_argument("--scope", default="all",
                    help="all | decompositions | merges | kernel | gauss-k<K>")
    pv.add_argument("--samples", type=_integer, default=2000,
                    help="random Paulis for the k=12 oracle check")
    pv.add_argument("--trials", type=_integer, default=200,
                    help="random states for the kernel check")
    pv.add_argument("--seed", type=_integer, default=0)
    pv.add_argument("--catalog-file", default=None)
    pv.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        _reject(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "out", None):
        _check_out(args.out)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
