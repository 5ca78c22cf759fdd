"""Per-layer spans and counters, recorded from outside the program.

``Probe`` rebinds the module-level names that callers look up at call time
(``tmagic.strong_sim.inner_product``, ``tmagic.stabilizer.solve_columns``,
``tmagic.cli.expect_single_pauli``, ...) with timing wrappers, and counts
``ExactAmplitude`` ring operations by wrapping the class methods.  Nothing
under ``src/`` changes, and every name is restored on exit.  A name that a
later version of the program no longer has is skipped, and its metrics
read 0.

``kernel_scaling`` times ``inner_product`` and the ``solve_columns`` calls
it makes on seeded random state pairs at n = 6/12/24/48, and the growth per
doubling of n: the O(n^3) check for the stabilizer kernel (about 8).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

import tmagic.cli
import tmagic.gauss
import tmagic.gf2
import tmagic.stabilizer
import tmagic.strong_sim
import tmagic._gauss_kernels
from tmagic.phase_ring import ExactAmplitude

_perf = time.perf_counter

# (module, attribute, span name, outcome counted as a "hit")
SPANS = (
    (tmagic.cli, "block_decomposition", "catalog.block_decomposition", None),
    (tmagic.strong_sim, "block_decomposition", "catalog.block_decomposition", None),
    (tmagic.cli, "run_task", "strong_sim.run_task", None),
    (tmagic.cli, "exact_pauli_expectation", "strong_sim.exact_pauli_expectation", None),
    (tmagic.cli, "exact_expectation", "strong_sim.exact_expectation", None),
    (tmagic.cli, "expect_single_pauli", "gauss.expect_single_pauli", None),
    (tmagic.cli, "expect_block", "gauss.expect_block", None),
    (tmagic.gauss, "expect_block", "gauss.expect_block", None),
    (tmagic._gauss_kernels, "sample_letters", "gauss.sample_letters", None),
    (tmagic.strong_sim, "inner_product", "stabilizer.inner_product",
     lambda r: r.is_zero()),
    (tmagic.strong_sim, "measure_pauli", "stabilizer.measure_pauli",
     lambda r: r[0] is None),
    (tmagic.strong_sim, "apply_pauli_state", "stabilizer.apply_pauli_state", None),
    (tmagic.strong_sim, "random_stabilizer_state",
     "stabilizer.random_stabilizer_state", None),
    (tmagic.stabilizer, "solve_columns", "gf2.solve_columns",
     lambda r: r is None),
    (tmagic.stabilizer, "exponential_sum", "stabilizer.exponential_sum", None),
    (tmagic.gf2, "rank_of", "gf2.rank_of", None),
)
COUNTERS = (
    (ExactAmplitude, "__mul__", "phase_ring.mul"),
    (ExactAmplitude, "__add__", "phase_ring.add"),
)


class Stat:
    __slots__ = ("calls", "seconds", "hits", "child_seconds", "child_calls")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.hits = 0
        self.child_seconds = defaultdict(float)
        self.child_calls = defaultdict(int)


class Probe:
    """Context manager: while active, the SPANS and COUNTERS are recorded."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.top_seconds = 0.0   # time under spans entered with none active
        self._stack: list[Stat] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, outcome):
        st = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(st)
            t0 = _perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                st.calls += 1
                st.seconds += dt
                if stack:
                    stack[-1].child_seconds[name] += dt
                    stack[-1].child_calls[name] += 1
                else:
                    self.top_seconds += dt
            if outcome is not None and outcome(res):
                st.hits += 1
            return res
        return wrapper

    def _counter(self, name, fn):
        st = self.stats[name]

        def wrapper(*args):
            st.calls += 1
            return fn(*args)
        return wrapper

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        for owner, attr, name, outcome in SPANS:
            fn = getattr(owner, attr, None)
            if fn is not None:
                self._rebind(owner, attr, self._span(name, fn, outcome))
        for owner, attr, name in COUNTERS:
            self._rebind(owner, attr, self._counter(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics; ratios read 0 where nothing was attempted."""
        s = self.stats

        def per_op(x):
            return x / ops

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for name in ("catalog.block_decomposition", "stabilizer.inner_product",
                     "stabilizer.exponential_sum", "stabilizer.measure_pauli",
                     "stabilizer.apply_pauli_state",
                     "stabilizer.random_stabilizer_state", "gf2.solve_columns"):
            out[f"{name}.calls"] = per_op(s[name].calls)
            out[f"{name}.ms"] = per_op(s[name].seconds) * 1e3
        ip = s["stabilizer.inner_product"]
        out["stabilizer.inner_product.self_ms"] = per_op(
            ip.seconds - ip.child_seconds["gf2.solve_columns"]
            - ip.child_seconds["stabilizer.exponential_sum"]) * 1e3
        out["stabilizer.inner_product.zero_ratio"] = ratio(ip.hits, ip.calls)
        mp = s["stabilizer.measure_pauli"]
        out["stabilizer.measure_pauli.annihilated_ratio"] = ratio(mp.hits, mp.calls)
        rs = s["stabilizer.random_stabilizer_state"]
        out["stabilizer.random_stabilizer_state.accept_ratio"] = ratio(
            rs.calls, rs.child_calls["gf2.rank_of"])
        sc = s["gf2.solve_columns"]
        out["gf2.solve_columns.inconsistent_ratio"] = ratio(sc.hits, sc.calls)
        out["gf2.rank_of.calls"] = per_op(s["gf2.rank_of"].calls)
        out["phase_ring.mul.calls"] = per_op(s["phase_ring.mul"].calls)
        out["phase_ring.add.calls"] = per_op(s["phase_ring.add"].calls)
        out["gauss.expect_single_pauli.ms"] = per_op(
            s["gauss.expect_single_pauli"].seconds) * 1e3
        eb = s["gauss.expect_block"]
        out["gauss.expect_block.calls"] = per_op(eb.calls)
        out["gauss.expect_block.us_per_call"] = ratio(eb.seconds, eb.calls) * 1e6
        return out


def _median_call_us(fn, cases) -> float:
    times = []
    for args in cases:
        t0 = _perf()
        fn(*args)
        times.append(_perf() - t0)
    return statistics.median(times) * 1e6


def kernel_scaling(seed: int) -> dict[str, float]:
    """inner_product and solve_columns cost on seeded random state pairs."""
    inner_product = tmagic.stabilizer.inner_product
    random_stabilizer_state = tmagic.stabilizer.random_stabilizer_state
    rng = np.random.default_rng([seed, 5])
    out = {}
    orig_solve = tmagic.stabilizer.solve_columns
    solve = [0.0, 0]

    def timed_solve(*args, **kwargs):
        t0 = _perf()
        try:
            return orig_solve(*args, **kwargs)
        finally:
            solve[0] += _perf() - t0
            solve[1] += 1

    for n, pairs in ((6, 60), (12, 40), (24, 16), (48, 6)):
        cases = [(random_stabilizer_state(n, rng), random_stabilizer_state(n, rng))
                 for _ in range(pairs)]
        solve[:] = [0.0, 0]
        tmagic.stabilizer.solve_columns = timed_solve
        try:
            out[f"stabilizer.inner_product.us_n{n}"] = _median_call_us(inner_product, cases)
        finally:
            tmagic.stabilizer.solve_columns = orig_solve
        out[f"gf2.solve_columns.us_n{n}"] = solve[0] / max(solve[1], 1) * 1e6
    for name in ("stabilizer.inner_product", "gf2.solve_columns"):
        for lo in (6, 12, 24):
            out[f"{name}.growth_{lo}_{2 * lo}"] = (
                out[f"{name}.us_n{2 * lo}"] / out[f"{name}.us_n{lo}"])
    pairs = [(ExactAmplitude(*(int(v) for v in rng.integers(-9, 10, size=4)),
                             int(rng.integers(0, 6))),
              ExactAmplitude(*(int(v) for v in rng.integers(-9, 10, size=4)),
                             int(rng.integers(0, 6)))) for _ in range(2000)]
    for op, name in ((ExactAmplitude.__mul__, "mul"), (ExactAmplitude.__add__, "add")):
        reps = []
        for _ in range(5):
            t0 = _perf()
            for a, b in pairs:
                op(a, b)
            reps.append((_perf() - t0) / len(pairs))
        out[f"phase_ring.{name}_ns"] = statistics.median(reps) * 1e9
    return out
