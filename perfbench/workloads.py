"""Seeded operation streams for the four benchmark workloads, and the
untimed answer checks that go with them.

Every operation is one argv for ``tmagic.cli.main``.  Inputs come only from
the workload seed: op ``i`` of a workload is the same on every run with the
same seed, however many ops a run gets through.

Why these workloads:

* ``exact``   - t = 12 exact expectations, chi^2 = 2209 inner products on
  the structured catalog states; the only workload that runs both exact
  engines (Pauli and projector), so it carries the stabilizer kernel, GF(2)
  elimination and the pullback.
* ``sampled`` - the two-design estimator at t = 6 (L = 300): the same
  kernel on Haar-random full-support states plus random_stabilizer_state.
* ``gauss``   - t = 47 Gauss-sum path over the 12+12+12+6+3+2 cover: ring
  arithmetic and per-block evaluators, no stabilizer kernel at all, so a
  kernel change must leave it flat.
* ``census``  - k = 12 sampled census, the same Gauss evaluator in bulk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from tmagic.dense import (dense_magic_state, dense_pauli_expect,
                          dense_projector_expect)
from tmagic.gauss import expect_single_pauli
from tmagic.pauli import PauliOperator, PauliProjector

LETTERS = "IZXY"
EPSILON = 0.1
P_FAIL = 0.05
CENSUS_K = 12
CENSUS_SAMPLES = 200
CENSUS_MAX_UNIQUE = 42
GAUSS_T = 47
# independent partition of t = 47 for the oracle; |T>^t is a product state,
# so any partition gives the same expectation as the program's own cover
GAUSS_ORACLE_BLOCKS = (12, 12, 12, 11)
SAMPLED_Z_LIMIT = 4.0


@dataclass
class Op:
    argv: list[str]
    kind: str            # "pauli" | "projector" | "census"
    text: str = ""       # Pauli or projector text handed to the CLI
    paulis: int = 1      # expectations this op completes


@dataclass
class Answer:
    op: Op
    stdout: str
    value: float = math.nan
    record: dict = field(default_factory=dict)
    hist: dict = field(default_factory=dict)


def _letters(rng: np.random.Generator, n: int) -> str:
    return "".join(LETTERS[int(v)] for v in rng.integers(0, 4, size=n))


def _symplectic(text: str) -> tuple[int, int]:
    p = PauliOperator.from_str(text)
    return p.x_mask, p.z_mask


def _commutes(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 0


def _independent(vectors: list[int]) -> bool:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v == 0:
            return False
        basis.append(v)
    return True


def random_projector(rng: np.random.Generator, n: int, factors: int) -> str:
    """Signed, commuting, independent, non-identity factors: '+XZ..,-YI..'."""
    chosen: list[str] = []
    while len(chosen) < factors:
        cand = _letters(rng, n)
        if set(cand) == {"I"}:
            continue
        sv = _symplectic(cand)
        if not all(_commutes(sv, _symplectic(c)) for c in chosen):
            continue
        vecs = [x | (z << n) for x, z in map(_symplectic, chosen + [cand])]
        if _independent(vecs):
            chosen.append(cand)
    signs = rng.integers(0, 2, size=factors)
    return ",".join(("-" if s else "+") + c for s, c in zip(signs, chosen))


class Workload:
    name = ""
    stream_id = 0
    digest_ops = 1       # fixed op prefix: answer digest and traced pass

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self) -> Iterator[Op]:
        rng = np.random.default_rng([self.seed, self.stream_id, 0])
        i = 0
        while True:
            yield self.make_op(rng, i)
            i += 1

    def warmup_op(self) -> Op:
        """The untimed first op; the same for every seed, so that setup_s
        measures set-up rather than the cost of a seed's first input."""
        rng = np.random.default_rng([self.stream_id, 1])
        return self.make_op(rng, 0)

    def make_op(self, rng: np.random.Generator, i: int) -> Op:
        raise NotImplementedError

    def parse(self, op: Op, stdout: str) -> Answer:
        rec = json.loads(stdout.strip().splitlines()[-1])
        return Answer(op, stdout, float(rec["value"]), rec)

    def check(self, ans: Answer) -> Optional[str]:
        """None when the answer is right, else a one-line reason."""
        raise NotImplementedError

    def check_run(self, answers: list[Answer]) -> Optional[str]:
        """Run-level check over all answers; None when it passes."""
        return None

    def diagnostics(self, answers: list[Answer]) -> dict:
        return {}


class ExactWorkload(Workload):
    name = "exact"
    stream_id = 1
    digest_ops = 6
    t = 12

    def __init__(self, seed: int):
        super().__init__(seed)
        self._vec = dense_magic_state(self.t)

    def make_op(self, rng, i):
        base = ["expect", "--t", str(self.t), "--mode", "exact"]
        if i % 2 == 0:
            sign = "-1:" if rng.integers(0, 2) else ""
            text = sign + _letters(rng, self.t)
            return Op(base + [f"--pauli={text}"], "pauli", text)
        text = random_projector(rng, self.t, 1 + (i // 2) % 3)
        return Op(base + [f"--projector={text}"], "projector", text)

    def reference(self, op: Op) -> float:
        if op.kind == "pauli":
            return dense_pauli_expect(self._vec, PauliOperator.from_str(op.text)).real
        return dense_projector_expect(self._vec, parse_projector(op.text))

    def check(self, ans):
        want = self.reference(ans.op)
        if not abs(ans.value - want) <= 1e-9:
            return f"{ans.op.text}: {ans.value!r} != dense {want!r}"
        if ans.op.kind == "pauli":
            g = expect_single_pauli(self.t, PauliOperator.from_str(ans.op.text))
            if not abs(ans.value - g.expectation) <= 1e-12:
                return f"{ans.op.text}: {ans.value!r} != gauss {g.expectation!r}"
        return None


class SampledWorkload(ExactWorkload):
    name = "sampled"
    stream_id = 2
    digest_ops = 6
    t = 6

    def make_op(self, rng, i):
        base = ["expect", "--t", str(self.t), "--mode", "sampled",
                "--epsilon", str(EPSILON), "--pf", str(P_FAIL),
                "--seed", str(int(rng.integers(0, 2 ** 31)))]
        if i % 2 == 0:
            text = _letters(rng, self.t)
            return Op(base + [f"--pauli={text}"], "pauli", text)
        text = random_projector(rng, self.t, 1 + (i // 2) % 2)
        return Op(base + [f"--projector={text}"], "projector", text)

    def check(self, ans):
        if not math.isfinite(ans.value):
            return f"{ans.op.text}: non-finite estimate {ans.value!r}"
        return None

    def _errors(self, answers):
        return np.array([a.value - self.reference(a.op) for a in answers])

    def bias_z(self, answers) -> float:
        """Mean estimator error in standard errors of that mean."""
        err = self._errors(answers)
        if len(err) < 2:
            return 0.0
        se = float(np.std(err, ddof=1)) / math.sqrt(len(err))
        return float(np.mean(err)) / se if se > 0 else 0.0

    def check_run(self, answers):
        z = self.bias_z(answers)
        if abs(z) > SAMPLED_Z_LIMIT:
            return f"sampled estimator biased: mean error is {z:.2f} standard errors"
        return None

    def diagnostics(self, answers):
        err = self._errors(answers)
        return {"strong_sim.sampled.within_eps_ratio":
                float(np.mean(np.abs(err) <= EPSILON)) if len(err) else 0.0,
                "strong_sim.sampled.bias_se": self.bias_z(answers)}


class GaussWorkload(Workload):
    name = "gauss"
    stream_id = 3
    digest_ops = 200

    def __init__(self, seed):
        super().__init__(seed)
        self._vecs = {k: dense_magic_state(k) for k in set(GAUSS_ORACLE_BLOCKS)}

    def make_op(self, rng, i):
        text = _letters(rng, GAUSS_T)
        return Op(["expect", "--t", str(GAUSS_T), "--mode", "gauss",
                   "--pauli", text], "pauli", text)

    def check(self, ans):
        want = 1.0
        off = 0
        for k in GAUSS_ORACLE_BLOCKS:
            sub = PauliOperator.from_str(ans.op.text[off:off + k])
            want *= dense_pauli_expect(self._vecs[k], sub).real
            off += k
        if not abs(ans.value - want) <= 1e-9:
            return f"{ans.op.text}: {ans.value!r} != dense blocks {want!r}"
        return None

    def diagnostics(self, answers):
        u = [int(a.record["unique_nonzero_sums"]) for a in answers]
        return {"gauss.unique_nonzero_sums.mean": float(np.mean(u)),
                "gauss.unique_nonzero_sums.max": float(max(u))}


class CensusWorkload(Workload):
    name = "census"
    stream_id = 4
    digest_ops = 10

    def make_op(self, rng, i):
        return Op(["census", "--k", str(CENSUS_K), "--mode", "sampled",
                   "--samples", str(CENSUS_SAMPLES),
                   "--seed", str(int(rng.integers(0, 2 ** 31))),
                   "--workers", "1"], "census", paulis=CENSUS_SAMPLES)

    def parse(self, op, stdout):
        lines = stdout.strip().splitlines()
        rec = json.loads(lines[-1])
        if lines[0] != "k,mode,unique_nonzero_sums,count":
            raise ValueError(f"unexpected census header {lines[0]!r}")
        hist = {}
        for line in lines[1:-1]:
            _, _, u, c = line.split(",")
            hist[int(u)] = int(c)
        return Answer(op, stdout, float(rec["max_unique"]), rec, hist)

    def check(self, ans):
        hist = ans.hist
        if not hist:
            return "empty census histogram"
        if sum(hist.values()) != CENSUS_SAMPLES or ans.record["total"] != CENSUS_SAMPLES:
            return f"census total {sum(hist.values())} != {CENSUS_SAMPLES}"
        if min(hist) < 0 or max(hist) > CENSUS_MAX_UNIQUE:
            return f"census bucket outside 0..{CENSUS_MAX_UNIQUE}: {sorted(hist)}"
        if ans.record["max_unique"] != max(hist):
            return "census max_unique disagrees with the histogram"
        if max(hist, key=lambda u: (hist[u], -u)) != 0:
            return "census: 0 is not the most common bucket"
        return None

    def diagnostics(self, answers):
        total = sum(sum(a.hist.values()) for a in answers)
        weighted = sum(u * c for a in answers for u, c in a.hist.items())
        return {"gauss.unique_nonzero_sums.mean": weighted / total,
                "gauss.unique_nonzero_sums.max":
                float(max(max(a.hist) for a in answers))}


def parse_projector(text: str) -> PauliProjector:
    factors = []
    for part in text.split(","):
        sign = -1 if part[0] == "-" else 1
        factors.append((PauliOperator.from_str(part[1:]), sign))
    return PauliProjector(factors[0][0].n, tuple(factors))


WORKLOADS = {w.name: w for w in
             (ExactWorkload, SampledWorkload, GaussWorkload, CensusWorkload)}
