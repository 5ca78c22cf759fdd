"""The call sites that ``perfbench/layers.py`` counts per layer.

The probe records a layer by rebinding a module-level name, so each of these
names must be looked up at call time, once per unit of work it stands for.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmagic.gf2
import tmagic.stabilizer
import tmagic.strong_sim
from tmagic.catalog import catalog_entry
from tmagic.cli import main
from tmagic.gf2 import solve_columns
from tmagic.pauli import PauliOperator
from tmagic.phase_ring import ZERO
from tmagic.stabilizer import apply_pauli_state, inner_product


def _record(monkeypatch, owner, attr):
    """Rebind owner.attr to a wrapper that logs each result; return the log."""
    fn = getattr(owner, attr)
    log = []

    def wrapper(*args):
        res = fn(*args)
        log.append(res)
        return res
    monkeypatch.setattr(owner, attr, wrapper)
    return log


def test_exact_pauli_op_gram_calls(monkeypatch, capsys):
    # the Gram engine reduces against pivot tables built by gf2.eliminate:
    # no inner_product (strong_sim no longer imports it) and no
    # solve_columns.  It builds one elimination plan
    # per class block with a consistent entry, kept with the cached pair,
    # and evaluates it once per consistent entry
    assert not hasattr(tmagic.strong_sim, "inner_product")
    # the upper-triangle entries by class block, as _hermitian_sum takes them
    p = PauliOperator.from_str("XYZIYX")
    states = [s for _, s in catalog_entry(6).terms]
    classes = tmagic.strong_sim._classes(states)
    block_of = {j: a for a, js in enumerate(classes) for j in js}
    blocks: dict = {}
    zeros = 0
    for j, a in enumerate(states):
        for l in range(j, len(states)):
            ket = apply_pauli_state(states[l], p)
            if solve_columns(list(a.basis) + list(ket.basis),
                             a.shift ^ ket.shift, 6) is None:
                continue
            # the diagonal and upper blocks of a class pair share its plan
            key = (block_of[j], block_of[l])
            blocks[key] = blocks.get(key, 0) + 1
            zeros += inner_product(a, ket) == ZERO
    consistent = sum(blocks.values())
    monkeypatch.setattr(tmagic.strong_sim, "_GRAM_PAIRS", {})
    solves = _record(monkeypatch, tmagic.stabilizer, "solve_columns")
    plans = _record(monkeypatch, tmagic.stabilizer, "exponential_sum")
    values = _record(monkeypatch, tmagic.stabilizer, "plan_value")
    argv = ["expect", "--t", "6", "--pauli", "XYZIYX", "--mode", "exact"]
    main(argv)
    assert '"inner_products": 28' in capsys.readouterr().out
    assert solves == []
    assert len(classes) == 5 and 0 < consistent < 28
    assert len(blocks) < consistent  # fewer plans than entries
    assert len(plans) == len(blocks)
    assert len(values) == consistent
    assert 0 < values.count(None) == zeros < consistent
    # the same op again: the kept plans serve it, and no plan is built
    main(argv)
    capsys.readouterr()
    assert len(plans) == len(blocks)
    assert values[consistent:] == values[:consistent]


def test_repeated_t12_pauli_op_builds_no_plan(monkeypatch, capsys):
    monkeypatch.setattr(tmagic.strong_sim, "_GRAM_PAIRS", {})
    plans = _record(monkeypatch, tmagic.stabilizer, "exponential_sum")
    values = _record(monkeypatch, tmagic.stabilizer, "plan_value")
    argv = ["expect", "--t", "12", "--pauli=-1:IIXYXIXIIYXI", "--mode", "exact"]
    main(argv)
    first = capsys.readouterr().out
    built, evaluated = len(plans), len(values)
    assert 0 < built < evaluated <= 1128
    main(argv)
    assert capsys.readouterr().out == first
    assert len(plans) == built
    assert values[evaluated:] == values[:evaluated]


@pytest.mark.parametrize("operator, plans, evaluated, zeros", [
    (["--pauli", "XYZIXZ"], 298, 420, 122),
    (["--projector", "+XXIIZZ,-ZZYYII"], 300, 421, 137),
])
def test_sampled_op_kernel_calls(monkeypatch, capsys, operator, plans,
                                 evaluated, zeros):
    # the kets are projector_kets, so nothing is projected and nothing
    # calls solve_columns: the diagonal pass, one gram_entries call and one
    # plan per class of the 7 terms (5), finds every term kept with 7
    # evaluations; then one plan per (random state, ket group) block
    # with a consistent entry, built on the block's extended form, 293 and
    # 295 of the 60 x 5 blocks, and one evaluation per consistent (psi,
    # ket) pair, 413 and 414; one random state per sample.  The cache
    # starts cold: a diagonal block whose factor column closes no null
    # vector uses, and keeps, the pair's own plan
    monkeypatch.setattr(tmagic.strong_sim, "_GRAM_PAIRS", {})
    log = {name: _record(monkeypatch, owner, name) for owner, name in (
        (tmagic.stabilizer, "exponential_sum"),
        (tmagic.stabilizer, "plan_value"),
        (tmagic.strong_sim, "gram_entries"),
        (tmagic.strong_sim, "random_stabilizer_state"),
        (tmagic.stabilizer, "solve_columns"),
        (tmagic.gf2, "rank_of"))}
    main(["expect", "--t", "6", "--mode", "sampled", "--seed", "11",
          "--samples", "60", *operator])
    assert '"inner_products": 420' in capsys.readouterr().out
    assert len(log["gram_entries"]) == 5 + 60 * 5
    assert [len(ks) for ks in log["gram_entries"][:5]] == [2, 2, 1, 1, 1]
    assert not any(None in ks for ks in log["gram_entries"][:5])
    assert len(log["exponential_sum"]) == plans
    assert len(log["plan_value"]) == evaluated
    assert log["plan_value"].count(None) == zeros
    assert len(log["random_stabilizer_state"]) == 60
    assert log["solve_columns"] == []
    assert len(log["rank_of"]) == 138


def test_random_state_reaches_rank_of(monkeypatch):
    ranks = _record(monkeypatch, tmagic.gf2, "rank_of")
    draws = tmagic.stabilizer.RawDraws(np.random.PCG64(0).random_raw)
    s = tmagic.stabilizer.random_stabilizer_state(6, draws)
    assert ranks and ranks[-1] == s.m


def test_perfbench_trace_runs():
    # one traced op of each workload: perfbench imports, rebinds and calls
    # program internals (the Generator that kernel_scaling draws states
    # from, stabilizer.solve_columns, tmagic._gauss_kernels), so a change
    # under src that breaks any of them fails here
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "all", "--trace", "1", "--seed", "1"],
                          cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
