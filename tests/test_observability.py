"""The call sites that ``perfbench/layers.py`` counts per layer.

The probe records a layer by rebinding a module-level name, so each of these
names must be looked up at call time, once per unit of work it stands for.
"""

import numpy as np
import pytest

import tmagic.gf2
import tmagic.stabilizer
import tmagic.strong_sim
from tmagic.catalog import catalog_entry
from tmagic.cli import main
from tmagic.gf2 import solve_columns
from tmagic.pauli import PauliOperator


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
    # the Gram engine reduces against pivot tables built by gf2.eliminate
    # and projects nothing: no inner_product (strong_sim no longer imports
    # it), solve_columns or measure_pauli
    assert not hasattr(tmagic.strong_sim, "inner_product")
    measures = _record(monkeypatch, tmagic.strong_sim, "measure_pauli")
    solves = _record(monkeypatch, tmagic.stabilizer, "solve_columns")
    sums = _record(monkeypatch, tmagic.stabilizer, "exponential_sum")
    main(["expect", "--t", "3", "--pauli", "XYZ", "--mode", "exact"])
    assert '"inner_products": 6' in capsys.readouterr().out
    assert measures == solves == []
    # one exponential sum per consistent pair; XYZ has an inconsistent one
    x = PauliOperator.from_str("XYZ").x_mask
    states = [s for _, s in catalog_entry(3).terms]
    consistent = sum(
        solve_columns(list(a.basis) + list(b.basis), a.shift ^ b.shift ^ x, 3)
        is not None for j, a in enumerate(states) for b in states[j:])
    assert 0 < consistent < 6
    assert len(sums) == consistent


@pytest.mark.parametrize("operator, sums, zeros, measures", [
    (["--pauli", "XYZIXZ"], 413, 122, 7),
    (["--projector", "+XXIIZZ,-ZZYYII"], 406, 129, 14),
])
def test_sampled_op_kernel_calls(monkeypatch, capsys, operator, sums, zeros,
                                 measures):
    # one exponential sum per consistent (psi, ket) pair, as when each
    # overlap was an inner_product (the counts are that engine's), one
    # random state per sample, and no solve_columns beyond measure_pauli's
    # one per call: the sample loop reduces against GramPair tables
    log = {name: _record(monkeypatch, owner, name) for owner, name in (
        (tmagic.stabilizer, "exponential_sum"),
        (tmagic.strong_sim, "random_stabilizer_state"),
        (tmagic.strong_sim, "measure_pauli"),
        (tmagic.stabilizer, "solve_columns"),
        (tmagic.gf2, "rank_of"))}
    main(["expect", "--t", "6", "--mode", "sampled", "--seed", "11",
          "--samples", "60", *operator])
    assert '"inner_products": 420' in capsys.readouterr().out
    assert len(log["exponential_sum"]) == sums
    assert log["exponential_sum"].count(None) == zeros
    assert len(log["random_stabilizer_state"]) == 60
    assert len(log["measure_pauli"]) == len(log["solve_columns"]) == measures
    assert len(log["rank_of"]) == 138


def test_random_state_reaches_rank_of(monkeypatch):
    ranks = _record(monkeypatch, tmagic.gf2, "rank_of")
    s = tmagic.stabilizer.random_stabilizer_state(6, np.random.default_rng(0))
    assert ranks and ranks[-1] == s.m
