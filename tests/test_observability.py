"""The call sites that ``perfbench/layers.py`` counts per layer.

The probe records a layer by rebinding a module-level name, so each of these
names must be looked up at call time, once per unit of work it stands for.
"""

import numpy as np

import tmagic.gf2
import tmagic.stabilizer
import tmagic.strong_sim
from tmagic.cli import main


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


def test_exact_pauli_op_layer_calls(monkeypatch, capsys):
    products = _record(monkeypatch, tmagic.strong_sim, "inner_product")
    solves = _record(monkeypatch, tmagic.stabilizer, "solve_columns")
    sums = _record(monkeypatch, tmagic.stabilizer, "exponential_sum")
    main(["expect", "--t", "3", "--pauli", "XYZ", "--mode", "exact"])
    assert '"inner_products": 6' in capsys.readouterr().out
    assert len(products) == 3 * 4 // 2  # chi(chi+1)/2 for chi = 3
    assert len(solves) == len(products)
    # one exponential sum per consistent pair; XYZ has an inconsistent one
    consistent = sum(sol is not None for sol in solves)
    assert 0 < consistent < len(solves)
    assert len(sums) == consistent


def test_random_state_reaches_rank_of(monkeypatch):
    ranks = _record(monkeypatch, tmagic.gf2, "rank_of")
    s = tmagic.stabilizer.random_stabilizer_state(6, np.random.default_rng(0))
    assert ranks and ranks[-1] == s.m
