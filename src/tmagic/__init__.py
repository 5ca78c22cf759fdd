"""Strong simulation of Clifford+T circuits on tensored T-gate magic states.

Two evaluation pathways share one exact arithmetic core:

* stabilizer-rank path: magic-state decompositions (2/2/3/7/47 terms at
  T-counts 1/2/3/6/12) driven through a quadratic-form stabilizer kernel,
  exactly or with two-design sampling;
* Gauss-sum fast path: closed-form evaluators for single-Pauli
  expectations with per-evaluation unique-sum accounting.

The package re-exports nothing: import from the submodules
(``tmagic.strong_sim``, ``tmagic.gauss``, ``tmagic.stabilizer``, ...).
Each command loads only what it runs: the CLI imports an engine inside
the command that runs it, so ``expect --mode gauss`` and ``census`` never
load the stabilizer-rank modules (``catalog``, ``stabilizer``,
``strong_sim``) and ``expect --mode exact`` never loads ``gauss``; the
block cover both engines share lives in ``tmagic.blocks``.  On the
stabilizer-rank path only the sampled estimator loads ``tmagic.draws``.
The value classes (``ExactAmplitude``, ``PauliOperator``,
``PauliProjector``, ``StabilizerState``, ``MagicDecomposition``,
``GaussSumReport``, ``SimulationResult``) are plain slotted classes whose
``__init__`` runs their checks; they are treated as immutable.  The five
compared by value share ``tmagic.value.Value``, which writes equality,
hashing and the repr once from each class's ``_fields``.  No module here
imports the standard library's data-class module (it would pull in
``inspect`` at every start).
``expect --mode exact|gauss``, ``catalog`` and ``census`` never import
numpy: the census draws its seeded letter rows from a pure-Python PCG64
stream (``tmagic.draws``), as numpy's Generator would.  The sampled
estimator, ``bench`` and ``verify`` import numpy inside the functions that
build arrays or random generators.
"""

__version__ = "0.1.0"
