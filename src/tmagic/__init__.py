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
block cover both engines share lives in ``tmagic.blocks``.
``expect --mode exact|gauss`` and ``catalog`` never import numpy, while
the sampled estimator, ``census``, ``bench`` and ``verify`` import it
inside the functions that build arrays or random generators.
"""

__version__ = "0.1.0"
