"""Strong simulation of Clifford+T circuits on tensored T-gate magic states.

Two evaluation pathways share one exact arithmetic core:

* stabilizer-rank path: magic-state decompositions (2/2/3/7/47 terms at
  T-counts 1/2/3/6/12) driven through a quadratic-form stabilizer kernel,
  exactly or with two-design sampling;
* Gauss-sum fast path: closed-form evaluators for single-Pauli
  expectations with per-evaluation unique-sum accounting.
"""

from .phase_ring import ExactAmplitude, eighth_root, i_power
from .gf2 import AffineSpace
from .pauli import PauliOperator, PauliProjector, commute, random_pauli
from .stabilizer import (StabilizerState, apply_pauli_state, exponential_sum,
                         extend, inner_product, measure_pauli,
                         random_stabilizer_state, shrink,
                         stabilizer_state_count)
from .catalog import (MagicDecomposition, block_cover, block_decomposition,
                      catalog_entry, extend_with_zeros, read_catalog_file,
                      t1_decomposition, t2_decomposition, t3_decomposition,
                      t6_decomposition, t12_decomposition, tensor,
                      write_catalog_file)
from .dense import (dense_magic_state, dense_magic_state_exact,
                    dense_pauli_expect, dense_projector_expect)
from .gauss import (GaussSumReport, GaussSumTerm, WORST_CASE_UNIQUE,
                    expect_block, expect_single_pauli, gauss_sum_eval,
                    rank_census)
from .strong_sim import (SimulationResult, SimulationTask, exact_expectation,
                         exact_pauli_expectation, run_task, sample_count,
                         sampled_expectation)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
