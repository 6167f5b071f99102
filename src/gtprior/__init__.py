"""Group-testing simulation and decoding with Ising-model priors.

Samples defectivity vectors from Ising priors over graphs, simulates
Bernoulli-designed noiseless/noisy group tests, decodes with sparsity and
MAP (integer) linear programs plus relaxations, and evaluates the
information-theoretic achievability/converse bound formulas.
"""

from .core import (DefectiveSet, DefectivityVector, ErrorReport,
                   approx_distance, count_fp_fn)
from .decoders import (CandidateFamily, DecodeResult, DecoderSpec,
                       brute_force_map, build_ising_linearized_model,
                       build_sparsity_model, decode, decoder_spec,
                       info_density, map_score, threshold_decode)
from .milp import (MilpModel, MilpSolution, NumericalError, dump_model,
                   feasibility_violation, solve_ilp, solve_lp)
from .prior import (IsingPrior, ItemGraph, build_block, build_grid,
                    exact_marginals, gibbs_marginal_estimate, gibbs_sample,
                    gibbs_sample_ensemble, load_edge_list,
                    log_unnormalized_prob, log_unnormalized_prob_many,
                    perturb_edges, subsample_vertices)
from .testing import (NoiseSpec, OutcomeVector, TestDesign, bernoulli_design,
                      run_tests)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
