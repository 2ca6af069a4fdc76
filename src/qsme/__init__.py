"""Simulation and validation toolkit for diffusive quantum stochastic master equations.

Integrates the linear and trace-preserving nonlinear filtering equations for
pure and mixed states, the weighted-ensemble unraveling, and their mean-field
(McKean-Vlasov) extension, and ships statistical test engines that turn the
theory's martingale, positivity, growth and continuity claims into pinned-seed
checks at finite dimension.
"""

from .errors import TrajectoryAbort
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Propagator,
    hermitianize,
    positive_parts,
)
from .noise import sample_wiener_batch
from .pure import (
    PureFilterParams,
    expectation,
    jacobian_norm_estimate,
    linear_pure_step,
    run_linear,
    run_nonlinear,
)
from .master import (
    SMEParams,
    deterministic_lindblad_path,
    lindblad_generator,
    nonlinear_sme_step,
    normalize_path,
    reconstruct_path,
    run_linear_sme,
    run_nonlinear_sme,
)
from .ensemble import (
    WeightedEnsemble,
    decompose_state,
    run_ensemble,
)
from .meanfield import (
    InteractionMap,
    MeanFieldConfig,
    apply_interaction,
    mckean_vlasov_solve,
    reweighted_expectation,
)
from .suites import MonteCarloConfig

__all__ = [
    "TrajectoryAbort",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "Propagator", "hermitianize", "positive_parts",
    "sample_wiener_batch",
    "PureFilterParams", "expectation", "jacobian_norm_estimate", "linear_pure_step",
    "run_linear", "run_nonlinear",
    "SMEParams", "deterministic_lindblad_path", "lindblad_generator",
    "nonlinear_sme_step", "normalize_path", "reconstruct_path",
    "run_linear_sme", "run_nonlinear_sme",
    "WeightedEnsemble", "decompose_state", "run_ensemble",
    "InteractionMap", "MeanFieldConfig", "apply_interaction", "mckean_vlasov_solve",
    "reweighted_expectation",
    "MonteCarloConfig",
]

__version__ = "0.1.0"
