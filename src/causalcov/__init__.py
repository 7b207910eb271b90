"""causalcov: tail bounds for empirical covariances of causal Gaussian processes.

Construct block-causal Gaussian processes (including lifted VAR models),
evaluate lower-tail / anticoncentration and upper-tail bounds on their
empirical covariance, run the least-squares identification pipeline with
its finite-sample guarantee, and certify every bound by seeded Monte-Carlo
against exact oracles.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    anticoncentration_bound,
    arma_corollary_bound,
    arma_prefactor,
    armastability_bound,
    block_trace_sums,
    causal_exp_inequality,
    chernoff_lower_tail,
    chernoff_threshold,
    exact_mgf,
    mgf_subexp_lemma,
    mgf_upper_bound,
    psi_k,
    upper_tail_bound,
)
from .config import ExperimentConfig, load_config, resolve_block_length
from .errors import (
    BurninUnsatisfied,
    CausalCovError,
    ConfigError,
    DegenerateDirection,
    HorizonTooShort,
    InsufficientExcitation,
    InvalidInput,
    SingularDecoupledCovariance,
    SingularGram,
)
from .estimator import (
    LsFit,
    burnin_check,
    error_decomposition,
    least_squares,
    ls_bound_details,
    ls_error_bound,
    self_normalized_bound,
)
from .linalg import CausalOperator, SymMatrix, require_psd, trace_square
from .montecarlo import (
    TailExperiment,
    run_identification_experiment,
    run_mgf_experiment,
    run_tail_experiment,
    wilson_interval,
)
from .process import (
    PathBatch,
    ProcessSpec,
    VarSystem,
    companion,
    decoupled_covariance_sum,
    derive_seed,
    effective_horizon,
    empirical_covariance,
    gamma_k,
    kappa,
    noise_block,
    paths_from_noise,
    per_time_covariance,
    sample,
    var_time_covariances,
    var_to_operator,
)

__all__ = [
    "__version__",
    # linalg
    "CausalOperator",
    "SymMatrix",
    "require_psd",
    "trace_square",
    # process
    "PathBatch",
    "ProcessSpec",
    "VarSystem",
    "companion",
    "decoupled_covariance_sum",
    "derive_seed",
    "effective_horizon",
    "empirical_covariance",
    "gamma_k",
    "kappa",
    "noise_block",
    "paths_from_noise",
    "per_time_covariance",
    "sample",
    "var_time_covariances",
    "var_to_operator",
    # bounds
    "BoundReport",
    "anticoncentration_bound",
    "arma_corollary_bound",
    "arma_prefactor",
    "armastability_bound",
    "block_trace_sums",
    "causal_exp_inequality",
    "chernoff_lower_tail",
    "chernoff_threshold",
    "exact_mgf",
    "mgf_subexp_lemma",
    "mgf_upper_bound",
    "psi_k",
    "upper_tail_bound",
    # estimator
    "LsFit",
    "burnin_check",
    "error_decomposition",
    "least_squares",
    "ls_bound_details",
    "ls_error_bound",
    "self_normalized_bound",
    # monte-carlo
    "TailExperiment",
    "run_identification_experiment",
    "run_mgf_experiment",
    "run_tail_experiment",
    "wilson_interval",
    # config / errors
    "ExperimentConfig",
    "load_config",
    "resolve_block_length",
    "CausalCovError",
    "ConfigError",
    "InvalidInput",
    "HorizonTooShort",
    "DegenerateDirection",
    "SingularDecoupledCovariance",
    "InsufficientExcitation",
    "BurninUnsatisfied",
    "SingularGram",
]
