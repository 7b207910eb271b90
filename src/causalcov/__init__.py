"""causalcov: tail bounds for empirical covariances of causal Gaussian processes.

Construct block-causal Gaussian processes (including lifted VAR models),
evaluate lower-tail / anticoncentration and upper-tail bounds on their
empirical covariance, run the least-squares identification pipeline with
its finite-sample guarantee, and certify every bound by seeded Monte-Carlo
against exact oracles.
"""

__version__ = "0.1.0"

from . import bounds, config, estimator, linalg, montecarlo, process
from .bounds import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import (
    BurninUnsatisfied,
    CausalCovError,
    ConfigError,
    DegenerateDirection,
    HorizonTooShort,
    InsufficientExcitation,
    InvalidInput,
    NonFiniteBound,
    SingularDecoupledCovariance,
    SingularGram,
)
from .estimator import *  # noqa: F403
from .linalg import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .process import *  # noqa: F403

# the public names: each module's __all__ is the one list of its own, and
# errors, which has none, is exported as a whole
__all__ = ["__version__"]
__all__ += linalg.__all__
__all__ += process.__all__
__all__ += bounds.__all__
__all__ += estimator.__all__
__all__ += montecarlo.__all__
__all__ += config.__all__
__all__ += [
    "CausalCovError",
    "ConfigError",
    "InvalidInput",
    "HorizonTooShort",
    "DegenerateDirection",
    "SingularDecoupledCovariance",
    "InsufficientExcitation",
    "BurninUnsatisfied",
    "SingularGram",
    "NonFiniteBound",
]
