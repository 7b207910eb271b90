"""Exception taxonomy shared across the package."""


class CausalCovError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(CausalCovError, ValueError):
    """Malformed or out-of-domain argument (shapes, symmetry, PSD, ranges)."""


class HorizonTooShort(InvalidInput):
    """Horizon T admits no complete block of the requested length."""


class DegenerateDirection(CausalCovError):
    """Probing direction annihilates every diagonal block (S1 = 0)."""


class SingularDecoupledCovariance(CausalCovError):
    """Summed decoupled per-time covariance is singular; psi is undefined."""


class InsufficientExcitation(CausalCovError):
    """Gamma_k is singular at the requested block length."""


class BurninUnsatisfied(CausalCovError):
    """Horizon fails the burn-in inequality at the requested confidence."""


class SingularGram(CausalCovError):
    """Regularized Gram matrix is singular; inverse square root undefined."""


class NonFiniteBound(CausalCovError):
    """A probability bound evaluated to NaN or infinity (or overflowed on the
    way), or a quantity it needs could not be certified, so it certifies nothing."""


class ConfigError(CausalCovError):
    """Experiment configuration is malformed or inconsistent."""
