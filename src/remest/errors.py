"""Exception hierarchy shared across the package.

Everything derives from RemestError so callers can catch library failures
without swallowing programming errors.  Validation errors (bad matrices,
bad configs) are distinguished from numerical failures (ConvergenceFailure:
an iteration cap of SPI or RVI, or a direct solve whose residual check
fails) because the CLI maps them to different exit codes.
"""


class RemestError(Exception):
    """Base class for all library errors."""


class ValidationError(RemestError):
    """Bad model or configuration input."""


class RowSumError(ValidationError):
    """A transition-matrix row does not sum to one."""


class NegativeEntryError(ValidationError):
    """A probability entry is negative (or above one)."""


class ReducibleChainError(ValidationError):
    """The support digraph of the transition matrix is not strongly connected."""


class DomainError(ValidationError):
    """A scalar parameter lies outside its admissible range."""


class DistortionDiagonalError(ValidationError):
    """The distortion matrix has a nonzero diagonal entry."""


class ConfigError(ValidationError):
    """A config file failed strict decoding (unknown key, missing key, bad value)."""


class ConvergenceFailure(RemestError):
    """A numerical routine hit its iteration cap or failed its residual check."""


class DegenerateSlopesError(RemestError):
    """Tangent intersection is undefined: both endpoints share one slope."""


class BadBracketError(RemestError):
    """The multiplier search bracket does not straddle the frequency budget."""


class NoProgressError(RemestError):
    """Multiplier search stalled: both bracket endpoints on one side of the budget."""


class InfeasiblePairError(RemestError):
    """Mixture construction got two policies that do not straddle the budget."""


class SupportMismatchError(RemestError):
    """KL divergence undefined: truncated mass on states the reference never visits."""

    def __init__(self, message, states=None):
        super().__init__(message)
        self.states = list(states) if states is not None else []
