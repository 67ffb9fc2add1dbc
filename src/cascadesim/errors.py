"""Shared exception and warning types."""


class DimensionMismatchError(ValueError):
    """Operands live on spaces of incompatible dimension."""


class TruncationWarning(UserWarning):
    """The Fock cutoff is too low: for a coherent amplitude, or for a
    birth-death run whose rows reached quanta sector n_max, where truncation
    already drops the gain jump of |n_max, ground>."""


class UnsupportedSourceError(ValueError):
    """The requested operation is not defined for this source model."""


class StepProbabilityError(RuntimeError):
    """Per-step jump probability exceeded the hard limit for the fixed-step scheme."""


class InvariantViolationError(RuntimeError):
    """A density-operator invariant (trace, hermiticity, positivity) was violated mid-run."""


class ConfigError(ValueError):
    """A run's configuration, its config file or CASCADESIM_WORKERS, is malformed."""
