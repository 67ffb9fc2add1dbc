"""Shared exception and warning types."""


class DimensionMismatchError(ValueError):
    """Operands live on spaces of incompatible dimension."""


class TruncationWarning(UserWarning):
    """A coherent amplitude is too large for the chosen Fock cutoff."""


class UnsupportedSourceError(ValueError):
    """The requested operation is not defined for this source model."""


class StepProbabilityError(RuntimeError):
    """Per-step jump probability exceeded the hard limit for the fixed-step scheme."""


class InvariantViolationError(RuntimeError):
    """A density-operator invariant (trace, hermiticity, positivity) was violated mid-run."""


class ConfigError(ValueError):
    """A run's configuration, its config file or CASCADESIM_WORKERS, is malformed."""
