"""Exception types shared across the package."""

__all__ = [
    "ConditionNotSatisfiedError",
    "DegenerateNormalizationError",
    "MixedStateError",
    "ModelFileError",
    "ModelValidationError",
]


class ModelValidationError(ValueError):
    """A model object violates one of its structural invariants."""


class ModelFileError(ValueError):
    """A model file failed to parse or to map onto a valid model."""


class ConditionNotSatisfiedError(RuntimeError):
    """An operation requires a decoherence condition that the set does not meet."""


class DegenerateNormalizationError(ValueError):
    """The two-state normalization Tr(rho_f rho_i) vanishes."""


class MixedStateError(ValueError):
    """An operation defined for pure states received a mixed state."""
