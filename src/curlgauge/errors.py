"""Exception types shared across the toolkit."""


class ContractViolationError(ValueError):
    """An operation was called outside its documented contract."""


class DimensionError(ValueError):
    """Positions or token ids do not fit the model's declared shape."""


class SizeCapError(RuntimeError):
    """A request exceeds the desk-scale enumeration caps."""


class DegenerateComparisonError(RuntimeError):
    """A commutator comparison would leave no unresolved coordinates."""


class TrainingFailureError(RuntimeError):
    """Training loss became non-finite; the run history is attached."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history


class IdentityCheckError(RuntimeError):
    """Two independent computations of one exact identity disagree past its
    tolerance: a fault in the program or the model, not in the config."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or has unknown fields."""
