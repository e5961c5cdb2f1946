"""curlgauge: exact order-consistency diagnostics for local conditional models.

Treats a model as a family of local conditionals q(x_i | visible context)
and measures, by exact enumeration on desk-scale tabular models, whether
those conditionals compose into order-invariant sequential products:
local circulation and its aggregates, two-order KL gaps, adjacent-swap
decompositions, conditional total correlation, order-specific estimation
error, operator commutators, decoding schedulers, and a controlled
synthetic model zoo with a tabular trainer and compatibility regularizer.
"""

__version__ = "0.1.0"

from .core import (
    ConditionalOracle,
    LogitTable,
    LogitTableOracle,
    ModelBundle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    Vocabulary,
    load_model,
    save_model,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateComparisonError,
    DimensionError,
    IdentityCheckError,
    SizeCapError,
    TrainingFailureError,
)

__all__ = [
    "__version__",
    "ConditionalOracle",
    "LogitTable",
    "LogitTableOracle",
    "ModelBundle",
    "PartialContext",
    "PerturbedConditionalModel",
    "TabularJointModel",
    "Vocabulary",
    "load_model",
    "save_model",
    "ConfigError",
    "ContractViolationError",
    "DegenerateComparisonError",
    "DimensionError",
    "IdentityCheckError",
    "SizeCapError",
    "TrainingFailureError",
]
