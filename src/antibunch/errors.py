"""Exception types and the g2 intensity floor shared across the package."""

# Mean photon number below which g2 is reported as an error, not a number.
INTENSITY_FLOOR = 1e-12


class AntibunchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(AntibunchError, ValueError):
    """A Fock-space truncation dimension is too small to be meaningful."""


class DimensionMismatchError(AntibunchError, ValueError):
    """Operands live in truncated spaces of different sizes."""


class TruncationError(AntibunchError, ValueError):
    """A requested operation is unsafe at the given truncation.

    Recoverable: ``recommended_dim`` is a dimension at which the same call
    is expected to succeed.
    """

    def __init__(self, message: str, recommended_dim: int):
        super().__init__(f"{message} (retry with dim >= {recommended_dim})")
        self.recommended_dim = int(recommended_dim)


class VacuumOutputError(AntibunchError, ArithmeticError):
    """g2 requested for a field whose intensity is below the vacuum floor."""


class DegenerateSplitterError(AntibunchError, ValueError):
    """A closed-form optimum is undefined for a fully transmitting/reflecting splitter."""


class SteadyStateError(AntibunchError, RuntimeError):
    """The Liouvillian does not define a unique normalizable steady state."""


class ConfigError(AntibunchError, ValueError):
    """A run configuration file is malformed or contains unknown keys."""
