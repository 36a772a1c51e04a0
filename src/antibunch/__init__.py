"""Engineering antibunched light by mixing weakly nonclassical states.

Truncated-Fock-space toolbox for second-order photon correlations: state
factories, a lossless beamsplitter, closed-form optima for squeezed inputs,
driven-dissipative Kerr cavities, and sweep/refine optimization, fronted by
a CSV/JSON command line.
"""

__version__ = "0.1.0"

from .beamsplitter import (
    BeamsplitterParams,
    g2_from_coeffs,
    mix,
    output_g2,
    output_g2_b,
    output_moments,
)
from .errors import (
    AntibunchError,
    ConfigError,
    DegenerateSplitterError,
    DimensionMismatchError,
    InvalidDimensionError,
    SteadyStateError,
    TruncationError,
    VacuumOutputError,
)
from .fock import (
    DensityMatrix,
    FockVector,
    TwoModeState,
    annihilation,
    basis,
    truncated,
)

__all__ = [
    "__version__",
    "AntibunchError",
    "BeamsplitterParams",
    "ConfigError",
    "DegenerateSplitterError",
    "DensityMatrix",
    "DimensionMismatchError",
    "FockVector",
    "InvalidDimensionError",
    "SteadyStateError",
    "TruncationError",
    "TwoModeState",
    "VacuumOutputError",
    "annihilation",
    "basis",
    "g2_from_coeffs",
    "mix",
    "output_g2",
    "output_g2_b",
    "output_moments",
    "truncated",
]
