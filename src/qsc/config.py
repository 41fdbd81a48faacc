"""Global numerical tolerances and resource limits.

All tolerances are absolute on unit-normalized operators unless marked
relative.  Code throughout the package reads these constants instead of
hard-coding literals, so a single edit retunes the whole artifact.
"""

import os

# Hermiticity of constructed operators (absolute, unit scale).
HERMITICITY_ATOL = 1e-10

# Residuals of eigendecompositions and reconstructions (relative to 1 + norm).
RESIDUAL_RTOL = 1e-9

# State and density-matrix hygiene.
NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
POSITIVITY_FLOOR = -1e-9

# Orthogonality of subspace bases, and block-diagonality across them.
GRAM_ATOL = 1e-10
PROJECTOR_ATOL = 1e-9

# Resolvent evaluations keep at least this fraction of the gap from any pole.
POLE_GUARD_FRACTION = 0.25

# Perturbative coupling ratio r = Omega_0 / Delta admitted by the protocols.
MAX_COUPLING_RATIO = 0.125

# An exact-tau schedule reads a pulse time only off an eigen-splitting above
# this multiple of eps * ||H_j + V|| (eps the double machine epsilon): a
# smaller one is the roundoff of the step's eigendecomposition.
SPLITTING_FLOOR_EPS = 16

# Default dimensionless input-penalty factor for the clock model.
DEFAULT_PENALTY_FACTOR = 0.1

# Proportionality constant c of r = c * eps * L**-2.5 schedules.
DEFAULT_SCHEDULE_CONSTANT = 1.0

# Hilbert-space dimension cap for dense work (overridable via environment).
DEFAULT_MAX_DIM = 2 ** 14


def max_dimension() -> int:
    """Dense-dimension cap; the QSC_MAX_DIM environment variable overrides."""
    value = os.environ.get("QSC_MAX_DIM")
    if value is None:
        return DEFAULT_MAX_DIM
    return int(value)
