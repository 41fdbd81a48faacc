"""Global numerical tolerances and resource limits.

All tolerances are absolute on unit-normalized operators unless marked
relative.  Not every tolerance of the package is here: a constant that
one module alone reads lives in that module (`bounds._SLACK`,
`levelshift.MAX_RESOLVENT_COND`), and some checks write their literal in
place (the 1e-9 level tolerance of `cooling.extension_gap`, the 1e-10 pass
margin of the bound checkers).
"""

import os

from .errors import ConfigError

# Hermiticity of constructed operators (absolute, unit scale).
HERMITICITY_ATOL = 1e-10

# Residuals of eigendecompositions and reconstructions (relative to 1 + norm).
RESIDUAL_RTOL = 1e-9

# Density-matrix hygiene.
TRACE_ATOL = 1e-10
POSITIVITY_FLOOR = -1e-9

# Orthogonality of subspace bases, and block-diagonality across them.
GRAM_ATOL = 1e-10
PROJECTOR_ATOL = 1e-9

# Resolvent evaluations keep at least this fraction of the gap from any pole.
POLE_GUARD_FRACTION = 0.25

# Perturbative coupling ratio r = Omega_0 / Delta admitted by the protocols.
MAX_COUPLING_RATIO = 0.125

# An eigen-splitting or gap is read off an eigh only above this multiple of
# eps * ||H|| (eps the double machine epsilon; H an exact-tau step's H_j + V,
# or the clock's H_S for its band gap): a smaller one is the roundoff of
# that eigendecomposition.
SPLITTING_FLOOR_EPS = 16

# Default dimensionless input-penalty factor for the clock model.
DEFAULT_PENALTY_FACTOR = 0.1

# Proportionality constant c of r = c * eps * L**-2.5 schedules.
DEFAULT_SCHEDULE_CONSTANT = 1.0

# The size cap (overridable via environment; see `max_dimension`).
DEFAULT_MAX_DIM = 2 ** 14


def max_dimension() -> int:
    """The cap: a model whose path's largest array would hold more than
    cap^2 entries is refused before it is built (a dense matrix of at most
    cap rows, a vector of at most cap^2 entries).  The QSC_MAX_DIM
    environment variable overrides it."""
    value = os.environ.get("QSC_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"environment variable QSC_MAX_DIM must be an integer, "
                          f"got {value!r}") from None
