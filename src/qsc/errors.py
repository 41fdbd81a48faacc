"""Exception types raised by the qsc package.

An error's type alone sets the command line's exit code (`cli.main`):
`ConfigError` and its subclasses exit 2, `DimensionTooLarge` exits 3, any
other `QscError` exits 1, and any other exception is a program fault that
exits 4 with its traceback.  A `ConfigError` is also a `ValueError`, as a
library caller expects of a refused argument.
"""


class QscError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(QscError):
    """An operation requiring a Hermitian operator received one that is not."""


class DimensionMismatch(QscError):
    """Operands or declared subsystem dimensions are inconsistent."""


class DimensionTooLarge(QscError):
    """A requested dense computation exceeds the configured dimension cap."""


class SingularResolvent(QscError):
    """The exact resolvent needed by a closed-form self-energy does not exist."""


class NoSignChange(QscError):
    """A bracketing root solve found no sign change on its interval."""


class ConfigError(QscError, ValueError):
    """An experiment configuration is invalid or incomplete."""


class CouplingTooLarge(ConfigError):
    """A schedule would require a coupling ratio r = Omega_0/Delta >= 1/8."""


class UnresolvedSplitting(ConfigError):
    """An eigen-splitting or gap is within roundoff of the norm of the
    Hermitian it was read off (an exact-tau step's pulse time, or the clock
    band gap), so nothing can be read off it."""


class HypothesisUnmet(QscError):
    """A bound checker's hypotheses fail on the given instance."""


class SelfCheckFailed(QscError):
    """A construction failed its own residual check, so its output cannot
    be trusted."""


class ParseError(ConfigError):
    """A circuit gates file or configuration file is malformed."""
