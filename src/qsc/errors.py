"""Exception types raised by the qsc package."""


class QscError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(QscError):
    """An operation requiring a Hermitian operator received one that is not."""


class DimensionMismatch(QscError):
    """Operands or declared subsystem dimensions are inconsistent."""


class DimensionTooLarge(QscError):
    """A requested dense computation exceeds the configured dimension cap."""


class PoleTooClose(QscError):
    """A resolvent evaluation point is too close to the spectrum."""


class SingularResolvent(QscError):
    """The exact resolvent needed by a closed-form self-energy does not exist."""


class NoSignChange(QscError):
    """A bracketing root solve found no sign change on its interval."""


class CouplingTooLarge(QscError):
    """A schedule would require a coupling ratio r = Omega_0/Delta >= 1/8."""


class HypothesisUnmet(QscError):
    """A bound checker's hypotheses fail on the given instance."""


class SelfCheckFailed(QscError):
    """A construction failed its own residual check, so its output cannot
    be trusted."""


class ParseError(QscError):
    """A circuit gates file or configuration file is malformed."""


class ConfigError(QscError):
    """An experiment configuration is invalid or incomplete."""
