"""Exception hierarchy shared by all psdo modules."""


class PsdoError(Exception):
    """Base class for all library errors."""


class OutOfTable(PsdoError):
    """Tabulated symbol queried outside its stored frequency range."""


class NonFiniteDerivative(PsdoError):
    """Finite-difference derivative of a symbol diverged."""


class AngleSumTooLarge(PsdoError):
    """Sector angles add up to pi or more; the sum inequality fails."""


class NotDiagonalizable(PsdoError):
    """Eigenvector matrix too ill-conditioned for spectral calculus."""


class NotSymmetric(PsdoError):
    """System matrix is not symmetric."""


class NotPositiveDefinite(PsdoError):
    """System matrix has an eigenvalue <= 0."""


class EllipticityFailure(PsdoError):
    """Leading BVP coefficient vanishes or changes sign."""


class ModeSingular(PsdoError):
    """A + s I singular within roundoff, or s not finite; sector hypotheses violated."""

    def __init__(self, xi, message=None):
        self.xi = xi
        super().__init__(message or f"singular mode matrix at xi={xi}")


class ContractionFailure(PsdoError):
    """Lower-order perturbation is not a contraction; |lambda| too small."""


class NoConvergence(PsdoError):
    """Fixed-point iteration hit the iteration cap before the tolerance."""


class TooManyForEnumeration(PsdoError):
    """Sign-pattern enumeration requested for too many operators."""


class NyquistEnergy(PsdoError):
    """Input field carries too much energy on a Nyquist mode that must be zeroed."""


class ConfigError(PsdoError):
    """Scenario config failed to parse or validate."""
