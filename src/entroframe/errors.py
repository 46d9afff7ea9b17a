"""Exception and warning types shared across the package."""


# === base =================================================================

class EntroframeError(Exception):
    """Base class for all package errors."""


# === frame errors =========================================================

class FrameError(EntroframeError):
    """Base class for frame construction errors."""


class DegenerateDirections(FrameError):
    """Two of the three directions coincide modulo pi."""


class SectorViolation(FrameError):
    """One of the angular sectors between directions is >= pi/2.

    Carries the 1-based sector index and its measure in radians.
    """

    def __init__(self, index, measure):
        self.index = int(index)
        self.measure = float(measure)
        super().__init__(
            f"sector violation: sector {self.index} measures "
            f"{self.measure:.4f} ≥ π/2"
        )


class WeightOutOfRange(FrameError):
    """A weight falls outside the open interval (0, 1)."""


class CompatibilityViolation(FrameError):
    """Weights do not sum to 2 or do not reproduce the identity."""


class InvalidExponents(FrameError):
    """Exponents violate p_i > 1, the scaling relation, or both."""


# === density errors =======================================================

class DensityError(EntroframeError):
    """Base class for density construction and operation errors."""


class GridError(DensityError):
    """Axis is not a uniform, ascending, odd-length grid."""


class NotSPD(DensityError):
    """Covariance matrix is not symmetric positive definite."""


class ReferenceMismatch(DensityError):
    """Operands carry incompatible reference measures."""


class NormalizationError(DensityError):
    """Total mass deviates from 1 by more than the repairable threshold."""


class DomainTruncation(DensityError):
    """Too much mass falls outside the interpolation domain."""


class ZeroScale(DensityError):
    """Dilation factor is zero."""


# === flow errors ==========================================================

class InvalidFlowTime(EntroframeError):
    """Flow time is negative, non-finite, or out of the operator's range."""


# === warnings =============================================================

class RenormalizationWarning(UserWarning):
    """Density mass was off by more than 1e-6 and was renormalized."""


class NonSmoothWarning(UserWarning):
    """Fisher information estimates at h and 2h disagree by more than 5%."""
