"""Entropic and convolution inequalities generated by weighted frames in R^2.

The package builds rank-one decompositions of the identity of R^2
(frames), represents probability densities on grids or as exact
Gaussians, computes entropy and Fisher information, evolves densities by
heat and Ornstein-Uhlenbeck flows, and verifies the family of
inequalities the frames generate: marginal subadditivity in entropy and
Fisher form, sharp Young and its entropic version, Shannon's inequality
of the sum, Blachman-Stam, hypercontractivity of the Hermite semigroup,
the logarithmic Sobolev inequality, and Brascamp-Lieb.
"""

from .density import (ExpFunction, GaussianDensity, GridDensity1D,
                      GridDensity2D, GridFunction1D, Reference,
                      convolve, default_axis, gaussian, gaussian_mixture,
                      independent_product, linear_combination, marginal,
                      marginals, scale1d, uniform_density)
from .errors import (CompatibilityViolation, DegenerateDirections,
                     DensityError, DomainTruncation, EntroframeError,
                     FrameError, GridError, InvalidExponents,
                     InvalidFlowTime, NonSmoothWarning, NormalizationError,
                     NotSPD, ReferenceMismatch, RenormalizationWarning,
                     SectorViolation, WeightOutOfRange, ZeroScale)
from .frames import (Direction, ExponentTriple, Frame2,
                     angles_from_exponents, canonical_angle,
                     conjugate_exponent, directions_from_weights,
                     mercedes_frame, normalize_weights, sector_measures,
                     shannon_limit_frame, weights_from_directions, young_frame)
from .functional import entropy, fisher, lp_norm
from .inequality import (CHECK_NAMES, GaussianExtremizer, InequalityReport,
                         TaylorPoint, check_blachmann_stam,
                         check_brascamp_lieb, check_fisher_subadditivity,
                         check_hyper_two_function, check_hypercontractivity,
                         check_integrated_lsi, check_log_sobolev,
                         check_main_entropy, check_main_integral,
                         check_shannon, check_subadditivity,
                         check_young_convolution, check_young_entropy,
                         exp_norm_gamma, hyper_threshold, mehler_exp_norm,
                         shannon_taylor_check, young_constant,
                         young_extremal_covariance, young_log_constant)
from .semigroup import (de_bruijn_check, heat_flow, hermite_p_theta,
                        ou_flow, stability_check)

__version__ = "0.1.0"

__all__ = [
    "CHECK_NAMES", "CompatibilityViolation", "DegenerateDirections",
    "DensityError", "Direction", "DomainTruncation", "EntroframeError",
    "ExpFunction", "ExponentTriple", "Frame2", "FrameError", "GaussianDensity",
    "GaussianExtremizer", "GridDensity1D", "GridDensity2D", "GridError",
    "GridFunction1D", "InequalityReport", "InvalidExponents",
    "InvalidFlowTime", "NonSmoothWarning", "NormalizationError", "NotSPD",
    "Reference", "ReferenceMismatch", "RenormalizationWarning",
    "SectorViolation", "TaylorPoint", "WeightOutOfRange",
    "ZeroScale", "angles_from_exponents",
    "canonical_angle", "check_blachmann_stam", "check_brascamp_lieb",
    "check_fisher_subadditivity", "check_hyper_two_function",
    "check_hypercontractivity", "check_integrated_lsi", "check_log_sobolev",
    "check_main_entropy", "check_main_integral", "check_shannon",
    "check_subadditivity", "check_young_convolution", "check_young_entropy",
    "conjugate_exponent", "convolve", "de_bruijn_check", "default_axis",
    "directions_from_weights", "entropy", "exp_norm_gamma", "fisher",
    "gaussian", "gaussian_mixture", "heat_flow", "hermite_p_theta",
    "hyper_threshold", "independent_product", "linear_combination",
    "lp_norm", "marginal", "marginals", "mehler_exp_norm",
    "mercedes_frame", "normalize_weights", "ou_flow", "scale1d", "sector_measures",
    "shannon_limit_frame", "shannon_taylor_check", "stability_check",
    "uniform_density", "weights_from_directions", "young_constant",
    "young_extremal_covariance", "young_frame", "young_log_constant",
]
