"""Desk-scale realizations of parameter-elliptic operator equations.

Exact frequency-space solves of the principal equation, Neumann-iterated
solves with lower-order terms, parabolic Cauchy evolution, and an empirical
harness for the uniform coercivity / resolvent / R-boundedness estimates.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562) and then kept here.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_MODULE_OF = {name: module for module, names in {
    "elliptic": ("EllipticProblem", "IterationReport", "LowerTerm", "coercive_index_set",
                 "contraction_estimate", "graph_norm", "solve_full", "solve_principal"),
    "errors": ("AngleSumTooLarge", "ConfigError", "ContractionFailure", "EllipticityFailure",
               "ModeSingular", "NoConvergence", "NonFiniteDerivative", "NotDiagonalizable",
               "NotPositiveDefinite", "NotSymmetric", "OutOfTable", "Overflow",
               "PsdoError", "TooManyForEnumeration"),
    "operators": ("OperatorModel", "PositivityCertificate", "build_bvp_operator", "build_system",
                  "check_positivity", "make_model", "resolvent", "tridiagonal_matrix"),
    "parabolic": ("ParabolicProblem", "solve_duhamel", "solve_implicit_euler",
                  "solve_parabolic"),
    "spaces": ("GridSpec", "SampledField", "SpaceTimeField", "fractional_multiplier",
               "gaussian_field", "h_m_pt_norm", "lp_lq_norm", "mode_field",
               "random_band_limited_field", "vector_norms"),
    "sweep": ("SectorSweep", "default_sweep"),
    "symbols": ("MultiIndex", "ScaleParams", "Sector", "SymbolClassReport", "SymbolSpec",
                "check_symbol_class", "eval_symbol", "i_xi_power", "power_symbol",
                "rotated_power_symbol", "sector_sum_constant", "smoothed_power_symbol",
                "symbol_derivative"),
    "verification": ("KahaneResult", "ProblemTemplate", "RBoundEstimate", "VerificationReport",
                     "coercivity_sweep", "estimate_rbound", "kahane_contraction_check",
                     "lambda_resolvent_family", "multiplier_family_check", "probe_norm",
                     "resolvent_sweep", "sigma_matrix"),
}.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
