"""Desk-scale realizations of parameter-elliptic operator equations.

Exact frequency-space solves of the principal equation, Neumann-iterated
solves with lower-order terms, parabolic Cauchy evolution, and an empirical
harness for the uniform coercivity / resolvent / R-boundedness estimates.
"""

from .elliptic import (
    EllipticProblem,
    IterationReport,
    LowerTerm,
    apply_operator,
    coercive_index_set,
    contraction_estimate,
    graph_norm,
    solve_full,
    solve_principal,
)
from .errors import (
    AngleSumTooLarge,
    ConfigError,
    ContractionFailure,
    EllipticityFailure,
    ModeSingular,
    NoConvergence,
    NonFiniteDerivative,
    NotDiagonalizable,
    NotPositiveDefinite,
    NotSymmetric,
    NyquistEnergy,
    OutOfTable,
    Overflow,
    PsdoError,
    TooManyForEnumeration,
)
from .operators import (
    OperatorModel,
    PositivityCertificate,
    build_bvp_operator,
    build_system,
    check_positivity,
    make_model,
    resolvent,
    tridiagonal_matrix,
)
from .parabolic import (
    ParabolicProblem,
    evolve_spectra,
    parabolic_coercive_ratio,
    parabolic_diagnostics,
    semigroup_propagator,
    solution_on_grid,
    solve_duhamel,
    solve_implicit_euler,
)
from .spaces import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    fractional_multiplier,
    gaussian_field,
    h_m_pt_norm,
    liouville_derivative,
    lp_lq_norm,
    mixed_norm,
    mode_field,
    random_band_limited_field,
    vector_norms,
)
from .sweep import SectorSweep, default_sweep
from .symbols import (
    MultiIndex,
    ScaleParams,
    Sector,
    SymbolClassReport,
    SymbolSpec,
    check_symbol_class,
    eval_symbol,
    i_xi_power,
    power_symbol,
    rotated_power_symbol,
    sector_sum_constant,
    smoothed_power_symbol,
    symbol_derivative,
)
from .verification import (
    KahaneResult,
    ProblemTemplate,
    RBoundEstimate,
    VerificationReport,
    coercive_ratio,
    coercivity_sweep,
    estimate_rbound,
    kahane_contraction_check,
    lambda_resolvent_family,
    multiplier_family_check,
    probe_norm,
    resolvent_sweep,
    sigma_matrix,
)

__version__ = "0.1.0"
