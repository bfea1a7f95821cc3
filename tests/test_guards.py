"""Input guards of the library that neither the other tests nor the shipped
scenarios and benchmark tasks reach: each case builds its one bad input and
asserts the exception, and the message, of its guard."""

import numpy as np
import pytest

from psdo import (
    EllipticProblem,
    GridSpec,
    LowerTerm,
    MultiIndex,
    ParabolicProblem,
    ProblemTemplate,
    SampledField,
    ScaleParams,
    Sector,
    SpaceTimeField,
    build_bvp_operator,
    build_system,
    check_positivity,
    coercive_ratio,
    coercivity_sweep,
    default_sweep,
    estimate_rbound,
    gaussian_field,
    i_xi_power,
    kahane_contraction_check,
    make_model,
    power_symbol,
    semigroup_propagator,
    solve_principal,
)

GRID = GridSpec(n=1, M=8, L=2 * np.pi)
SCALAR = make_model(np.array([[1.0]]))


def elliptic(lam=0.0, lower_terms=()):
    return EllipticProblem(model=SCALAR, symbol=power_symbol(m=2.0),
                           t=ScaleParams.isotropic(1.0, 1), lam=lam, grid=GRID,
                           lower_terms=lower_terms)


def forcing(grid=GRID, N=1):
    return SpaceTimeField(grid=grid, values=np.ones((3,) + grid.shape + (N,)), Y=1.0)


def sweep():
    return default_sweep(phi2=np.pi / 4, n=1, n_radii=2, radius_range=(1.0, 10.0), n_t=1,
                         t_range=(1.0, 1.0))


CASES = {
    "coercivity_sweep-data_count": (ValueError, "data_count must be at least 2", lambda: (
        coercivity_sweep(ProblemTemplate(model=SCALAR, symbol=power_symbol(m=2.0), grid=GRID),
                         sweep(), data_count=1))),
    "coercive_ratio-zero-f": (ZeroDivisionError, "f = 0", lambda: coercive_ratio(
        gaussian_field(GRID), SampledField(GRID, np.zeros(GRID.shape + (1,))), SCALAR,
        ScaleParams.isotropic(1.0, 1), 1.0, 2.0)),
    "estimate_rbound-empty": (ValueError, "non-empty", lambda: estimate_rbound([])),
    "kahane-vector-count": (ValueError, "one vector per scalar", lambda: (
        kahane_contraction_check([1.0, -0.5, 0.25], [np.ones(2), np.ones(2)]))),
    "make_model-not-square": (ValueError, "square", lambda: make_model(np.ones((2, 3)))),
    "build_system-nan": (ValueError, "finite", lambda: build_system([[1.0, np.nan],
                                                                     [np.nan, 1.0]])),
    "build_bvp_operator-length": (ValueError, "interval length",
                                  lambda: build_bvp_operator(8, 0.0, 1.0)),
    "check_positivity-ray": (ValueError, "rays must lie within",
                             lambda: check_positivity(SCALAR, 0.5, sweep())),
    "ParabolicProblem-grid": (ValueError, "forcing grid", lambda: ParabolicProblem(
        elliptic(), forcing(grid=GridSpec(n=1, M=8, L=3.0)))),
    "ParabolicProblem-N": (ValueError, "component count",
                           lambda: ParabolicProblem(elliptic(), forcing(N=2))),
    "semigroup_propagator-time": (ValueError, "nonnegative", lambda: semigroup_propagator(
        ParabolicProblem(elliptic(), forcing()), -1.0)),
    "solve_principal-lower-terms": (ValueError, "empty lower terms", lambda: solve_principal(
        elliptic(lam=1.0, lower_terms=(LowerTerm(MultiIndex((1.0,)), np.eye(1)),)),
        gaussian_field(GRID))),
    "EllipticProblem-t-dimension": (ValueError, "scale-parameter dimension", lambda: (
        EllipticProblem(model=SCALAR, symbol=power_symbol(m=2.0),
                        t=ScaleParams.isotropic(1.0, 2), lam=1.0, grid=GRID))),
    "MultiIndex-sum": (ValueError, "dimension mismatch",
                       lambda: MultiIndex((1.0,)) + MultiIndex((1.0, 0.0))),
    "Sector-angle": (ValueError, r"\[0, pi\)", lambda: Sector(4.0)),
    "i_xi_power-length": (ValueError, "same length", lambda: i_xi_power(np.zeros(2), (1.0,))),
    "SpaceTimeField-slice": (ValueError, "inconsistent with grid", lambda: (
        SpaceTimeField(grid=GRID, values=np.ones((3, 4, 1)), Y=1.0))),
}


@pytest.mark.parametrize("name", list(CASES))
def test_guard_raises(name):
    exc, message, call = CASES[name]
    with pytest.raises(exc, match=message):
        call()
