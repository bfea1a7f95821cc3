"""Input guards of the library that neither the other tests nor the shipped
scenarios and benchmark tasks reach: each case builds its one bad input and
asserts the exception, and the message, of its guard, or the value of a guard
that answers with one."""

import json
from pathlib import Path

import numpy as np
import pytest
from oracles import coercive_ratio, liouville_derivative
from parabolic_oracles import semigroup_propagator

from psdo import (
    EllipticProblem,
    GridSpec,
    LowerTerm,
    ModeSingular,
    MultiIndex,
    NoConvergence,
    NonFiniteDerivative,
    ParabolicProblem,
    ProblemTemplate,
    SampledField,
    ScaleParams,
    Sector,
    SpaceTimeField,
    SymbolSpec,
    build_bvp_operator,
    build_system,
    check_positivity,
    check_symbol_class,
    coercivity_sweep,
    default_sweep,
    estimate_rbound,
    eval_symbol,
    gaussian_field,
    i_xi_power,
    kahane_contraction_check,
    make_model,
    mode_field,
    power_symbol,
    resolvent,
    solve_full,
    solve_implicit_euler,
    solve_principal,
)
from psdo import cli, tasks
from psdo.elliptic import _shifts
from psdo.errors import ConfigError
from psdo.verification import _kahane_checks

GRID = GridSpec(n=1, M=8, L=2 * np.pi)
SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "parabolic-reference.json"
SCALAR = make_model(np.array([[1.0]]))


# (A + I) is singular, but the eigenvalues of this Jordan block come out
# 3e-8 from -1, beyond the roundoff window of the spectrum check
JORDAN = make_model(np.array([[0.0, 1.0], [-1.0, -2.0]]))
# companion matrix of (x - 1)^3: its computed eigenvalues spread 1e-5 around 1
JORDAN3 = make_model(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -3.0, 3.0]]))
TABLE = SymbolSpec(kind="user-table", m=2.0, table=([-1.0, 1.0], [1.0, 1.0]))


def elliptic(lam=0.0, lower_terms=(), model=SCALAR, grid=GRID):
    return EllipticProblem(model=model, symbol=power_symbol(m=2.0),
                           t=ScaleParams.isotropic(1.0, 1), lam=lam, grid=grid,
                           lower_terms=lower_terms)


def parabolic(grid=GRID, N=1, model=SCALAR, profile=np.ones(3), scale=1.0, Y=1.0):
    """A two-step problem forced by a constant profile times a base of ones."""
    base = SampledField(grid=grid, values=np.full(grid.shape + (N,), scale))
    return ParabolicProblem(elliptic(model=model), profile=profile, base=base, Y=Y)


def slow_neumann():
    """Contraction |3.8 i xi| / (4 + xi^2) = 0.95 at xi = 2: after MAX_ITER = 200
    iterations the residual is still near 0.95^200 = 4e-5."""
    grid = GridSpec(n=1, M=16, L=2 * np.pi)
    prob = elliptic(lam=3.0, grid=grid,
                    lower_terms=(LowerTerm(MultiIndex((1.0,)), 3.8 * np.eye(1)),))
    return solve_full(prob, gaussian_field(grid))


def overflowing_shift():
    """|xi|^400 overflows at xi = 10, so the mode shift there is infinite."""
    with np.errstate(over="ignore"):
        return _shifts(SCALAR, power_symbol(m=400.0), ScaleParams.isotropic(1.0, 1), 1.0,
                       np.array([[1.0], [10.0]]))


def overflowing_symbol_class():
    """|xi|^2 overflows at xi = 1e200, so every difference quotient is NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return check_symbol_class(power_symbol(m=2.0), [ScaleParams.isotropic(1.0, 1)],
                                  np.array([[1e200]]))


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
    "kahane-no-scalars": (ValueError, "scalar list is empty",
                          lambda: kahane_contraction_check([], [])),
    "kahane-checks-no-scalars": (ValueError, "scalar list is empty", lambda: (
        _kahane_checks(np.zeros((3, 0)), np.zeros((3, 0, 2)), 2.0))),
    "make_model-not-square": (ValueError, "square", lambda: make_model(np.ones((2, 3)))),
    "build_system-nan": (ValueError, "finite", lambda: build_system([[1.0, np.nan],
                                                                     [np.nan, 1.0]])),
    "build_bvp_operator-length": (ValueError, "interval length",
                                  lambda: build_bvp_operator(8, 0.0, 1.0)),
    "check_positivity-ray": (ValueError, "rays must lie within",
                             lambda: check_positivity(SCALAR, 0.5, sweep())),
    "ParabolicProblem-grid": (ValueError, "forcing grid", lambda: parabolic(
        grid=GridSpec(n=1, M=8, L=3.0))),
    "ParabolicProblem-N": (ValueError, "component count", lambda: parabolic(N=2)),
    "ParabolicProblem-one-slice": (ValueError, "at least two time slices",
                                   lambda: parabolic(profile=np.ones(1))),
    "ParabolicProblem-profile-2d": (ValueError, "at least two time slices",
                                    lambda: parabolic(profile=np.ones((3, 1)))),
    "ParabolicProblem-horizon": (ValueError, "horizon Y", lambda: parabolic(Y=np.inf)),
    # each factor is finite, their largest product is not
    "ParabolicProblem-overflow": (ValueError, "every sample a_j f0 must be finite",
                                  lambda: parabolic(profile=np.array([0.0, 1e300]), scale=1e10)),
    "semigroup_propagator-time": (ValueError, "nonnegative",
                                  lambda: semigroup_propagator(parabolic(), -1.0)),
    "solve_principal-lower-terms": (ValueError, "empty lower terms", lambda: solve_principal(
        elliptic(lam=1.0, lower_terms=(LowerTerm(MultiIndex((1.0,)), np.eye(1)),)),
        gaussian_field(GRID))),
    "EllipticProblem-t-dimension": (ValueError, "scale-parameter dimension", lambda: (
        EllipticProblem(model=SCALAR, symbol=power_symbol(m=2.0),
                        t=ScaleParams.isotropic(1.0, 2), lam=1.0, grid=GRID))),
    "Sector-angle": (ValueError, r"\[0, pi\)", lambda: Sector(4.0)),
    "i_xi_power-length": (ValueError, "same length", lambda: i_xi_power(np.zeros(2), (1.0,))),
    "SpaceTimeField-slice": (ValueError, "inconsistent with grid", lambda: (
        SpaceTimeField(grid=GRID, values=np.ones((3, 4, 1)), Y=1.0))),
    "solve_principal-LU-singular": (ModeSingular, "Singular matrix", lambda: solve_principal(
        elliptic(lam=1.0, model=JORDAN), gaussian_field(GRID, vector=[1.0, 1.0]))),
    "solve_full-no-convergence": (NoConvergence, "after 200 iterations", slow_neumann),
    "resolvent-residual": (ModeSingular, "resolvent residual",
                           lambda: resolvent(JORDAN3, -1.0 + 1e-7)),
    "resolvent-LU-singular": (ModeSingular, "Singular matrix", lambda: resolvent(JORDAN, 1.0)),
    "shifts-not-finite": (ModeSingular, r"shift \(inf\+0j\) at xi=\(np.float64\(10.0\),\) is not "
                          "finite", overflowing_shift),
    "implicit-euler-singular": (ModeSingular, r"I \+ dy G singular", lambda: (
        # dy g = (1 / 2) (-2) = -1 at xi = 0
        solve_implicit_euler(parabolic(model=make_model([[-2.0]]))))),
    "liouville_derivative-sequence-dimension": (ValueError, "alpha dimension", lambda: (
        liouville_derivative(gaussian_field(GRID), [1.0, 0.0]))),
    "liouville_derivative-dimension": (ValueError, "alpha dimension", lambda: (
        liouville_derivative(gaussian_field(GRID), MultiIndex((1.0, 0.0))))),
    "SymbolSpec-phi1": (ValueError, r"phi1 must lie in \[0, pi\)",
                        lambda: SymbolSpec(kind="power", m=2.0, phi1=-0.1)),
    "eval_symbol-scalar-xi": (ValueError, "frequency dimension 1 != len", lambda: (
        eval_symbol(power_symbol(m=2.0), ScaleParams.isotropic(1.0, 2), 2.0))),
    "eval_symbol-user-table-2d": (ValueError, "one-dimensional", lambda: (
        eval_symbol(TABLE, ScaleParams.isotropic(1.0, 2), np.zeros((3, 2))))),
    "check_symbol_class-overflow": (NonFiniteDerivative, "diverged", overflowing_symbol_class),
    "mode_field-off-lattice": (ValueError, "off the frequency lattice",
                               lambda: mode_field(GridSpec(n=1, M=32, L=4.0), [1.0], [1.0])),
    "mode_field-beyond-nyquist": (ValueError, "off the frequency lattice",
                                  lambda: mode_field(GRID, [5.0], [1.0])),
    "cli-set-grid-number": (ConfigError, "config.grid must be an object", lambda: (
        tasks.SCHEMA["solve-parabolic"].value(cli._apply_overrides(
            json.loads(SCENARIO.read_text()), ["grid=5"]), "config"))),
}


@pytest.mark.parametrize("name", list(CASES))
def test_guard_raises(name):
    exc, message, call = CASES[name]
    with pytest.raises(exc, match=message):
        call()


RETURNS = {  # guards that answer with a value rather than an exception
    "default_sweep-phi2-0-rays": ((0.0,), lambda: default_sweep(phi2=0.0, n_rays=3).rays),
    "default_sweep-phi2-0-no-rays": ((), lambda: default_sweep(phi2=0.0, n_rays=0).rays),
    # no sample has a nonzero lower bound gamma * sum t_k |xi_k|^m to compare with
    "check_symbol_class-only-xi-0": (1.0, lambda: check_symbol_class(
        power_symbol(m=2.0), [ScaleParams.isotropic(1.0, 1)], np.zeros((1, 1))).lower_margin),
}


@pytest.mark.parametrize("name", list(RETURNS))
def test_guard_returns(name):
    value, call = RETURNS[name]
    assert call() == value
