import numpy as np
import pytest

from psdo import (
    EllipticProblem,
    GridSpec,
    MultiIndex,
    LowerTerm,
    ParabolicProblem,
    ScaleParams,
    SpaceTimeField,
    apply_operator,
    gaussian_field,
    make_model,
    mixed_norm,
    parabolic_coercive_ratio,
    parabolic_diagnostics,
    power_symbol,
    semigroup_propagator,
    solve_duhamel,
    solve_implicit_euler,
    time_derivative,
    tridiagonal_matrix,
)


def make_problem(J=64, t_val=1.0, Y=1.0, M=64, profile="sin", A=None):
    grid = GridSpec(n=1, M=M, L=2 * np.pi)
    model = make_model(A if A is not None else np.array([[1.0]]))
    ell = EllipticProblem(model=model, symbol=power_symbol(m=2.0),
                          t=ScaleParams.isotropic(t_val, 1), lam=0.0, grid=grid)
    times = np.linspace(0.0, Y, J + 1)
    base = gaussian_field(grid, vector=np.ones(model.N)).values
    if profile == "sin":
        w = np.sin(np.pi * times / Y)
    elif profile == "constant":
        w = np.ones_like(times)
    else:
        raise ValueError(profile)
    vals = w[:, None, None] * base[None]
    forcing = SpaceTimeField(grid=grid, values=vals, Y=Y)
    return ParabolicProblem(elliptic=ell, forcing=forcing)


def test_problem_validation():
    prob = make_problem(J=4)
    grid = prob.elliptic.grid
    shifted = EllipticProblem(model=prob.elliptic.model, symbol=prob.elliptic.symbol,
                              t=prob.elliptic.t, lam=1.0, grid=grid)
    with pytest.raises(ValueError):
        ParabolicProblem(elliptic=shifted, forcing=prob.forcing)
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=np.eye(1))
    with_lower = EllipticProblem(model=prob.elliptic.model, symbol=prob.elliptic.symbol,
                                 t=prob.elliptic.t, lam=0.0, grid=grid,
                                 lower_terms=(term,))
    with pytest.raises(ValueError):
        ParabolicProblem(elliptic=with_lower, forcing=prob.forcing)


def test_duhamel_exact_for_constant_forcing():
    # constant forcing is piecewise linear, so the stepping is exact:
    # u(y) = (f/g)(1 - e^{-gy}) per mode/channel
    prob = make_problem(J=16, profile="constant")
    u = solve_duhamel(prob)
    grid = prob.elliptic.grid
    fhat = np.fft.fft(prob.forcing.values[0, :, 0], norm="ortho")
    g = 1.0 + np.abs(grid.freqs()) ** 2
    Y = prob.Y
    expect_hat = fhat / g * (1.0 - np.exp(-g * Y))
    expect = np.fft.ifft(expect_hat, norm="ortho")
    assert np.abs(u.values[-1, :, 0] - expect).max() < 1e-12


def test_implicit_euler_first_order_convergence():
    ref = solve_duhamel(make_problem(J=2048))
    errs = []
    for J in (64, 128, 256):
        ue = solve_implicit_euler(make_problem(J=J))
        errs.append(np.linalg.norm(ue.values[-1] - ref.values[-1]))
    for a, b in zip(errs, errs[1:]):
        assert 1.8 <= a / b <= 2.2


def test_semigroup_law():
    prob = make_problem(J=8)
    P1 = semigroup_propagator(prob, 0.3)
    P2 = semigroup_propagator(prob, 0.5)
    P12 = semigroup_propagator(prob, 0.8)
    comp = np.einsum("...ij,...jk->...ik", P1, P2)
    assert np.abs(comp - P12).max() < 1e-9
    ident = semigroup_propagator(prob, 0.0)
    assert np.abs(ident - np.eye(1)).max() < 1e-12


def test_system_evolution_matches_scalar_channels():
    # diagonal A decouples into independent scalar problems
    A = np.diag([1.0, 3.0])
    prob = make_problem(J=32, A=A)
    u = solve_duhamel(prob)
    for ch, a in enumerate([1.0, 3.0]):
        scalar = make_problem(J=32, A=np.array([[a]]))
        us = solve_duhamel(scalar)
        assert np.abs(u.values[..., ch] - us.values[..., 0]).max() < 1e-12


def test_time_derivative_on_linear_profile():
    grid = GridSpec(n=1, M=8, L=1.0)
    times = np.linspace(0, 2.0, 9)
    vals = times[:, None, None] * np.ones((9, 8, 1))
    u = SpaceTimeField(grid=grid, values=vals, Y=2.0)
    du = time_derivative(u)
    assert np.abs(du.values - 1.0).max() < 1e-12


def test_coercive_ratio_and_residual():
    prob = make_problem(J=128)
    u = solve_duhamel(prob)
    ratio = parabolic_coercive_ratio(prob, u)
    assert ratio is not None and np.isfinite(ratio) and ratio >= 1.0 - 1e-9
    assert parabolic_diagnostics(prob, u)[1] < 5e-3  # limited by time discretization
    zero = SpaceTimeField(grid=prob.elliptic.grid,
                          values=np.zeros_like(prob.forcing.values), Y=prob.Y)
    none_prob = ParabolicProblem(elliptic=prob.elliptic, forcing=zero)
    assert parabolic_coercive_ratio(none_prob, zero) is None


def test_coercive_ratio_flat_in_t():
    ratios = []
    for tv in (1e-3, 1e-2, 1e-1, 1.0):
        prob = make_problem(J=128, t_val=tv)
        ratios.append(parabolic_coercive_ratio(prob, solve_duhamel(prob)))
    assert max(ratios) / min(ratios) <= 1.25


def test_mixed_norm_solution_bounded_by_forcing():
    prob = make_problem(J=64)
    u = solve_duhamel(prob)
    assert mixed_norm(u) <= mixed_norm(prob.forcing)


def _equation_residual_per_slice(prob, u):
    """Reference: the equation residual of parabolic_diagnostics with one
    apply_operator call per time slice."""
    f = prob.forcing
    nf = mixed_norm(f)
    du = time_derivative(u)
    res_vals = du.values + np.stack(
        [apply_operator(prob.elliptic, u.slice(j)).values for j in range(u.J + 1)]
    ) - f.values
    res = SpaceTimeField(grid=u.grid, values=res_vals, Y=u.Y, q=u.q, p=u.p, p1=u.p1)
    return mixed_norm(res) / nf if nf > 0 else mixed_norm(res)


def make_tridiagonal_2d_problem(J=16):
    grid = GridSpec(n=2, M=8, L=2 * np.pi)
    model = make_model(tridiagonal_matrix(8, -1.0, 2.0, -1.0))
    ell = EllipticProblem(model=model, symbol=power_symbol(m=2.0),
                          t=ScaleParams.isotropic(0.5, 2), lam=0.0, grid=grid)
    times = np.linspace(0.0, 1.0, J + 1)
    base = gaussian_field(grid, vector=np.linspace(1.0, 2.0, 8)).values
    forcing = SpaceTimeField(grid=grid, values=np.sin(np.pi * times)[:, None, None, None] * base,
                             Y=1.0)
    return ParabolicProblem(elliptic=ell, forcing=forcing)


@pytest.mark.parametrize("make", [lambda: make_problem(J=128),
                                  lambda: make_tridiagonal_2d_problem(J=16)],
                         ids=["scalar-1d", "tridiagonal-2d"])
@pytest.mark.parametrize("solver", [solve_duhamel, solve_implicit_euler])
def test_equation_residual_matches_per_slice_loop(make, solver):
    prob = make()
    u = solver(prob)
    assert parabolic_diagnostics(prob, u)[1] == _equation_residual_per_slice(prob, u)
    zero = SpaceTimeField(grid=u.grid, values=np.zeros_like(u.values), Y=u.Y)
    unforced = ParabolicProblem(elliptic=prob.elliptic, forcing=zero)
    assert parabolic_diagnostics(unforced, u)[1] == _equation_residual_per_slice(unforced, u)


def _ratio_and_residual_reference(prob, u):
    """Reference: the coercive ratio and the residual from explicit time differences and
    an einsum for A u."""
    ell, f = prob.elliptic, prob.forcing
    nf = mixed_norm(f)
    du = np.empty_like(u.values)
    du[1:-1] = (u.values[2:] - u.values[:-2]) / (2.0 * u.dy)
    du[0] = (u.values[1] - u.values[0]) / u.dy
    du[-1] = (u.values[-1] - u.values[-2]) / u.dy
    Pu = ell.grid.ifft(ell.symbol_values()[..., None] * ell.grid.fft(u.values))
    Au = np.einsum("ij,...j->...i", ell.model.A, u.values)
    ratio = sum(mixed_norm(u.with_values(v)) for v in (du, Pu, Au)) / nf
    residual = mixed_norm(u.with_values(du + Pu + Au - f.values)) / nf
    return ratio, residual


@pytest.mark.parametrize("solver", [solve_duhamel, solve_implicit_euler])
def test_parabolic_diagnostics_match_separate_computation(solver):
    # a 2-D problem with N = 2 and a non-symmetric A
    grid = GridSpec(n=2, M=8, L=2 * np.pi)
    ell = EllipticProblem(model=make_model(np.array([[2.0, 0.5], [0.0, 1.0]])),
                          symbol=power_symbol(m=2.0), t=ScaleParams((0.5, 0.1)), lam=0.0,
                          grid=grid)
    times = np.linspace(0.0, 1.0, 17)
    base = gaussian_field(grid, vector=[1.0, -0.5j]).values
    forcing = SpaceTimeField(grid=grid, values=np.sin(np.pi * times)[:, None, None, None] * base,
                             Y=1.0)
    prob = ParabolicProblem(elliptic=ell, forcing=forcing)
    u = solver(prob)
    ratio, residual, nf = parabolic_diagnostics(prob, u)
    ref_ratio, ref_residual = _ratio_and_residual_reference(prob, u)
    assert ratio == pytest.approx(ref_ratio, rel=1e-13)
    assert residual == pytest.approx(ref_residual, rel=1e-13)
    assert nf == mixed_norm(forcing)
    assert parabolic_coercive_ratio(prob, u) == ratio
