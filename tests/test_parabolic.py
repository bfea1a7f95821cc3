from dataclasses import replace

import numpy as np
import pytest
from oracles import apply_operator, mixed_norm
from parabolic_oracles import forcing_stack, parabolic_coercive_ratio, semigroup_propagator

from psdo import (
    EllipticProblem,
    GridSpec,
    MultiIndex,
    LowerTerm,
    ParabolicProblem,
    ScaleParams,
    SpaceTimeField,
    evolve_spectra,
    gaussian_field,
    make_model,
    parabolic_diagnostics,
    power_symbol,
    random_band_limited_field,
    solve_duhamel,
    solve_implicit_euler,
    tridiagonal_matrix,
)
from psdo import spaces
from psdo.operators import eigenbasis
from psdo.parabolic import _phi1, _phi2
from psdo.spaces import _lp_lq_norms_from_spectra

METHOD = {solve_duhamel: "duhamel", solve_implicit_euler: "implicit-euler"}


def make_problem(J=64, t_val=1.0, Y=1.0, M=64, profile="sin", A=None):
    grid = GridSpec(n=1, M=M, L=2 * np.pi)
    model = make_model(A if A is not None else np.array([[1.0]]))
    ell = EllipticProblem(model=model, symbol=power_symbol(m=2.0),
                          t=ScaleParams.isotropic(t_val, 1), lam=0.0, grid=grid)
    times = np.linspace(0.0, Y, J + 1)
    if profile == "sin":
        w = np.sin(np.pi * times / Y)
    elif profile == "constant":
        w = np.ones_like(times)
    else:
        raise ValueError(profile)
    return ParabolicProblem(elliptic=ell, profile=w,
                            base=gaussian_field(grid, vector=np.ones(model.N)), Y=Y)


def test_problem_validation():
    prob = make_problem(J=4)
    grid = prob.elliptic.grid
    shifted = EllipticProblem(model=prob.elliptic.model, symbol=prob.elliptic.symbol,
                              t=prob.elliptic.t, lam=1.0, grid=grid)
    with pytest.raises(ValueError):
        replace(prob, elliptic=shifted)
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=np.eye(1))
    with_lower = EllipticProblem(model=prob.elliptic.model, symbol=prob.elliptic.symbol,
                                 t=prob.elliptic.t, lam=0.0, grid=grid,
                                 lower_terms=(term,))
    with pytest.raises(ValueError):
        replace(prob, elliptic=with_lower)


def test_duhamel_exact_for_constant_forcing():
    # constant forcing is piecewise linear, so the stepping is exact:
    # u(y) = (f/g)(1 - e^{-gy}) per mode/channel
    prob = make_problem(J=16, profile="constant")
    u = solve_duhamel(prob)
    grid = prob.elliptic.grid
    fhat = np.fft.fft(prob.base.values[:, 0], norm="ortho")
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


def test_coercive_ratio_and_residual():
    prob = make_problem(J=128)
    u = solve_duhamel(prob)
    ratio = parabolic_coercive_ratio(prob, u)
    assert ratio is not None and np.isfinite(ratio) and ratio >= 1.0 - 1e-9
    residual = parabolic_diagnostics(prob, *evolve_spectra(prob, "duhamel"))[1]
    assert residual < 5e-3  # limited by time discretization
    zero = SpaceTimeField(grid=prob.elliptic.grid,
                          values=np.zeros((prob.J + 1,) + prob.base.values.shape), Y=prob.Y)
    none_prob = replace(prob, profile=np.zeros(prob.J + 1))
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
    assert mixed_norm(u) <= mixed_norm(forcing_stack(prob))


def _equation_residual_per_slice(prob, u):
    """Physical oracle: the equation residual with one apply_operator call per
    time slice and every norm taken on the grid."""
    f = forcing_stack(prob)
    nf = mixed_norm(f)
    du = np.gradient(u.values, u.dy, axis=0)  # centered, one-sided at the ends
    res_vals = du + np.stack(
        [apply_operator(prob.elliptic, u.slice(j)).values for j in range(u.J + 1)]
    ) - f.values
    res = SpaceTimeField(grid=u.grid, values=res_vals, Y=u.Y)
    return mixed_norm(res) / nf if nf > 0 else mixed_norm(res)


def _spectral_residual_per_slice(prob, u_hat, f0_hat):
    """Reference: the residual of parabolic_diagnostics at p = q = 2 one slice
    at a time: the time difference of the spectra, P_t(xi) u_hat, u_hat A^T
    and a_j f0_hat, each slice's Parseval norm (|a_j| ||f0|| for f), then
    trapezoid weights in time."""
    ell, a = prob.elliptic, prob.profile
    P, A, J, dy = ell.symbol_values()[..., None], ell.model.A, prob.J, prob.dy
    f0_norm = _lp_lq_norms_from_spectra(f0_hat[None], ell.grid, 2.0, 2.0)[0]
    inner, fnorm = np.empty(J + 1), np.empty(J + 1)
    for j in range(J + 1):
        if j == 0:
            du = (u_hat[1] - u_hat[0]) / dy
        elif j == J:
            du = (u_hat[J] - u_hat[J - 1]) / dy
        else:
            du = (u_hat[j + 1] - u_hat[j - 1]) / (2.0 * dy)
        res = du + (P * u_hat[j] + u_hat[j] @ A.T) - a[j] * f0_hat
        inner[j] = _lp_lq_norms_from_spectra(res[None], ell.grid, 2.0, 2.0)[0]
        fnorm[j] = abs(a[j]) * f0_norm
    w = np.full(J + 1, dy)
    w[0] *= 0.5
    w[-1] *= 0.5
    nres, nf = (float(np.sum(w * v**2) ** 0.5) for v in (inner, fnorm))
    return nres / nf if nf > 0 else nres


def make_tridiagonal_2d_problem(J=16):
    grid = GridSpec(n=2, M=8, L=2 * np.pi)
    model = make_model(tridiagonal_matrix(8, -1.0, 2.0, -1.0))
    ell = EllipticProblem(model=model, symbol=power_symbol(m=2.0),
                          t=ScaleParams.isotropic(0.5, 2), lam=0.0, grid=grid)
    times = np.linspace(0.0, 1.0, J + 1)
    return ParabolicProblem(elliptic=ell, profile=np.sin(np.pi * times),
                            base=gaussian_field(grid, vector=np.linspace(1.0, 2.0, 8)), Y=1.0)


def make_nonnormal_2d_problem(J=16, q=2.0, amplitude=1.0):
    """A 2-D problem with N = 2 and a non-symmetric A."""
    grid = GridSpec(n=2, M=8, L=2 * np.pi)
    ell = EllipticProblem(model=make_model(np.array([[2.0, 0.5], [0.0, 1.0]]), q=q),
                          symbol=power_symbol(m=2.0), t=ScaleParams((0.5, 0.1)), lam=0.0,
                          grid=grid)
    times = np.linspace(0.0, 1.0, J + 1)
    return ParabolicProblem(elliptic=ell, profile=amplitude * np.sin(np.pi * times),
                            base=gaussian_field(grid, vector=[1.0, -0.5j]), Y=1.0)


PROBLEMS = {"scalar-1d": lambda: make_problem(J=128),
            "tridiagonal-2d": lambda: make_tridiagonal_2d_problem(J=16),
            "nonnormal-2d": make_nonnormal_2d_problem}


def _weights(prob, method):
    """The eigenbasis (V, V^-1) and the step weights (a, b0, b1) per mode and channel."""
    w, V, Vinv = eigenbasis(prob.elliptic.model)
    g, dy = prob.elliptic.symbol_values()[..., None] + w, prob.dy
    if method == "duhamel":
        z = -dy * g
        return V, Vinv, (np.exp(z), dy * (_phi1(z) - _phi2(z)), dy * _phi2(z))
    return V, Vinv, (1.0 / (1.0 + dy * g), 0.0, dy / (1.0 + dy * g))


def _step_by_step(prob, method):
    """Reference: the time stepping with every product formed inside the step,
    one slice at a time, from the eigencoordinates c of the base's spectrum;
    returns the solution spectra."""
    V, Vinv, (a, b0, b1) = _weights(prob, method)
    c, p = prob.elliptic.grid.fft(prob.base.values) @ Vinv.T, prob.profile
    u = np.zeros((prob.J + 1,) + c.shape, dtype=complex)
    for j in range(prob.J):
        u[j + 1] = a * u[j] + (p[j] * (b0 * c) + p[j + 1] * (b1 * c))
    return u @ V.T


def _stacked_recipe(prob, method):
    """Reference: the evolution of the materialised forcing stack a_j f0, one
    forward FFT of every slice and the recurrence on its eigencoordinates c_j,
    u_{j+1} = a u_j + (b0 c_j + b1 c_{j+1}); returns the solution spectra."""
    V, Vinv, (a, b0, b1) = _weights(prob, method)
    c = prob.elliptic.grid.fft(forcing_stack(prob).values) @ Vinv.T
    u = np.zeros_like(c)
    for j in range(prob.J):
        u[j + 1] = a * u[j] + (b0 * c[j] + b1 * c[j + 1])
    return u @ V.T


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


@pytest.mark.parametrize("make", list(PROBLEMS.values()), ids=list(PROBLEMS))
@pytest.mark.parametrize("solver", [solve_duhamel, solve_implicit_euler])
def test_solvers_match_step_by_step_reference_bit_for_bit(make, solver):
    prob = make()
    u_hat, f0_hat = evolve_spectra(prob, METHOD[solver])
    ref = _step_by_step(prob, METHOD[solver])
    np.testing.assert_array_equal(_bits(u_hat), _bits(ref))
    np.testing.assert_array_equal(_bits(f0_hat), _bits(prob.elliptic.grid.fft(prob.base.values)))
    np.testing.assert_array_equal(_bits(solver(prob).values),
                                  _bits(prob.elliptic.grid.ifft(ref)))


def separable_problem(model, n, profile, J=16):
    """A problem on an n-dimensional grid forced by a sin or a random complex
    profile times a random band-limited base."""
    grid = GridSpec(n=n, M=16 if n == 1 else 8, L=2 * np.pi)
    ell = EllipticProblem(model=model, symbol=power_symbol(m=2.0),
                          t=ScaleParams.isotropic(0.5, n), lam=0.0, grid=grid)
    rng = np.random.default_rng(n)
    a = np.sin(np.pi * np.linspace(0.0, 1.0, J + 1)) if profile == "sin" else \
        rng.standard_normal(J + 1) + 1j * rng.standard_normal(J + 1)
    base = random_band_limited_field(grid, model.N, rng, fraction=1.0)
    return ParabolicProblem(elliptic=ell, profile=a, base=base, Y=1.0)


SEPARABLE_MODELS = {"scalar": make_model(np.array([[1.0]])),
                    "tridiagonal-n8": make_model(tridiagonal_matrix(8, -1.0, 2.0, -1.0))}


@pytest.mark.parametrize("profile", ["sin", "complex"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("model", list(SEPARABLE_MODELS))
@pytest.mark.parametrize("method", ["duhamel", "implicit-euler"])
def test_evolve_spectra_matches_the_stacked_recipe(method, model, n, profile):
    """One FFT of the base and the profile's outer product give the solution of
    the FFT of every slice of the materialised stack, to roundoff."""
    prob = separable_problem(SEPARABLE_MODELS[model], n, profile)
    u_hat, f0_hat = evolve_spectra(prob, method)
    ref = _stacked_recipe(prob, method)
    assert np.linalg.norm(u_hat - ref) <= 1e-13 * np.linalg.norm(ref)
    assert f0_hat.shape == prob.base.values.shape


@pytest.mark.parametrize("p1", [2.0, np.inf])
@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
@pytest.mark.parametrize("model", list(SEPARABLE_MODELS))
def test_parabolic_diagnostics_match_the_materialised_stack(model, p, p1):
    """|a_j| ||f0|| and the residual's a_j f0 per block against the norms of the
    materialised forcing stack, on the grid."""
    prob = separable_problem(SEPARABLE_MODELS[model], 2, "complex")
    got = parabolic_diagnostics(prob, *evolve_spectra(prob, "duhamel"), p=p, p1=p1)
    ref = _diagnostics_reference(prob, solve_duhamel(prob), p=p, p1=p1)
    assert got[2] == pytest.approx(mixed_norm(forcing_stack(prob), p, p1, 2.0), rel=1e-13)
    for value, expected in zip(got, ref):
        assert value == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("name", ["scalar-1d", "tridiagonal-2d"])
@pytest.mark.parametrize("solver", [solve_duhamel, solve_implicit_euler])
def test_equation_residual_matches_per_slice_loop(name, solver):
    prob = PROBLEMS[name]()
    u_hat, f0_hat = evolve_spectra(prob, METHOD[solver])
    residual = parabolic_diagnostics(prob, u_hat, f0_hat)[1]
    assert residual == _spectral_residual_per_slice(prob, u_hat, f0_hat)
    assert residual == pytest.approx(_equation_residual_per_slice(prob, solver(prob)), rel=1e-13)
    unforced = replace(prob, profile=np.zeros(prob.J + 1))
    residual = parabolic_diagnostics(unforced, u_hat, f0_hat)[1]
    assert residual == _spectral_residual_per_slice(unforced, u_hat, f0_hat)
    assert residual == pytest.approx(_equation_residual_per_slice(unforced, solver(prob)),
                                     rel=1e-13)


@pytest.mark.parametrize("slices", [1, 3, 7])
def test_diagnostics_do_not_depend_on_the_block_size(monkeypatch, slices):
    prob = make_problem(J=64)
    spectra = evolve_spectra(prob, "duhamel")
    whole = parabolic_diagnostics(prob, *spectra)
    monkeypatch.setattr(spaces, "BLOCK_ENTRIES", slices * spectra[0][0].size)
    assert parabolic_diagnostics(prob, *spectra) == whole
    assert whole[1] == _spectral_residual_per_slice(prob, *spectra)


def _diagnostics_reference(prob, u, p=2.0, p1=2.0):
    """Physical oracle: the coercive ratio, the residual and the norms of f and u from
    explicit time differences and an einsum for A u, every norm taken on the grid."""
    ell, f = prob.elliptic, forcing_stack(prob)

    def mixed(v):
        return mixed_norm(v, p, p1, ell.model.q)

    nf = mixed(f)
    du = np.empty_like(u.values)
    du[1:-1] = (u.values[2:] - u.values[:-2]) / (2.0 * u.dy)
    du[0] = (u.values[1] - u.values[0]) / u.dy
    du[-1] = (u.values[-1] - u.values[-2]) / u.dy
    Pu = ell.grid.ifft(ell.symbol_values()[..., None] * ell.grid.fft(u.values))
    Au = np.einsum("ij,...j->...i", ell.model.A, u.values)
    residual = mixed(replace(u, values=du + Pu + Au - f.values))
    if nf == 0:
        return None, residual, nf, mixed(u)
    ratio = sum(mixed(replace(u, values=v)) for v in (du, Pu, Au)) / nf
    return ratio, residual / nf, nf, mixed(u)


@pytest.mark.parametrize("solver", [solve_duhamel, solve_implicit_euler])
def test_parabolic_diagnostics_match_separate_computation(solver):
    prob = make_nonnormal_2d_problem()
    spectra = evolve_spectra(prob, METHOD[solver])
    ratio, residual, nf, nu = parabolic_diagnostics(prob, *spectra)
    ref = _diagnostics_reference(prob, solver(prob))
    for value, expected in zip((ratio, residual, nf, nu), ref):
        assert value == pytest.approx(expected, rel=1e-13)
    u, grid = solver(prob), prob.elliptic.grid
    assert parabolic_coercive_ratio(prob, u) == parabolic_diagnostics(
        prob, grid.fft(u.values), grid.fft(prob.base.values))[0]


@pytest.mark.parametrize("exponents", [{"p": 3.0}, {"p1": np.inf}, {"q": 3.0},
                                       {"p": 1.0, "p1": 1.5, "q": np.inf}],
                         ids=["p3", "p1-inf", "q3", "p1-q-inf"])
@pytest.mark.parametrize("solver", [solve_duhamel, solve_implicit_euler])
def test_parabolic_diagnostics_at_other_exponents(solver, exponents):
    prob = make_nonnormal_2d_problem(q=exponents.get("q", 2.0))
    norms = {k: v for k, v in exponents.items() if k != "q"}  # p and p1
    got = parabolic_diagnostics(prob, *evolve_spectra(prob, METHOD[solver]), **norms)
    for value, expected in zip(got, _diagnostics_reference(prob, solver(prob), **norms)):
        assert value == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("exponents", [{}, {"p": 3.0}], ids=["p2", "p3"])
def test_parabolic_diagnostics_without_forcing(exponents):
    prob = make_nonnormal_2d_problem(amplitude=0.0)
    u_hat, f0_hat = evolve_spectra(prob, "duhamel")
    assert not u_hat.any()
    assert parabolic_diagnostics(prob, u_hat, f0_hat, **exponents) == (None, 0.0, 0.0, 0.0)


def separable_exact_spectra(prob, f0_hat, profile):
    """Closed-form solution spectra of the forcing a(y) f0(x) at every time of the
    partition: per eigen-channel g = P_t(xi) + w_j, y phi1(-g y) f0_hat for
    a = 1 ("constant") and y^2 phi2(-g y) / Y for a = y / Y ("ramp")."""
    w, V, Vinv = eigenbasis(prob.elliptic.model)
    g = prob.elliptic.symbol_values()[..., None] + w
    y = np.linspace(0.0, prob.Y, prob.J + 1).reshape((-1,) + (1,) * g.ndim)
    h = y * _phi1(-g * y) if profile == "constant" else y**2 * _phi2(-g * y) / prob.Y
    return (h * (f0_hat @ Vinv.T)) @ V.T


SEPARABLE_ELLIPTIC = {
    "scalar-1d": lambda: make_problem(J=4).elliptic,
    "tridiagonal-n3-2d": lambda: EllipticProblem(
        model=make_model(tridiagonal_matrix(3, -1.0, 2.0, -1.0)), symbol=power_symbol(m=2.0),
        t=ScaleParams.isotropic(0.5, 2), lam=0.0, grid=GridSpec(n=2, M=8, L=2 * np.pi)),
}


@pytest.mark.parametrize("name", list(SEPARABLE_ELLIPTIC))
@pytest.mark.parametrize("J", [4, 16, 128])
@pytest.mark.parametrize("profile", ["constant", "ramp"])
def test_duhamel_is_exact_for_constant_and_ramp_forcing(name, J, profile):
    ell, Y = SEPARABLE_ELLIPTIC[name](), 0.7
    f0 = gaussian_field(ell.grid, vector=np.linspace(1.0, 2.0, ell.model.N))
    a = np.ones(J + 1) if profile == "constant" else np.linspace(0.0, 1.0, J + 1)
    prob = ParabolicProblem(elliptic=ell, profile=a, base=f0, Y=Y)
    u_hat = evolve_spectra(prob, "duhamel")[0]
    exact = separable_exact_spectra(prob, ell.grid.fft(f0.values), profile)
    assert np.linalg.norm(u_hat - exact) <= 1e-13 * np.linalg.norm(exact)
