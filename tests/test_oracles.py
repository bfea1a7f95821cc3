"""Dense-matrix oracles for the spectral solvers.

On grids with M^n * N <= 512 every operator is assembled as a dense matrix
from unitary DFT matrices, independently of the per-mode kernels, and the
solvers are checked against np.linalg.solve, scipy.linalg.expm and exact
singular values.  Fields are flattened in C order, grid point major and
component minor, so a field's values.reshape(-1) is the dense vector.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from psdo import (
    EllipticProblem,
    GridSpec,
    LowerTerm,
    MultiIndex,
    ParabolicProblem,
    ScaleParams,
    SpaceTimeField,
    apply_operator,
    contraction_estimate,
    gaussian_field,
    make_model,
    power_symbol,
    random_band_limited_field,
    solve_duhamel,
    solve_full,
    solve_principal,
)
from psdo.elliptic import NEUMANN_TOL

GRID = GridSpec(n=2, M=8, L=2 * np.pi)  # M^n * N = 128 with N = 2
T = ScaleParams((0.5, 0.1))
A_NONNORMAL = np.array([[2.0, 0.5], [0.0, 1.0]])


def axis_freqs(grid):
    return 2 * np.pi / grid.L * np.fft.fftfreq(grid.M) * grid.M


def dft_matrix(grid):
    """Unitary n-D DFT on C-ordered grid vectors, FFT frequency order."""
    k = np.arange(grid.M)
    F1 = np.exp(-2j * np.pi * np.outer(k, k) / grid.M) / np.sqrt(grid.M)
    F = np.ones((1, 1))
    for _ in range(grid.n):
        F = np.kron(F, F1)
    return F


def frequency_points(grid):
    mesh = np.meshgrid(*[axis_freqs(grid)] * grid.n, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, grid.n)


def multiplier_matrix(grid, N, symbol_values):
    """F^H diag(m) F acting on every component of an N-vector field."""
    F = dft_matrix(grid)
    T_ = F.conj().T @ (symbol_values[:, None] * F)
    return np.kron(T_, np.eye(N))


def derivative_symbol(grid, alpha):
    """(i xi)^alpha per axis, principal branch, 0 at xi = 0 and on the Nyquist
    mode for fractional or odd orders."""
    xi = frequency_points(grid)
    out = np.ones(len(xi), dtype=complex)
    for k, a in enumerate(alpha):
        if a == 0:
            continue
        fac = np.zeros(len(xi), dtype=complex)
        nz = xi[:, k] != 0
        fac[nz] = (1j * xi[nz, k]) ** a
        if a != round(a) or round(a) % 2 == 1:
            fac[np.abs(xi[:, k]) == np.abs(axis_freqs(grid)[grid.M // 2])] = 0.0
        out = out * fac
    return out


def dense_principal(prob):
    """P_t(D) + A + lambda for the power symbol P_t(xi) = sum_k t_k |xi_k|^m."""
    N = prob.model.N
    xi = frequency_points(prob.grid)
    P = np.sum(np.asarray(prob.t.t) * np.abs(xi) ** prob.symbol.m, axis=-1)
    npts = len(xi)
    return (multiplier_matrix(prob.grid, N, P) + np.kron(np.eye(npts), prob.model.A)
            + prob.lam * np.eye(npts * N))


def dense_lower(prob):
    """sum over lower terms of t(alpha) C_alpha(x) D^alpha."""
    N = prob.model.N
    npts = prob.grid.M ** prob.grid.n
    out = np.zeros((npts * N, npts * N), dtype=complex)
    for term in prob.lower_terms:
        c = np.broadcast_to(np.asarray(term.coefficient, dtype=complex),
                            prob.grid.shape + (N, N)).reshape(npts, N, N)
        C = np.zeros((npts, N, npts, N), dtype=complex)
        C[np.arange(npts), :, np.arange(npts), :] = c
        D = multiplier_matrix(prob.grid, N, derivative_symbol(prob.grid, term.alpha))
        out += prob.t.weight(term.alpha, prob.symbol.m) * C.reshape(npts * N, -1) @ D
    return out


def x_dependent_terms():
    x = GRID.points()
    c = np.empty(GRID.shape + (2, 2), dtype=complex)
    c[..., 0, 0] = 0.4 + 0.2 * np.cos(x[..., 0])
    c[..., 0, 1] = 0.1j * np.sin(x[..., 1])
    c[..., 1, 0] = 0.2
    c[..., 1, 1] = 0.3 * np.sin(x[..., 0] + x[..., 1])
    return (LowerTerm(alpha=MultiIndex((1.0, 0.0)), coefficient=c),
            LowerTerm(alpha=MultiIndex((0.5, 0.5)),
                      coefficient=np.array([[0.3, 0.0], [0.1, 0.2]])))


def constant_terms():
    return (LowerTerm(alpha=MultiIndex((1.0, 0.0)), coefficient=np.array([[0.5, 0.2], [0.0, 0.3]])),
            LowerTerm(alpha=MultiIndex((0.5, 0.5)), coefficient=0.4j * np.eye(2)))


def problem(lower_terms=(), lam=3.0 + 4.0j):
    return EllipticProblem(model=make_model(A_NONNORMAL), symbol=power_symbol(m=2.0),
                           t=T, lam=lam, grid=GRID, lower_terms=lower_terms)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("terms", [x_dependent_terms, constant_terms])
def test_apply_operator_and_solve_principal_match_dense(terms):
    prob = problem(terms())
    u = random_band_limited_field(GRID, 2, np.random.default_rng(1), fraction=1.0)
    O = dense_principal(prob) + dense_lower(prob)
    assert rel_err(apply_operator(prob, u).values.reshape(-1), O @ u.values.reshape(-1)) < 1e-13
    base = prob.principal
    direct = np.linalg.solve(dense_principal(base), u.values.reshape(-1))
    assert rel_err(solve_principal(base, u).values.reshape(-1), direct) < 1e-12


def test_solve_full_x_dependent_matches_dense_solve():
    prob = problem(x_dependent_terms())
    f = random_band_limited_field(GRID, 2, np.random.default_rng(2), fraction=1.0)
    u, rep = solve_full(prob, f)
    assert rep.iterations > 1
    O = dense_principal(prob) + dense_lower(prob)
    fv = f.values.reshape(-1)
    direct = np.linalg.solve(O, fv)
    # the Neumann loop stops at relative residual NEUMANN_TOL, so the error is
    # at most cond(O) times that
    assert rel_err(O @ u.values.reshape(-1), fv) < NEUMANN_TOL
    assert rel_err(u.values.reshape(-1), direct) <= np.linalg.cond(O) * NEUMANN_TOL


def test_duhamel_constant_forcing_matches_expm():
    J, Y = 8, 0.7
    ell = problem(lam=0.0)
    base = gaussian_field(GRID, width=0.8, vector=[1.0, -0.5j]).values
    forcing = SpaceTimeField(grid=GRID, values=np.broadcast_to(base, (J + 1,) + base.shape),
                             Y=Y)
    u = solve_duhamel(ParabolicProblem(elliptic=ell, forcing=forcing))
    G = dense_principal(ell)
    fv = base.reshape(-1)
    for j, y in enumerate(np.linspace(0.0, Y, J + 1)):
        # u(y) = int_0^y e^{-(y-s) G} f ds = G^-1 (I - e^{-y G}) f
        exact = np.linalg.solve(G, fv - expm(-y * G) @ fv)
        if j == 0:
            assert np.abs(u.values[0]).max() == 0.0
        else:
            assert rel_err(u.values[j].reshape(-1), exact) < 1e-11


@pytest.mark.parametrize("probes", [0, 16, 64])
def test_contraction_estimate_bounded_by_dense_norm(probes):
    prob = problem(x_dependent_terms())
    exact = np.linalg.norm(dense_lower(prob) @ np.linalg.inv(dense_principal(prob.principal)), 2)
    est = contraction_estimate(prob, probes=probes, seed=3)
    assert est <= exact * (1 + 1e-12)
    assert (est > 0) == (probes > 0)


def test_contraction_estimate_constant_coefficients_is_exact_norm():
    # constant coefficients are block diagonal per mode: the block norm is the exact norm
    prob = problem(constant_terms())
    exact = np.linalg.norm(dense_lower(prob) @ np.linalg.inv(dense_principal(prob.principal)), 2)
    assert contraction_estimate(prob, probes=0) == pytest.approx(exact, rel=1e-12)
    assert contraction_estimate(prob, probes=16, seed=3) == pytest.approx(exact, rel=1e-12)
