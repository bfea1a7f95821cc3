"""Dense-matrix oracles for the spectral solvers and the norm bounds.

On grids with M^n * N <= 512 every operator is assembled as a dense matrix
from unitary DFT matrices, independently of the per-mode kernels, and the
solvers are checked against np.linalg.solve, scipy.linalg.expm, the dense
implicit Euler recursion and exact singular values, and the batched
resolvents against per-lambda dense inverses, bit for bit, and the per-shift
resolvent norms and worst-mode vectors against explicit inverses.  Fields are flattened in
C order, grid point major and component minor, so a field's
values.reshape(-1) is the dense vector.  The operator-norm bounds are checked
against column and row sums, brute-force probing, and the R-bound estimate
against its Khintchine-Kahane bracket at q = 2.  The contraction estimate is
checked against the dense norm of L P^-1 at q = 2 (also its closed form for
Hermitian A and c I coefficients) and, at q in {1, inf}, against the
pure-mode field that attains the largest block norm.  The Parseval norms of
spectra are checked against the norms of their inverse FFTs.  The batched
continuum checks are checked against per-sample references: check_symbol_class
against one eval_symbol and one Richardson-extrapolated difference per
(t, xi), the sigma_alpha suprema of multiplier_family_check against the norms
of the scaled dense inverses, and its Mikhlin terms against the chain rule on
dense inverses.  The batched Kahane checks are checked against a
per-instance loop over every sign pattern with np.abs and explicit sums.
The real-power moduli of the coercive weights are checked against the
modulus of the complex power i_xi_power, and the worst mode's lattice delta
against the FFT of its sampled plane wave.
"""

import cmath
import itertools

import numpy as np
import pytest
from oracles import apply_operator, coercive_ratio
from scipy.linalg import block_diag, expm

from psdo import (
    EllipticProblem,
    GridSpec,
    LowerTerm,
    MultiIndex,
    ParabolicProblem,
    ScaleParams,
    SectorSweep,
    SymbolSpec,
    build_bvp_operator,
    check_positivity,
    check_symbol_class,
    coercive_index_set,
    contraction_estimate,
    estimate_rbound,
    eval_symbol,
    gaussian_field,
    i_xi_power,
    lambda_resolvent_family,
    make_model,
    mode_field,
    multiplier_family_check,
    power_symbol,
    probe_norm,
    random_band_limited_field,
    rotated_power_symbol,
    smoothed_power_symbol,
    solve_duhamel,
    solve_full,
    solve_implicit_euler,
    solve_principal,
    symbol_derivative,
    tridiagonal_matrix,
    vector_norms,
)
import psdo.elliptic
import psdo.operators
from psdo.elliptic import NEUMANN_TOL
from psdo.operators import (
    channel_matrices,
    operator_norm_upper,
    resolvent_norms,
    shifted_solve,
    top_vectors,
)
from psdo.spaces import _lp_lq_norms, _lp_lq_norms_from_spectra, band_limited_spectra, blocks
from psdo.verification import (
    _adapted_xi_samples,
    _kahane_checks,
    _plane_wave_spectra,
    _symbol_weights,
    fd_sigma,
)

GRID = GridSpec(n=2, M=8, L=2 * np.pi)  # M^n * N = 128 with N = 2
T = ScaleParams((0.5, 0.1))
A_NONNORMAL = np.array([[2.0, 0.5], [0.0, 1.0]])
A_HERMITIAN = tridiagonal_matrix(2, -1.0, 2.0, -1.0)


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


def dense_symbol(symbol, t, xi):
    """P_t(xi) of the power symbol sum_k t_k |xi_k|^m, its rotation by
    e^{i theta0} and its smoothing sum_k t_k (epsilon^2 + xi_k^2)^(m/2)."""
    tv = np.asarray(t.t)
    if symbol.kind == "smoothed-power":
        return np.sum(tv * (symbol.epsilon**2 + xi**2) ** (symbol.m / 2), axis=-1)
    P = np.sum(tv * np.abs(xi) ** symbol.m, axis=-1)
    return np.exp(1j * symbol.theta0) * P if symbol.kind == "rotated-power" else P


def dense_principal(prob):
    """P_t(D) + A + lambda for the symbols of dense_symbol."""
    N = prob.model.N
    xi = frequency_points(prob.grid)
    P = dense_symbol(prob.symbol, prob.t, xi)
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


def scalar_terms():
    """Every coefficient c I: with Hermitian A the contraction has a closed form."""
    return (LowerTerm(alpha=MultiIndex((1.0, 0.0)), coefficient=0.5 * np.eye(2)),
            LowerTerm(alpha=MultiIndex((0.5, 0.5)), coefficient=0.4j * np.eye(2)))


def problem(lower_terms=(), lam=3.0 + 4.0j, q=2.0, A=A_NONNORMAL):
    return EllipticProblem(model=make_model(A, q=q), symbol=power_symbol(m=2.0),
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


@pytest.mark.parametrize("symbol", [rotated_power_symbol(2.0, theta0=0.6),
                                    smoothed_power_symbol(1.5, epsilon=0.5)],
                         ids=lambda s: s.kind)
def test_solve_principal_matches_dense_for_other_symbols(symbol):
    prob = EllipticProblem(model=make_model(A_NONNORMAL), symbol=symbol, t=T,
                           lam=3.0 + 4.0j, grid=GRID)
    u = random_band_limited_field(GRID, 2, np.random.default_rng(7), fraction=1.0)
    O = dense_principal(prob)
    assert rel_err(apply_operator(prob, u).values.reshape(-1), O @ u.values.reshape(-1)) < 1e-13
    direct = np.linalg.solve(O, u.values.reshape(-1))
    assert rel_err(solve_principal(prob, u).values.reshape(-1), direct) < 1e-12


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


@pytest.mark.parametrize("A", [A_HERMITIAN, A_NONNORMAL], ids=["hermitian", "nonnormal"])
@pytest.mark.parametrize("terms", [constant_terms, scalar_terms])
def test_solve_full_constant_coefficients_matches_dense_solve(A, terms):
    prob = problem(terms(), A=A)
    f = random_band_limited_field(GRID, 2, np.random.default_rng(2), fraction=1.0)
    u, rep = solve_full(prob, f)
    assert rep.iterations > 1 and rep.contraction_exact
    O = dense_principal(prob) + dense_lower(prob)
    fv = f.values.reshape(-1)
    direct = np.linalg.solve(O, fv)
    assert rel_err(O @ u.values.reshape(-1), fv) < NEUMANN_TOL
    assert rel_err(u.values.reshape(-1), direct) <= np.linalg.cond(O) * NEUMANN_TOL
    # the reported residual is that of the applied operator, not an iterate difference
    assert rep.residuals[-1] == pytest.approx(rel_err(O @ u.values.reshape(-1), fv),
                                              rel=1e-5)


def l2_l3_norm(vec, grid, N):
    """L_2 norm over the grid of the pointwise l_3 norm of a dense field
    vector, written out: cube root of the summed cubed moduli per point."""
    pointwise = np.cbrt(np.sum(np.abs(vec.reshape(-1, N)) ** 3, axis=-1))
    return np.sqrt(np.sum(pointwise**2) * grid.cell_volume)


def test_q3_model_sets_the_norm_of_coercive_ratio_and_solve_full_residual():
    # fields carry no exponent: both numbers are L_2(l_3) norms because the model has q = 3
    grid, N, m = GridSpec(n=1, M=32, L=2 * np.pi), 3, 2.0
    t, lam = ScaleParams.isotropic(0.1, 1), 5.0 + 2.0j
    model = make_model(tridiagonal_matrix(N, -1.0, 2.0, -1.0), q=3.0)
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=np.array(
        [[0.5, 0.2j, 0.0], [0.0, 0.4, 0.1], [0.3, 0.0, 0.6]]))
    prob = EllipticProblem(model=model, symbol=power_symbol(m=m), t=t, lam=lam, grid=grid,
                           lower_terms=(term,))
    f = gaussian_field(grid, vector=[1.0, 0.5j, -0.25])
    fv = f.values.reshape(-1)
    u = solve_principal(prob.principal, f)
    uv = u.values.reshape(-1)
    total = l2_l3_norm(np.kron(np.eye(grid.M), model.A) @ uv, grid, N)
    for alpha in coercive_index_set(grid.n, m):
        D = multiplier_matrix(grid, N, derivative_symbol(grid, alpha))
        weight = t.weight(alpha, m) * abs(lam) ** (1.0 - alpha.order / m)
        total += weight * l2_l3_norm(D @ uv, grid, N)
    assert coercive_ratio(u, f, model, t, lam, m) == pytest.approx(
        total / l2_l3_norm(fv, grid, N), rel=1e-12)

    v, rep = solve_full(prob, f)
    assert rep.iterations > 1 and not rep.contraction_exact
    O = dense_principal(prob) + dense_lower(prob)
    residual = l2_l3_norm(O @ v.values.reshape(-1) - fv, grid, N) / l2_l3_norm(fv, grid, N)
    assert rep.residuals[-1] == pytest.approx(residual, rel=1e-5)


def test_duhamel_constant_forcing_matches_expm():
    J, Y = 8, 0.7
    ell = problem(lam=0.0)
    base = gaussian_field(GRID, width=0.8, vector=[1.0, -0.5j])
    u = solve_duhamel(ParabolicProblem(elliptic=ell, profile=np.ones(J + 1), base=base, Y=Y))
    G = dense_principal(ell)
    fv = base.values.reshape(-1)
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


def test_contraction_estimate_q2_constant_coefficients_draws_no_probes(monkeypatch):
    # at q = 2 the largest block norm is the norm (Plancherel), so no probe is drawn
    def no_probes(*args, **kwargs):
        raise AssertionError("contraction_estimate drew a probe field")

    monkeypatch.setattr(psdo.elliptic, "band_limited_spectra", no_probes)
    prob = problem(constant_terms())
    exact = np.linalg.norm(dense_lower(prob) @ np.linalg.inv(dense_principal(prob.principal)), 2)
    assert contraction_estimate(prob) == pytest.approx(exact, rel=1e-12)


def test_contraction_estimate_scalar_coefficients_closed_form(monkeypatch):
    # Hermitian A and c I coefficients at q = 2: max |l(xi)| max_j 1 / |w_j + lambda + P_t(xi)|,
    # with no inverse and no singular values
    def unused(*args, **kwargs):
        raise AssertionError("the closed form inverted or decomposed a block")

    prob = problem(scalar_terms(), A=A_HERMITIAN)
    exact = np.linalg.norm(dense_lower(prob) @ np.linalg.inv(dense_principal(prob.principal)), 2)
    for module in (psdo.elliptic, psdo.operators):
        monkeypatch.setattr(module, "shifted_solve", unused)
        monkeypatch.setattr(module, "operator_norm_upper", unused)
    assert contraction_estimate(prob) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("A, q", [(A_NONNORMAL, 2.0), (A_HERMITIAN, 3.0)],
                         ids=["nonnormal-q2", "hermitian-q3"])
def test_contraction_estimate_scalar_coefficients_take_one_norm_set(A, q, monkeypatch):
    # on the inverse path the c I terms need ||B(xi)|| alone: one batched set of
    # block norms, the same bits as the norms of the inverses themselves; on the
    # channel path (Hermitian A) no inverse and no SVD, and the LU + SVD
    # reference to rel 1e-12
    prob = problem(scalar_terms(), A=A, q=q)
    blocks = psdo.elliptic._lower_symbol_blocks(prob)
    shifts = psdo.elliptic._mode_shifts(prob.principal)
    B = np.linalg.inv(prob.model.A + shifts[:, None, None] * np.eye(prob.model.N, dtype=complex))
    expected = float(np.max(np.abs(blocks[..., 0, 0]).reshape(-1) * operator_norm_upper(B, q)))
    calls, svd, inverses, inv = [], np.linalg.svd, [], np.linalg.inv

    def counted(mats, q, *n2):
        calls.append((np.shape(mats), q))
        return operator_norm_upper(mats, q, *n2)

    def svds(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    def invs(*args, **kwargs):
        inverses.append(np.shape(args[0]))
        return inv(*args, **kwargs)

    monkeypatch.setattr(psdo.operators, "operator_norm_upper", counted)
    monkeypatch.setattr(np.linalg, "svd", svds)
    monkeypatch.setattr(np.linalg, "inv", invs)
    if prob.model.kappa == 1.0:
        assert contraction_estimate(prob, probes=0) == pytest.approx(expected, rel=1e-12)
        # the Riesz-Thorin bound takes the q = inf norm of the same stack, and n2 from channels
        assert calls == [(B.shape, q), (B.shape, np.inf)] and inverses == []
        return
    assert contraction_estimate(prob, probes=0) == expected
    # at q = 3 the Riesz-Thorin bound also takes the q = inf norm of the same stack
    assert calls[:2] == [(B.shape, q), "svd"] and calls.count("svd") == 1
    assert calls[2:] == ([] if q == 2 else [(B.shape, np.inf)])


def test_contraction_estimate_hermitian_non_scalar_coefficient_is_dense_norm(monkeypatch):
    # one coefficient is not c I, so the block norms are taken from the blocks themselves,
    # which a Hermitian A gives in its eigenbasis: no inverse and no solve
    def unused(*args, **kwargs):
        raise AssertionError("a block was inverted or solved")

    prob = problem(constant_terms(), A=A_HERMITIAN)
    exact = np.linalg.norm(dense_lower(prob) @ np.linalg.inv(dense_principal(prob.principal)), 2)
    monkeypatch.setattr(np.linalg, "inv", unused)
    monkeypatch.setattr(np.linalg, "solve", unused)
    assert contraction_estimate(prob) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 3])
def test_parseval_norms_match_physical_norms(n, N):
    grid = GridSpec(n=n, M=8, L=3.0)
    rng = np.random.default_rng(10 * n + N)
    spec = rng.standard_normal((4,) + grid.shape + (N,)) \
        + 1j * rng.standard_normal((4,) + grid.shape + (N,))
    got = _lp_lq_norms_from_spectra(spec, grid, 2.0, 2.0)
    np.testing.assert_allclose(got, _lp_lq_norms(grid.ifft(spec), grid, 2.0, 2.0), rtol=1e-13)


def dense_mode_blocks(K, grid, N):
    """Per-mode N x N blocks of a dense Fourier multiplier K, FFT order."""
    FN = np.kron(dft_matrix(grid), np.eye(N))
    Khat = FN @ K @ FN.conj().T
    modes = grid.M ** grid.n
    return np.stack([Khat[k * N:(k + 1) * N, k * N:(k + 1) * N] for k in range(modes)])


def l2_lq_norm(vec, grid, N, q):
    """L_2 norm over the grid of the pointwise l_q norm of a dense field vector."""
    return np.linalg.norm(vector_norms(vec.reshape(-1, N), q)) * np.sqrt(grid.cell_volume)


@pytest.mark.parametrize("q", [1.0, np.inf])
def test_contraction_estimate_q1_inf_keeps_probes_above_pure_mode_value(q, monkeypatch):
    calls = []

    def counted(grid, N, rngs, count):
        calls.extend([None] * count)
        return band_limited_spectra(grid, N, rngs, count)

    monkeypatch.setattr(psdo.elliptic, "band_limited_spectra", counted)
    # with c I coefficients the block norms are |l(xi)| ||B(xi)||_q, from resolvent_norms
    for terms in (constant_terms, scalar_terms):
        prob = problem(terms(), q=q)
        N = prob.model.N
        K = dense_lower(prob) @ np.linalg.inv(dense_principal(prob.principal))
        blocks = dense_mode_blocks(K, GRID, N)
        # l_1 norm: largest column sum; l_inf norm: largest row sum
        sums = np.abs(blocks).sum(axis=1 if q == 1 else 2)
        k, j = np.unravel_index(np.argmax(sums), sums.shape)
        block_value = sums[k, j]
        # the vector attaining the block norm: a unit vector (q = 1) or the phases of row j (q = inf)
        v = np.eye(N)[j] if q == 1 else np.exp(-1j * np.angle(blocks[k, j]))
        x = GRID.points().reshape(-1, GRID.n)
        u = (np.exp(1j * x @ frequency_points(GRID)[k])[:, None] * v).reshape(-1)
        attained = l2_lq_norm(K @ u, GRID, N, q) / l2_lq_norm(u, GRID, N, q)
        assert attained == pytest.approx(block_value, rel=1e-12)

        calls.clear()
        assert contraction_estimate(prob, probes=0) == pytest.approx(block_value, rel=1e-12)
        assert not calls
        est = contraction_estimate(prob)
        assert len(calls) == 64
        assert est >= block_value * (1 - 1e-12)


def test_implicit_euler_matches_dense_recursion():
    J, Y = 8, 0.7
    ell = problem(lam=0.0)
    rng = np.random.default_rng(4)
    profile = rng.standard_normal(J + 1) + 1j * rng.standard_normal(J + 1)
    base = random_band_limited_field(GRID, 2, rng, fraction=1.0)
    u = solve_implicit_euler(ParabolicProblem(elliptic=ell, profile=profile, base=base, Y=Y))
    dy = Y / J
    G = dense_principal(ell)
    step = np.linalg.inv(np.eye(len(G)) + dy * G)
    ref = np.zeros(len(G), dtype=complex)
    assert np.abs(u.values[0]).max() == 0.0
    for j in range(J):
        # u_{j+1} = (I + dy G)^-1 (u_j + dy f_{j+1})
        ref = step @ (ref + dy * profile[j + 1] * base.values.reshape(-1))
        assert rel_err(u.values[j + 1].reshape(-1), ref) < 1e-12


def per_mode_stack():
    """(A + lambda + P(xi))^-1 at every lattice mode, with A the test problem's
    non-normal matrix plus a seeded complex perturbation."""
    prob = problem()
    xi = frequency_points(GRID)
    P = np.sum(np.asarray(T.t) * np.abs(xi) ** 2.0, axis=-1)
    A = A_NONNORMAL + 0.3j * np.random.default_rng(5).standard_normal((2, 2))
    return np.linalg.inv(A + (prob.lam + P)[:, None, None] * np.eye(2))


def test_operator_norm_upper_exact_at_one_and_inf():
    mats = per_mode_stack()
    dense = block_diag(*mats)
    for q, axis, order in [(1, 0, 1), (np.inf, 1, np.inf)]:
        norms = operator_norm_upper(mats, q)
        # the max column (q = 1) or row (q = inf) sum of each matrix ...
        sums = np.abs(mats).sum(axis=axis + 1).max(axis=-1)
        assert norms == pytest.approx(sums, rel=1e-14)
        # ... and of the dense block-diagonal operator
        assert norms.max() == pytest.approx(np.linalg.norm(dense, order), rel=1e-14)
    # both are attained: by a unit column at q = 1, by a phase vector at q = inf
    for M, n1, ninf in zip(mats, operator_norm_upper(mats, 1), operator_norm_upper(mats, np.inf)):
        j = int(np.abs(M).sum(axis=0).argmax())
        assert vector_norms(M[:, j], 1) == pytest.approx(n1, rel=1e-14)
        i = int(np.abs(M).sum(axis=1).argmax())
        x = np.exp(-1j * np.angle(M[i]))
        assert vector_norms(M @ x, np.inf) == pytest.approx(ninf, rel=1e-14)


def test_operator_norm_upper_q3_bounds_probe_maximum():
    mats = per_mode_stack()[::7]
    upper = operator_norm_upper(mats, 3.0)
    rng = np.random.default_rng(6)
    probes = rng.standard_normal((4096, 2)) + 1j * rng.standard_normal((4096, 2))
    for M, bound in zip(mats, upper):
        brute = float((vector_norms(probes @ M.T, 3.0) / vector_norms(probes, 3.0)).max())
        searched = probe_norm(M, q=3.0)
        assert brute <= searched * (1 + 1e-12)
        assert searched <= bound * (1 + 1e-12)


def test_rbound_bracket_at_q2():
    # max_j ||T_j||_2 <= est <= sqrt(2) max_j ||T_j||_2 (Khintchine-Kahane, constant sqrt(2))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        N = 1 + seed % 4
        fam = list(rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N)))
        est = estimate_rbound(fam, q=2.0, tuple_size=2)
        largest = max(np.linalg.norm(Tj, 2) for Tj in fam)
        assert est.upper == pytest.approx(np.sqrt(2.0) * largest, rel=1e-14)
        assert largest * (1 - 1e-12) <= est.value <= est.upper


def resolvent_models():
    """A scalar, the N = 8 tridiagonal system and a complex non-normal matrix."""
    tri = 2.0 * np.eye(8) - np.eye(8, k=1) - np.eye(8, k=-1)
    rng = np.random.default_rng(8)
    nonnormal = np.triu(rng.standard_normal((3, 3))) + 3.0 * np.eye(3) + 0.2j
    return [np.array([[1.0]]), tri, nonnormal]


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("k", range(3))
def test_check_positivity_matches_per_lambda_dense_loop(k, q):
    model = make_model(resolvent_models()[k], q=q)
    sweep = SectorSweep(phi2=1.0, rays=(-1.0, 0.0, 1.0), radii=tuple(np.logspace(-1, 3, 9)))
    cert = check_positivity(model, 1.0, sweep)
    best, worst = -np.inf, None
    for lam in [0.0 + 0.0j] + sweep.lambdas():
        R = np.linalg.inv(model.A + lam * np.eye(model.N))
        val = (1.0 + abs(lam)) * float(operator_norm_upper(R, q))
        if val > best:
            best, worst = val, lam
    assert cert.M == best
    assert cert.worst_lambda == worst


@pytest.mark.parametrize("k", range(3))
def test_lambda_resolvent_family_matches_dense_inverse(k):
    model = make_model(resolvent_models()[k])
    lambdas = [0.5, 2.0 + 1.0j, -1.0j, 1e3]
    fam = lambda_resolvent_family(model, lambdas)
    for lam, member in zip(lambdas, fam):
        assert np.array_equal(member, lam * np.linalg.inv(model.A + lam * np.eye(model.N)))


def richardson_derivative(fn, xi, k):
    """d fn / d xi_k at one row xi from central differences with steps h, h/2
    and h/4, h = 1e-3 |xi_k|, extrapolated twice (error O(h^6)); needs
    xi_k != 0 and no kink of fn within h of xi_k."""
    def central(h):
        step = np.zeros(len(xi))
        step[k] = h
        return (complex(fn(xi + step)) - complex(fn(xi - step))) / (2.0 * h)

    h = 1e-3 * abs(xi[k])
    d1, d2, d4 = central(h), central(h / 2.0), central(h / 4.0)
    r1, r2 = (4.0 * d2 - d1) / 3.0, (4.0 * d4 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def per_sample_symbol_class(spec, t_grid, xi_grid):
    """(constants, sector_ok, lower_margin, samples) of the symbol-class check,
    one eval_symbol and one Richardson difference per (t, xi) sample and axis.
    Rows with xi_k = 0 are left out of D_k (symbol_derivative reads 0 there,
    or a table slope that no other row's term falls below), and the mixed
    constants, exactly 0 for these axis sums, are not computed.  For a power
    symbol of order m < 1 the one-axis constants are the supremum over every
    xi, not only the samples: t_k m |xi_k|^(m-1) grows without bound as
    xi_k -> 0, so they are inf."""
    n = xi_grid.shape[1]
    betas = [b for b in np.ndindex(*([2] * n)) if sum(b) <= 1]
    constants = {b: 0.0 for b in betas}
    sector_ok, margin, count = True, np.inf, 0
    for t in t_grid:
        tvec = np.asarray(t.t)
        for xi in xi_grid:
            count += 1
            val = complex(eval_symbol(spec, t, xi))
            if abs(val) > 1e-9 and abs(cmath.phase(val)) > spec.phi1 + 1e-9:
                sector_ok = False
            denom = spec.gamma * float(np.sum(tvec * np.abs(xi) ** spec.m))
            if denom > 0:
                margin = min(margin, abs(val) / denom)
            for beta in betas:
                if sum(beta) == 0:
                    d = val
                elif xi[beta.index(1)] == 0:
                    continue
                else:
                    d = richardson_derivative(lambda x: eval_symbol(spec, t, x), xi,
                                              beta.index(1))
                e = spec.m - sum(beta)
                bracket = (1.0 + np.sqrt(np.sum(tvec ** (2.0 / e) * xi**2))) ** e \
                    if e > 0 else 1.0
                constants[beta] = max(constants[beta], abs(d) / bracket)
    if spec.kind == "power" and spec.m < 1:
        constants.update({b: np.inf for b in betas if sum(b) == 1})
    return constants, sector_ok, margin if np.isfinite(margin) else 1.0, count


def symbol_class_grid(n):
    """Signed log-spaced values, all tuples, with 0 and the small values 1e-6
    and 5e-4; the largest, 10^1.5, stays inside the user table's range, and
    no value but 0 is one of its knots."""
    mags = np.logspace(-1, 1.5, 4)
    vals = np.concatenate([-mags[::-1], [0.0, 1e-6, 5e-4], mags])
    return np.stack(np.meshgrid(*[vals] * n, indexing="ij"), axis=-1).reshape(-1, n)


TABLE_POINTS = np.linspace(-60.0, 60.0, 241)
RICHARDSON_RTOL = 1e-11  # the extrapolated differences read within 4e-13 relative
SYMBOL_CASES = pytest.mark.parametrize("spec, n", [
    (power_symbol(2.0), 1), (power_symbol(3.0), 2), (power_symbol(0.5), 1),
    (rotated_power_symbol(2.0, theta0=0.3), 1), (rotated_power_symbol(1.5, theta0=-0.4), 2),
    (smoothed_power_symbol(2.0, epsilon=0.5), 1), (smoothed_power_symbol(1.5, epsilon=0.5), 2),
    (SymbolSpec(kind="user-table", m=2.0,
                table=(TABLE_POINTS, TABLE_POINTS**2 * np.exp(0.05j * np.sign(TABLE_POINTS)))), 1),
], ids=["power-n1", "power-n2", "power-m0.5-n1", "rotated-n1", "rotated-n2", "smoothed-n1", "smoothed-n2",
        "user-table"])


@SYMBOL_CASES
def test_symbol_derivative_matches_richardson_differences(spec, n):
    """Each D_k P at every row with xi_k != 0 against the Richardson
    difference, for one t and for a block of two (one t per leading entry),
    and every mixed D^beta P exactly 0."""
    t_grid = [ScaleParams.isotropic(1e-2, n), ScaleParams(tuple(np.linspace(0.3, 1.0, n)))]
    xi = symbol_class_grid(n)
    block = np.stack([xi, xi])
    for beta in np.ndindex(*([2] * n)):
        if sum(beta) > 1:
            mixed = symbol_derivative(spec, t_grid, block, beta)
            assert np.array_equal(mixed, np.zeros((2, len(xi))))
            continue
        together = symbol_derivative(spec, t_grid, block, beta)
        for t, rows in zip(t_grid, together):
            assert np.array_equal(rows, symbol_derivative(spec, t, xi, beta))
            if sum(beta) == 0:
                assert np.array_equal(rows, eval_symbol(spec, t, xi))
                continue
            k = beta.index(1)
            for x, d in zip(xi, rows):
                if x[k] != 0:
                    ref = richardson_derivative(lambda y: eval_symbol(spec, t, y), x, k)
                    # plus the roundoff of P itself over the differences' steps 1e-3 |xi_k|
                    noise = 1e-11 * abs(complex(eval_symbol(spec, t, x))) / abs(x[k])
                    assert d == pytest.approx(ref, rel=RICHARDSON_RTOL, abs=noise)


@SYMBOL_CASES
def test_check_symbol_class_matches_per_sample_loop(spec, n):
    t_grid = [ScaleParams.isotropic(1e-2, n), ScaleParams(tuple(np.linspace(0.3, 1.0, n)))]
    xi = symbol_class_grid(n)
    rep = check_symbol_class(spec, t_grid, xi)
    constants, sector_ok, margin, samples = per_sample_symbol_class(spec, t_grid, xi)
    assert rep.samples == samples == len(t_grid) * len(xi)
    assert rep.sector_ok == sector_ok
    assert rep.lower_margin == pytest.approx(margin, rel=1e-12, abs=0)
    assert set(rep.constants) == set(np.ndindex(*([2] * n)))
    for beta, c in rep.constants.items():
        if sum(beta) > 1:
            assert c == 0.0
        else:
            assert constants[beta] > 0
            assert c == pytest.approx(constants[beta], rel=1e-12 if sum(beta) == 0
                                      else RICHARDSON_RTOL, abs=0)


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2])
def test_multiplier_sigma_alpha_matches_scaled_stack_norms(q, n):
    """Each point's sigma_alpha, taken as |(i xi)^alpha| ||B||, against the
    operator norm of the scaled stack t(alpha) |lam|^(1-|alpha|/m) (i xi)^alpha B
    with B the dense inverse of A + lam + P_t(xi) at every sampled frequency."""
    A = np.array([[2.0, -0.5, 0.0], [-1.0, 2.0, -0.5], [0.0, -1.0, 2.0]])
    model, symbol, m = make_model(A, q=q), power_symbol(2.0), 2.0
    sweep = SectorSweep(phi2=np.pi / 4, rays=(-np.pi / 4, 0.0, np.pi / 4),
                        radii=(1.0, 1e2, 1e4),
                        t_grid=(ScaleParams.isotropic(1e-2, n), ScaleParams.isotropic(1.0, n)))
    rep = multiplier_family_check(model, symbol, sweep, dims=n, rbound_subsample=1,
                                  tuple_size=1)
    alphas = [a for a in coercive_index_set(n, m) if a.order > 0]
    for (lam, t), point in zip(sweep.points(), rep.points):
        xi = _adapted_xi_samples(lam, t, m, n, 17)
        P = eval_symbol(symbol, t, xi)
        B = np.linalg.inv(A + (lam + P)[:, None, None] * np.eye(3))
        for alpha in alphas:
            scale = t.weight(alpha, m) * abs(lam) ** (1 - alpha.order / m) \
                * i_xi_power(xi.T, alpha)
            expected = float(operator_norm_upper(scale[:, None, None] * B, q).max())
            assert point["sigma_alpha"][str(alpha.components)] == pytest.approx(expected,
                                                                                rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 1.5, 3.0, np.inf])
@pytest.mark.parametrize("name", ["complex-hermitian-4x4", "tridiagonal-n8"])
def test_multiplier_fd_sup_matches_dense_differences(name, q):
    """Each point's fd_sup, from channel values w / (w + s)^2 measured without
    an inverse, and the norms of the matrices of fd_sigma against
    operator_norm_upper of the chain rule -|xi| A B^2 P' on the dense inverse
    B of A + lam + P_t(xi), P' = 2 t xi, to rel 1e-9."""
    A = resolvent_norm_models()[name]
    model, symbol, m, n = make_model(A, q=q), power_symbol(2.0), 2.0, 1
    sweep = SectorSweep(phi2=np.pi / 4, rays=(-np.pi / 4, 0.0, np.pi / 4), radii=(1.0, 1e4),
                        t_grid=(ScaleParams((1e-2,)), ScaleParams((1.0,))))
    rep = multiplier_family_check(model, symbol, sweep, dims=n, rbound_subsample=1,
                                  tuple_size=1)
    eye = np.eye(model.N)
    for (lam, t), point in zip(sweep.points(), rep.points):
        xi = _adapted_xi_samples(lam, t, m, n, 17)
        B = np.linalg.inv(A + (lam + t.t[0] * xi[:, 0] ** 2)[:, None, None] * eye)
        dense = (-np.abs(xi[:, 0]) * 2.0 * t.t[0] * xi[:, 0])[:, None, None] * (A @ B @ B)
        expected = operator_norm_upper(dense, q)
        fd = channel_matrices(model, fd_sigma(model, symbol, t, lam, xi, (1,)))
        np.testing.assert_allclose(operator_norm_upper(fd, q), expected, rtol=1e-9,
                                   atol=1e-9 * expected.max())
        assert point["fd_sup"]["(1,)"] == pytest.approx(float(expected.max()), rel=1e-9)


@pytest.mark.parametrize("q", [2.0, 3.0])
@pytest.mark.parametrize("name", ["complex-hermitian-4x4", "tridiagonal-n8", "nonnormal-3x3"])
def test_multiplier_mixed_fd_sup_matches_dense_chain_rule(name, q):
    """The n = 2 mixed Mikhlin term: each point's fd_sup (1, 1) and the norms
    of the matrices of fd_sigma against operator_norm_upper of
    2 |xi|^2 A B^3 P_x P_y on the dense inverse B, P_k = 2 t_k xi_k, to rel
    1e-9; the channel path (unitary eigenbasis) and the LU path alike."""
    A = resolvent_norm_models()[name]
    model, symbol, m, n = make_model(A, q=q), power_symbol(2.0), 2.0, 2
    sweep = SectorSweep(phi2=np.pi / 4, rays=(-np.pi / 4, 0.0, np.pi / 4), radii=(1.0, 1e4),
                        t_grid=(ScaleParams((1e-2, 0.5)), ScaleParams((1.0, 1.0))))
    rep = multiplier_family_check(model, symbol, sweep, dims=n, rbound_subsample=1,
                                  tuple_size=1)
    eye = np.eye(model.N)
    for (lam, t), point in zip(sweep.points(), rep.points):
        xi = _adapted_xi_samples(lam, t, m, n, 17)
        tx, ty = t.t
        B = np.linalg.inv(A + (lam + tx * xi[:, 0] ** 2 + ty * xi[:, 1] ** 2)[:, None, None] * eye)
        factor = 2.0 * np.sum(xi**2, axis=1) * (2.0 * tx * xi[:, 0]) * (2.0 * ty * xi[:, 1])
        expected = operator_norm_upper(factor[:, None, None] * (A @ B @ B @ B), q)
        fd = channel_matrices(model, fd_sigma(model, symbol, t, lam, xi, (1, 1)))
        np.testing.assert_allclose(operator_norm_upper(fd, q), expected, rtol=1e-9,
                                   atol=1e-9 * expected.max())
        assert point["fd_sup"]["(1, 1)"] == pytest.approx(float(expected.max()), rel=1e-9)


HERMITIAN_MODELS = {
    "scalar": lambda: make_model(np.array([[1.0]])),
    "tridiagonal-n8": lambda: make_model(tridiagonal_matrix(8, -1.0, 2.0, -1.0)),
    "bvp-k64": lambda: build_bvp_operator(64, np.pi, 1.0),
}


def sector_shifts_and_rhs(N):
    """Shifts lambda + P with |arg lambda| <= pi/4 and P >= 0 from 0 to 3e3, and
    three random complex right-hand sides per shift, shape (3, shifts, N)."""
    lams = [r * cmath.exp(1j * a) for r in (1.0, 1e2, 1e4)
            for a in (-np.pi / 4, 0.0, np.pi / 5, np.pi / 4)]
    shifts = np.array([lam + P for lam in lams for P in (0.0, 0.5, 40.0, 3e3)])
    rng = np.random.default_rng(5)
    shape = (3, len(shifts), N)
    return shifts, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("name", HERMITIAN_MODELS)
def test_shifted_solve_eigenbasis_matches_dense_solve(name):
    """Hermitian A solves in its eigenbasis; each shift's solutions match the
    dense solve of A + s I to rel 1e-12 and leave a relative residual <= 1e-12."""
    model = HERMITIAN_MODELS[name]()
    assert model.kappa == 1.0
    shifts, rhs = sector_shifts_and_rhs(model.N)
    x = shifted_solve(model, shifts, rhs)
    for k, s in enumerate(shifts):
        mat = model.A + s * np.eye(model.N)
        ref = np.linalg.solve(mat, rhs[:, k].T).T
        assert np.linalg.norm(x[:, k] - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(x[:, k] @ mat.T - rhs[:, k]) <= 1e-12 * np.linalg.norm(rhs[:, k])


def test_shifted_solve_nonnormal_keeps_lu_bit_for_bit():
    model = build_bvp_operator(12, np.pi, 1.0, b1=3.0)
    assert model.kappa > 1.0
    shifts, rhs = sector_shifts_and_rhs(model.N)
    x = shifted_solve(model, shifts, rhs)
    for k, s in enumerate(shifts):
        ref = np.linalg.solve(model.A + s * np.eye(model.N), rhs[:, k].T).T
        assert np.array_equal(x[:, k], ref)


def resolvent_norm_models():
    """A random real symmetric 4x4, a random complex Hermitian 4x4 and the
    tridiagonal N = 8 (each a unitary eigenbasis) and a random non-normal
    3x3, all with spectra off the closed left half-plane."""
    rng = np.random.default_rng(11)
    G = rng.standard_normal((4, 4))
    nonnormal = rng.standard_normal((3, 3)) + np.diag([4.0, 5.0, 6.0])
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return {"hermitian-4x4": G @ G.T + np.eye(4), "nonnormal-3x3": nonnormal,
            "complex-hermitian-4x4": Z @ Z.conj().T + np.eye(4),
            "tridiagonal-n8": tridiagonal_matrix(8, -1.0, 2.0, -1.0)}


@pytest.mark.parametrize("q", [2.0, 3.0, 1.0, 1.5, np.inf])
@pytest.mark.parametrize("name", ["hermitian-4x4", "nonnormal-3x3", "complex-hermitian-4x4",
                                  "tridiagonal-n8"])
def test_resolvent_norms_match_dense_inverses(name, q):
    """||B|| and ||A B|| per shift against the explicit inverses: the spectral
    norm at q = 2, operator_norm_upper at other q.  The channel path (unitary
    eigenbasis) reports defect 0; the other path reports the inverse's
    defect; either only if asked.  top_vectors attains ||B||_2."""
    model = make_model(resolvent_norm_models()[name], q=q)
    assert (model.kappa == 1.0) == (name != "nonnormal-3x3")
    shifts = sector_shifts_and_rhs(model.N)[0]
    nB, nAB, defect = resolvent_norms(model, shifts, defect=True)
    assert resolvent_norms(model, shifts)[2] is None
    B = np.linalg.inv(model.A + shifts[:, None, None] * np.eye(model.N))
    if q == 2:
        norm = lambda mats: np.linalg.norm(mats, 2, axis=(-2, -1))
    else:
        norm = lambda mats: operator_norm_upper(mats, q)
    np.testing.assert_allclose(nB, norm(B), rtol=1e-12, atol=0)
    np.testing.assert_allclose(nAB, norm(model.A @ B), rtol=1e-12, atol=0)
    if model.kappa == 1.0:
        assert np.array_equal(defect, np.zeros(len(shifts)))
    else:
        assert 0 < defect.max() <= 1e-12
    v = top_vectors(model, shifts)
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm((B @ v[..., None])[..., 0], axis=-1),
                               np.linalg.norm(B, 2, axis=(-2, -1)), rtol=1e-12)


@pytest.mark.parametrize("q", [2.0, 3.0, 1.0, 1.5, np.inf])
@pytest.mark.parametrize("name", ["hermitian-4x4", "complex-hermitian-4x4", "tridiagonal-n8"])
def test_hermitian_resolvent_norms_and_top_vectors_take_no_lu_and_no_svd(name, q, monkeypatch):
    """On a unitary eigenbasis the norms, defect and worst-mode vectors of
    B = (A + s I)^-1 come from its channel values: no inverse, solve or SVD."""
    def unused(*args, **kwargs):
        raise AssertionError("a LAPACK inverse, solve or SVD")

    model = make_model(resolvent_norm_models()[name], q=q)
    shifts = sector_shifts_and_rhs(model.N)[0]
    for fn in ("inv", "solve", "svd"):
        monkeypatch.setattr(np.linalg, fn, unused)
    nB, nAB, defect = resolvent_norms(model, shifts, defect=True)
    v = top_vectors(model, shifts)
    assert nB.shape == nAB.shape == defect.shape == shifts.shape
    assert v.shape == shifts.shape + (model.N,)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_resolvent_norms_take_one_inverse_off_the_eigenbasis(q, monkeypatch):
    """On the non-normal model ||B||, ||A B|| and the defect come from one
    batched LU inverse: ||A B|| costs no second one."""
    model = make_model(resolvent_norm_models()["nonnormal-3x3"], q=q)
    shifts = sector_shifts_and_rhs(model.N)[0]
    inverses, inv = [], np.linalg.inv

    def counted(mats):
        inverses.append(mats.shape)
        return inv(mats)

    monkeypatch.setattr(np.linalg, "inv", counted)
    resolvent_norms(model, shifts, defect=True)
    assert inverses == [shifts.shape + (3, 3)]


# ---------------------------------------------------------------------------
# Kahane contraction checks


def kahane_by_patterns(scalars, vectors, q: float) -> tuple:
    """(constant, scale, complex flag, verdict) of one instance: a loop over
    all 2^m sign patterns that sums sum_j eps_j a_j u_j and sum_j eps_j u_j
    and takes their l_q norms from np.abs and explicit sums."""
    def norm(v):
        a = np.abs(v)
        return a.max() if q == np.inf else np.sum(a ** q) ** (1.0 / q)

    m = len(scalars)
    num = den = 0.0
    for p in range(2 ** m):
        eps = [2.0 * ((p >> j) & 1) - 1.0 for j in range(m)]
        num += norm(sum(e * a * u for e, a, u in zip(eps, scalars, vectors)))
        den += norm(sum(e * u for e, u in zip(eps, vectors)))
    constant = num / den if den > 0 else 0.0
    scale = max(abs(complex(a)) for a in scalars)
    is_complex = any(complex(a).imag != 0 for a in scalars)
    return constant, scale, is_complex, constant <= (2.0 if is_complex else 1.0) * scale + 1e-12


def kahane_instances(rng, count: int, m: int, N: int, complex_scalars: bool):
    scalars = rng.uniform(-1.0, 1.0, size=(count, m))
    if complex_scalars:
        scalars = scalars + 1j * rng.uniform(-1.0, 1.0, size=(count, m))
    return scalars, rng.standard_normal((count, m, N)) + 1j * rng.standard_normal((count, m, N))


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("N", [1, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_kahane_checks_match_pattern_loop(q, m, N, complex_scalars):
    rng = np.random.default_rng([m, N, int(complex_scalars)])
    scalars, vectors = kahane_instances(rng, 4, m, N, complex_scalars)
    checks = _kahane_checks(scalars, vectors, q)
    for k, (a, u) in enumerate(zip(scalars, vectors)):
        constant, scale, is_complex, verdict = kahane_by_patterns(a, u, q)
        assert checks[0][k] == pytest.approx(constant, rel=1e-14)
        assert checks[1][k] == scale
        assert checks[2][k] == is_complex == complex_scalars
        assert checks[3][k] == verdict


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_kahane_instance_bits_do_not_depend_on_its_batch(q, complex_scalars):
    """1000 instances span several blocks (spaces.blocks) at every N; each
    one's four outputs are the bits it gets when checked alone."""
    for N in (1, 3, 4):
        rng = np.random.default_rng([N, int(complex_scalars)])
        scalars, vectors = kahane_instances(rng, 1000, 6, N, complex_scalars)
        assert len(blocks(1000, 2 ** 5 * N)) > 1
        checks = _kahane_checks(scalars, vectors, q)
        for k in range(1000):
            alone = _kahane_checks(scalars[k:k + 1], vectors[k:k + 1], q)
            assert [a[0] for a in alone] == [a[k] for a in checks]


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_weight_moduli_match_the_complex_power(n):
    """_symbol_weights takes |(i xi)^alpha| as the real powers |xi_k|^alpha_k:
    within rel 1e-13 of np.abs(i_xi_power) (the real power is the more
    accurate one) on signed xi from 1e-12 to 1e12, zero exactly where
    i_xi_power is, and at order 2 the bits of xi * xi."""
    mags = np.concatenate([[0.0], np.logspace(-12, 12, 25 if n == 2 else 97)])
    axis = np.concatenate([-mags[::-1], mags])  # -0.0 and 0.0 both
    rows = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    alphas = [MultiIndex(c) for c in itertools.product([0.0, 0.5, 1.0, 1.5, 2.0, 3.0], repeat=n)]
    moduli = _symbol_weights(rows[None], np.ones((len(alphas), 1)), alphas)
    for alpha, modulus in zip(alphas, moduli):
        ref = np.abs(i_xi_power(rows.T, alpha))
        assert modulus.shape == (1, len(rows))
        np.testing.assert_array_equal(modulus[0] == 0, ref == 0)
        np.testing.assert_allclose(modulus[0], ref, rtol=1e-13, atol=0)
        if set(alpha) <= {0.0, 2.0}:
            square = np.ones(len(rows))
            for xk, a in zip(rows.T, alpha):
                square = square * (xk * xk) if a else square
            assert np.array_equal(modulus[0], square)


@pytest.mark.parametrize("n", [1, 2])
def test_plane_wave_spectra_are_the_ffts_of_their_modes(n):
    """Each spectrum of _plane_wave_spectra is 0 off its lattice index k mod M
    and grid.fft of the sampled mode_field within 1e-14 of the peak at it, for
    odd, even and negative k up to |k| = M/2 - 1 and box lengths 1e-4 to 37.5;
    the FFT itself is a delta to that accuracy."""
    M, N = 16, 3
    ks = np.array([[0], [1], [2], [-1], [-4], [7], [-7], [3]]) if n == 1 else \
        np.array([[0, 0], [1, -2], [-7, 7], [7, -1], [-3, 4], [2, 2], [-7, -7], [5, 0]])
    rng = np.random.default_rng(n)
    for L in (1e-4, 0.7, 2 * np.pi, 37.5):
        grid = GridSpec(n=n, M=M, L=L)
        xi0 = grid.freqs()[ks % M]  # lattice frequencies, as the sweep's rows hold them
        vec = rng.standard_normal((len(ks), N)) + 1j * rng.standard_normal((len(ks), N))
        out = np.full((len(ks),) + grid.shape + (N,), np.nan, dtype=complex)
        assert _plane_wave_spectra(M, np.full(len(ks), L), xi0, vec, out) is out
        for k, x0, v, spectrum in zip(ks, xi0, vec, out):
            ref = grid.fft(mode_field(grid, x0, v).values)
            at, off = tuple(k % M), np.ones(grid.shape, dtype=bool)
            off[at] = False
            peak = np.abs(ref).max()
            assert np.all(spectrum[off] == 0)
            assert np.abs(ref[off]).max() <= 1e-14 * peak
            assert np.abs(spectrum[at] - ref[at]).max() <= 1e-14 * peak
