import numpy as np
import pytest

from psdo import (
    EllipticityFailure,
    ModeSingular,
    NotPositiveDefinite,
    NotSymmetric,
    SectorSweep,
    build_bvp_operator,
    build_system,
    check_positivity,
    make_model,
    resolvent,
    tridiagonal_matrix,
)
from psdo.operators import operator_norm_upper
from psdo.spaces import vector_norms


def laplacian_like(N=8):
    return tridiagonal_matrix(N, -1.0, 2.0, -1.0)


def test_make_model_symmetric_metadata():
    m = make_model(laplacian_like())
    assert m.symmetric and m.positive_definite
    assert m.kappa == 1.0
    assert m.C0 == pytest.approx(2.0 * (1.0 - np.cos(np.pi / 9.0)), abs=1e-12)


def test_make_model_nonsymmetric():
    m = make_model(np.array([[1.0, 1.0], [0.5, 2.0]]))
    assert not m.symmetric
    assert m.kappa > 1.0


def test_operator_norm_exact_exponents():
    A = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert operator_norm_upper(A, 1) == pytest.approx(6.0)       # max column sum
    assert operator_norm_upper(A, np.inf) == pytest.approx(7.0)  # max row sum
    assert operator_norm_upper(A, 2) == pytest.approx(np.linalg.norm(A, 2))


def test_operator_norm_bracket_interpolated():
    # between q = 1, 2 and inf the Riesz-Thorin bound lies above the largest
    # ratio ||A v||_q / ||v||_q over random and unit probe vectors v
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    probes = np.concatenate([rng.standard_normal((256, 4)) + 1j * rng.standard_normal((256, 4)),
                             np.eye(4)])
    for q in (1.5, 3.0):
        lower = (vector_norms(probes @ A.T, q) / vector_norms(probes, q)).max()
        assert 0 < lower <= operator_norm_upper(A, q) + 1e-12
    with pytest.raises(ValueError):
        operator_norm_upper(A, 0.5)


def test_resolvent_identity():
    model = make_model(laplacian_like())
    lam, nu = 0.7 + 0.2j, 2.5 - 1.0j
    Rl = resolvent(model, lam)
    Rn = resolvent(model, nu)
    lhs = Rl - Rn
    rhs = (nu - lam) * Rl @ Rn
    assert np.abs(lhs - rhs).max() < 1e-9


def test_resolvent_spectrum_hit():
    model = make_model(np.array([[2.0]]))
    with pytest.raises(ModeSingular):
        resolvent(model, -2.0)


def test_check_positivity_identity_spot_value():
    # A = I, phi = pi/2: sup (1+|lam|) / |1+lam| on the imaginary axis is sqrt(2)
    model = make_model(np.eye(2))
    sweep = SectorSweep(phi2=np.pi / 2, rays=(-np.pi / 2, 0.0, np.pi / 2),
                       radii=tuple(np.logspace(-2, 3, 41)))
    cert = check_positivity(model, np.pi / 2, sweep)
    assert cert.finite
    assert cert.M == pytest.approx(np.sqrt(2.0), abs=1e-3)


def test_check_positivity_monotone_in_phi():
    model = make_model(laplacian_like(4))
    radii = tuple(np.logspace(-1, 2, 10))
    prev = 0.0
    for phi in (0.5, 1.0, 1.5):
        sweep = SectorSweep(phi2=phi, rays=(-phi, 0.0, phi), radii=radii)
        cert = check_positivity(model, phi, sweep)
        assert cert.M >= prev - 1e-12
        prev = cert.M


def test_build_system_c0_matches_rayleigh():
    A = laplacian_like(8)
    model = build_system(A)
    rng = np.random.default_rng(3)
    best = np.inf
    for _ in range(10_000):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        best = min(best, float(v @ A @ v))
    assert model.C0 <= best + 1e-12
    assert model.C0 == pytest.approx(float(np.linalg.eigvalsh(A).min()), abs=1e-12)


def test_build_system_rejections():
    with pytest.raises(NotSymmetric):
        build_system(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        build_system(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_bvp_single_interior_point():
    K = 3
    ell = 1.0
    h = ell / (K - 1)
    model = build_bvp_operator(K, ell, 1.0)
    assert model.A.shape == (1, 1)
    assert model.A[0, 0] == pytest.approx(2.0 / h**2)


def test_bvp_dirichlet_eigenvalue_limit():
    model = build_bvp_operator(64, np.pi, 1.0)
    h = np.pi / 63
    expected = 2.0 * (1.0 - np.cos(np.pi * h / np.pi)) / h**2
    smallest = model.eigvals.real.min()
    assert smallest == pytest.approx(expected, rel=1e-10)
    assert abs(smallest - 1.0) < 1e-3


def test_bvp_constant_shift():
    base = build_bvp_operator(16, 1.0, 1.0)
    shifted = build_bvp_operator(16, 1.0, 1.0, b0=3.5)
    assert np.abs(shifted.A - base.A - 3.5 * np.eye(14)).max() < 1e-12


def test_bvp_variable_coefficients_and_rejection():
    model = build_bvp_operator(16, 1.0, lambda y: 1.0 + y, b1=lambda y: y,
                               b0=lambda y: 0.5)
    assert model.A.shape == (14, 14)
    with pytest.raises(EllipticityFailure):
        build_bvp_operator(16, 1.0, lambda y: y - 0.5)
    with pytest.raises(ValueError):
        build_bvp_operator(2, 1.0, 1.0)


def test_sweep_validation():
    with pytest.raises(ValueError):
        SectorSweep(phi2=0.5, rays=(0.6,), radii=(1.0, 2.0))
    with pytest.raises(ValueError):
        SectorSweep(phi2=0.5, rays=(0.0,), radii=(2.0, 1.0))
    for rays, radii in [((np.nan,), (1.0,)), ((0.0,), (np.nan,)), ((0.0,), (1.0, np.nan)),
                        ((0.0,), (-10.0, 5.0))]:
        with pytest.raises(ValueError):
            SectorSweep(phi2=0.5, rays=rays, radii=radii)
    s = SectorSweep(phi2=0.5, rays=(-0.5, 0.5), radii=(1.0, 10.0))
    assert len(s.lambdas()) == 4
