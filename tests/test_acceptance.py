"""Acceptance suite: one test per pinned end-to-end criterion.

Each test states its tolerance inline.  These are the gate checks for the
package: exact single-mode solves, residual round trips, uniform coercivity
and resolvent sweeps with pinned reference constants, the sector-sum bound,
the perturbation solver, the randomized-average machinery, multiplier
family suprema, parabolic evolution, the matrix and boundary-value model
instances, and byte-level determinism of the shipped scenarios.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from parabolic_oracles import parabolic_coercive_ratio, semigroup_propagator

from psdo import (
    ContractionFailure,
    EllipticProblem,
    GridSpec,
    LowerTerm,
    MultiIndex,
    ParabolicProblem,
    ProblemTemplate,
    ScaleParams,
    SectorSweep,
    apply_operator,
    build_bvp_operator,
    build_system,
    check_positivity,
    coercive_ratio,
    coercivity_sweep,
    default_sweep,
    estimate_rbound,
    gaussian_field,
    kahane_contraction_check,
    lambda_resolvent_family,
    lp_lq_norm,
    make_model,
    mode_field,
    multiplier_family_check,
    power_symbol,
    probe_norm,
    random_band_limited_field,
    resolvent_sweep,
    sector_sum_constant,
    solve_duhamel,
    solve_full,
    solve_implicit_euler,
    solve_principal,
)
from psdo import verification
from psdo.cli import main as cli_main
from psdo.symbols import i_xi_power_factor

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Pinned constants from the frozen scalar-reference sweep (seed 0).
SCALAR_REFERENCE_MAX_RATIO = 1.623588029840643
SCALAR_REFERENCE_FLATNESS = 1.0052362115134845


def reference_sweep():
    return default_sweep(phi2=np.pi / 4)


def scalar_template(M=64):
    return ProblemTemplate(model=make_model(np.array([[1.0]])),
                           symbol=power_symbol(m=2.0),
                           grid=GridSpec(n=1, M=M, L=2 * np.pi))


# 1. single-mode exactness ------------------------------------------------

def test_acceptance_01_single_mode_exactness():
    lam = 2.0 + 1.5j
    rng = np.random.default_rng(0)
    for n in (1, 2):
        grid = GridSpec(n=n, M=64, L=2 * np.pi)
        t = ScaleParams.isotropic(0.7, n)
        xi0 = [3.0] * n
        for N in (1, 4):
            B = rng.standard_normal((N, N))
            A = B @ B.T + N * np.eye(N)
            model = make_model(A)
            prob = EllipticProblem(model=model, symbol=power_symbol(m=2.0),
                                   t=t, lam=lam, grid=grid)
            v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            f = mode_field(grid, xi0, v)
            u = solve_principal(prob, f)
            P = sum(0.7 * abs(x) ** 2 for x in xi0)
            closed = np.linalg.solve(A + (lam + P) * np.eye(N), v)
            x = grid.points()
            phase = np.exp(1j * np.tensordot(x, np.array(xi0), axes=([-1], [0])))
            expected = phase[..., None] * closed
            rel = np.abs(u.values - expected).max() / np.abs(expected).max()
            assert rel < 1e-12


# 2. residual round trip --------------------------------------------------

def test_acceptance_02_residual_round_trip():
    grid = GridSpec(n=1, M=256, L=2 * np.pi)
    prob = EllipticProblem(model=make_model(np.array([[1.0]])),
                           symbol=power_symbol(m=2.0),
                           t=ScaleParams.isotropic(1.0, 1), lam=1.0, grid=grid)
    f = gaussian_field(grid)
    u = solve_principal(prob, f)
    res = apply_operator(prob, u) - f
    assert lp_lq_norm(res, 2.0) / lp_lq_norm(f, 2.0) < 1e-10


# 3. coercivity uniformity ------------------------------------------------

def test_acceptance_03_coercivity_uniformity():
    rep = coercivity_sweep(scalar_template(), reference_sweep(),
                           data_count=8, seed=0)
    assert rep.passed
    assert np.isfinite(rep.max_ratio)
    assert rep.flatness <= 1.5
    assert rep.max_ratio == pytest.approx(SCALAR_REFERENCE_MAX_RATIO, rel=1e-9)
    assert rep.flatness == pytest.approx(SCALAR_REFERENCE_FLATNESS, rel=1e-9)


def test_acceptance_03_coercive_ratio_spot_value():
    # lam = 1, t = 1, single mode at xi0 = 1, index set {0, 1, 2}:
    # u_hat = f_hat / 3 and the three derivative terms contribute
    # (1 + 1 + 1) / 3 while A u contributes 1/3, so the ratio is 4/3
    grid = GridSpec(n=1, M=32, L=2 * np.pi)
    model = make_model(np.array([[1.0]]))
    t = ScaleParams.isotropic(1.0, 1)
    prob = EllipticProblem(model=model, symbol=power_symbol(m=2.0), t=t,
                           lam=1.0, grid=grid)
    f = mode_field(grid, [1.0], [1.0])
    u = solve_principal(prob, f)
    assert coercive_ratio(u, f, model, t, 1.0, 2.0) == pytest.approx(
        4.0 / 3.0, abs=1e-9)


# 4. resolvent estimate ---------------------------------------------------

def test_acceptance_04_resolvent_uniformity():
    rep = resolvent_sweep(scalar_template(), reference_sweep())
    assert rep.passed
    assert np.isfinite(rep.max_ratio)
    assert rep.flatness <= 2.0


# 5. sector-sum inequality ------------------------------------------------

def test_acceptance_05_sector_sum_inequality():
    for phi1, phi2 in ((np.pi / 4, np.pi / 4), (np.pi / 2, np.pi / 4)):
        got = sector_sum_constant(phi1, phi2)
        expected = np.cos((phi1 + phi2) / 2.0)
        assert got == pytest.approx(expected, abs=1e-3)
        assert got >= expected - 1e-9


# 6. perturbation solver --------------------------------------------------

def test_acceptance_06_perturbation_solver():
    grid = GridSpec(n=1, M=64, L=2 * np.pi)
    b = 0.5
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=b * np.eye(1))
    prob = EllipticProblem(model=make_model(np.array([[1.0]])),
                           symbol=power_symbol(m=2.0),
                           t=ScaleParams.isotropic(1.0, 1), lam=100.0,
                           grid=grid, lower_terms=(term,))
    rng = np.random.default_rng(1)
    f = random_band_limited_field(grid, 1, rng)
    u, rep = solve_full(prob, f)
    assert rep.contraction < 1.0
    xi = grid.freqs()
    w = prob.t.weight(term.alpha, 2.0)
    denom = 1.0 + 100.0 + np.abs(xi) ** 2 + w * b * i_xi_power_factor(xi, 1.0)
    fhat = np.fft.fft(f.values[:, 0], norm="ortho")
    direct = np.fft.ifft(fhat / denom, norm="ortho")
    err = np.linalg.norm(u.values[:, 0] - direct) / np.linalg.norm(direct)
    assert err < 1e-8

    bad_term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=10.0 * np.eye(1))
    bad = EllipticProblem(model=make_model(np.array([[1.0]])),
                          symbol=power_symbol(m=2.0),
                          t=ScaleParams.isotropic(1.0, 1), lam=1e-2,
                          grid=grid, lower_terms=(bad_term,))
    with pytest.raises(ContractionFailure):
        solve_full(bad, f)


# 7. randomized-average machinery ----------------------------------------

def test_acceptance_07_rbound_singleton_matches_probe_norm():
    rng = np.random.default_rng(2)
    for N in (2, 4, 8):
        T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        est = estimate_rbound([T], tuple_size=2)
        assert est.value == pytest.approx(probe_norm(T), abs=1e-6)


def test_acceptance_07_scalar_family_bracket(monkeypatch):
    model = make_model(np.array([[1.0]]))
    lambdas = list(np.logspace(0, 3, 10))
    fam = lambda_resolvent_family(model, lambdas)
    S = max(abs(l / (1.0 + l)) for l in lambdas)
    monkeypatch.setattr(verification, "RBOUND_BUDGET", 6)
    est = estimate_rbound(fam, tuple_size=10)
    assert S - 1e-9 <= est.value <= 2.0 * S + 1e-9


def test_acceptance_07_kahane_random_real_instances():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        scal = rng.uniform(-1, 1, size=m)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for _ in range(m)]
        res = kahane_contraction_check(scal, vecs)
        assert res.constant <= 1.0 + 1e-12
        assert res.verdict


# 8. multiplier families --------------------------------------------------

def test_acceptance_08_multiplier_families():
    model = make_model(np.array([[1.0]]))
    sweep = reference_sweep()
    xi = np.logspace(-2, 4, 25)[:, None]
    rep = multiplier_family_check(model, power_symbol(m=2.0), sweep,
                                  xi_samples=xi, rbound_subsample=6,
                                  tuple_size=2, seed=0,
                                  sigma_sup_threshold=1.0 + 1e-9)
    assert rep.passed
    assert rep.details["sigma_sup"] <= 1.0 + 1e-12
    # closed-form cross-check: sigma(lam, t, xi) = 1 / (1 + lam + t xi^2)
    best = 0.0
    for lam, t in sweep.points():
        best = max(best, np.abs(1.0 / (1.0 + lam + t.t[0] * xi[:, 0] ** 2)).max())
    assert rep.details["sigma_sup"] == pytest.approx(best, rel=1e-12)
    for v in rep.details["sigma_alpha_sup"].values():
        assert np.isfinite(v)
    for v in rep.details["sigma_alpha_flatness"].values():
        assert np.isfinite(v)
    for v in rep.details["fd_sup"].values():
        assert np.isfinite(v)


# 9. parabolic evolution --------------------------------------------------

def _parabolic_problem(J, t_val=1.0):
    grid = GridSpec(n=1, M=64, L=2 * np.pi)
    ell = EllipticProblem(model=make_model(np.array([[1.0]])),
                          symbol=power_symbol(m=2.0),
                          t=ScaleParams.isotropic(t_val, 1), lam=0.0, grid=grid)
    times = np.linspace(0.0, 1.0, J + 1)
    return ParabolicProblem(elliptic=ell, profile=np.sin(np.pi * times),
                            base=gaussian_field(grid), Y=1.0)


def test_acceptance_09_parabolic_refinement_and_semigroup():
    ref = solve_duhamel(_parabolic_problem(2048))
    errs = []
    for J in (32, 64, 128, 256):
        ue = solve_implicit_euler(_parabolic_problem(J))
        errs.append(np.linalg.norm(ue.values[-1] - ref.values[-1]))
    for a, b in zip(errs, errs[1:]):
        assert 1.8 <= a / b <= 2.2

    prob = _parabolic_problem(8)
    P1 = semigroup_propagator(prob, 0.3)
    P2 = semigroup_propagator(prob, 0.5)
    P12 = semigroup_propagator(prob, 0.8)
    comp = np.einsum("...ij,...jk->...ik", P1, P2)
    assert np.abs(comp - P12).max() < 1e-9


def test_acceptance_09_parabolic_ratio_flat_in_t():
    ratios = []
    for tv in (1e-3, 1e-2, 1e-1, 1.0):
        prob = _parabolic_problem(128, t_val=tv)
        ratios.append(parabolic_coercive_ratio(prob, solve_duhamel(prob)))
    assert max(ratios) / min(ratios) <= 1.25


# 10. matrix system instance ---------------------------------------------

def test_acceptance_10_system_n8():
    A = np.diag(np.full(8, 2.0)) + np.diag(np.full(7, -1.0), 1) \
        + np.diag(np.full(7, -1.0), -1)
    model = build_system(A)
    numeric = float(np.linalg.eigvalsh(A).min())
    assert model.C0 == pytest.approx(numeric, abs=1e-9)
    assert model.C0 == pytest.approx(2.0 * (1.0 - np.cos(np.pi / 9.0)), abs=1e-9)
    sweep = default_sweep(phi2=np.pi / 4, n_radii=7, n_t=3,
                          t_range=(1e-2, 1.0))
    for q in (1.0, 2.0, np.inf):
        model_q = make_model(A, q=q)
        tpl = ProblemTemplate(model=model_q, symbol=power_symbol(m=2.0),
                              grid=GridSpec(n=1, M=32, L=2 * np.pi), p=q)
        rep = coercivity_sweep(tpl, sweep, data_count=4, seed=0,
                               flatness_threshold=2.0)
        assert rep.passed, f"q={q}: {rep.status}"


# 11. boundary-value instance --------------------------------------------

def test_acceptance_11_bvp_dirichlet():
    model = build_bvp_operator(64, np.pi, 1.0)
    smallest = model.eigvals.real.min()
    assert abs(smallest - 1.0) < 1e-3
    radii = tuple(np.logspace(-2, 3, 30))
    cert = check_positivity(model, np.pi / 2,
                            SectorSweep(phi2=np.pi / 2,
                                        rays=(-np.pi / 2, 0.0, np.pi / 2),
                                        radii=radii))
    assert cert.finite
    tpl = ProblemTemplate(model=model, symbol=power_symbol(m=2.0),
                          grid=GridSpec(n=1, M=32, L=2 * np.pi))
    sweep = default_sweep(phi2=np.pi / 4, n_radii=5, n_t=2,
                          radius_range=(1.0, 1e4), t_range=(1e-2, 1.0))
    rep = coercivity_sweep(tpl, sweep, data_count=4, seed=0,
                           flatness_threshold=2.0)
    assert rep.passed


# 12. determinism ---------------------------------------------------------

def test_acceptance_12_scenario_determinism(tmp_path):
    names = ("scalar-reference", "system-n8", "bvp-dirichlet",
             "parabolic-reference", "anisotropic-2d")
    for name in names:
        cfg = str(SCENARIOS / f"{name}.json")
        reports = []
        for tag in ("a", "b"):
            out = tmp_path / name / tag
            code = cli_main(["run-scenario", "--config", cfg, "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1], f"{name}: rerun not byte-identical"
