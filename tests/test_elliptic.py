from dataclasses import replace

import numpy as np
import pytest
from oracles import apply_operator

from psdo import (
    ContractionFailure,
    EllipticProblem,
    GridSpec,
    LowerTerm,
    ModeSingular,
    MultiIndex,
    SampledField,
    ScaleParams,
    coercive_index_set,
    contraction_estimate,
    gaussian_field,
    graph_norm,
    lp_lq_norm,
    make_model,
    mode_field,
    power_symbol,
    random_band_limited_field,
    rotated_power_symbol,
    solve_full,
    solve_principal,
    tridiagonal_matrix,
)
import psdo.elliptic
from psdo.elliptic import _apply_lower, _mode_shifts, _solve_spectra
from psdo.spaces import band_limited_spectra, fractional_multiplier
from psdo.symbols import i_xi_power_factor


def scalar_problem(lam=1.0, t_val=1.0, M=64, lower_terms=()):
    grid = GridSpec(n=1, M=M, L=2 * np.pi)
    return EllipticProblem(
        model=make_model(np.array([[1.0]])),
        symbol=power_symbol(m=2.0),
        t=ScaleParams.isotropic(t_val, 1),
        lam=lam,
        grid=grid,
        lower_terms=lower_terms,
    )


def test_single_mode_closed_form():
    prob = scalar_problem(lam=2.0 + 1.0j)
    f = mode_field(prob.grid, [3.0], [1.0])
    u = solve_principal(prob, f)
    expected = f.values / (1.0 + (2.0 + 1.0j) + 9.0)
    assert np.abs(u.values - expected).max() < 1e-13


def test_single_mode_system():
    grid = GridSpec(n=1, M=32, L=2 * np.pi)
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    prob = EllipticProblem(model=make_model(A), symbol=power_symbol(m=2.0),
                           t=ScaleParams.isotropic(1.0, 1), lam=1.0, grid=grid)
    v = np.array([1.0, -2.0])
    f = mode_field(grid, [2.0], v)
    u = solve_principal(prob, f)
    closed = np.linalg.solve(A + (1.0 + 4.0) * np.eye(2), v)
    x = grid.points()[..., 0]
    expected = np.exp(2.0j * x)[:, None] * closed
    assert np.abs(u.values - expected).max() < 1e-12


def test_residual_round_trip():
    prob = scalar_problem(M=128)
    f = gaussian_field(prob.grid, width=prob.grid.L / 16.0)
    u = solve_principal(prob, f)
    res = apply_operator(prob, u) - f
    assert lp_lq_norm(res, 2.0) / lp_lq_norm(f, 2.0) < 1e-10


@pytest.mark.parametrize("n, A", [(2, [[2.0, 0.5], [0.0, 1.0]]),
                                  (1, tridiagonal_matrix(8, -1.0, 2.0, -1.0))],
                         ids=["2d-n2-lu", "1d-n8-eigenbasis"])
def test_solve_modes_spectrum_is_fft_of_its_values(n, A):
    # the per-mode solve of a stack of spectra gives, field by field, the
    # spectrum of the values solve_principal returns for that field alone
    grid = GridSpec(n=n, M=16, L=2 * np.pi)
    prob = EllipticProblem(model=make_model(A), symbol=power_symbol(m=2.0),
                           t=ScaleParams((0.5, 0.1)[:n]), lam=2.0 + 1.0j, grid=grid)
    fvals = grid.ifft(band_limited_spectra(grid, prob.model.N, [np.random.default_rng(6)], 3)[0])
    spec = _solve_spectra(prob.model, _mode_shifts(prob), grid.fft(fvals))
    assert spec.shape == fvals.shape
    ref = grid.fft(np.stack([solve_principal(prob, SampledField(grid, f)).values for f in fvals]))
    assert np.linalg.norm(spec - ref) <= 1e-13 * np.linalg.norm(ref)


def test_mode_singular_detection():
    # a = -4 makes a + lam + P(xi) = 0 exactly at the lattice mode xi = 2
    grid = GridSpec(n=1, M=16, L=2 * np.pi)
    prob = EllipticProblem(model=make_model(np.array([[-4.0]])),
                           symbol=power_symbol(m=2.0),
                           t=ScaleParams.isotropic(1.0, 1), lam=0.0, grid=grid)
    f = gaussian_field(grid)
    with pytest.raises(ModeSingular):
        solve_principal(prob, f)


def test_angle_hypothesis_validation():
    grid = GridSpec(n=1, M=16, L=2 * np.pi)
    sym = rotated_power_symbol(2.0, theta0=np.pi / 2)
    with pytest.raises(ValueError):
        EllipticProblem(model=make_model(np.array([[1.0]])), symbol=sym,
                        t=ScaleParams.isotropic(1.0, 1),
                        lam=np.exp(1j * 0.6 * np.pi), grid=grid)


def test_coercive_index_set_integer():
    s1 = coercive_index_set(1, 2.0)
    assert [a.components for a in s1] == [(0.0,), (1.0,), (2.0,)]
    s2 = coercive_index_set(2, 2.0)
    assert len(s2) == 6
    assert MultiIndex((1.0, 1.0)) in s2


def test_coercive_index_set_fractional():
    s = coercive_index_set(1, 1.5)
    assert [a.components for a in s] == [(0.0,), (0.75,), (1.5,)]


def test_lower_term_order_validation():
    term = LowerTerm(alpha=MultiIndex((2.0,)), coefficient=np.eye(1))
    with pytest.raises(ValueError):
        scalar_problem(lower_terms=(term,))


def test_solve_full_matches_direct_inversion():
    b = 0.5
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=b * np.eye(1))
    prob = scalar_problem(lam=100.0, lower_terms=(term,))
    rng = np.random.default_rng(5)
    f = random_band_limited_field(prob.grid, 1, rng)
    u, rep = solve_full(prob, f)
    assert rep.contraction < 1.0
    xi = prob.grid.freqs()
    w = prob.t.weight(term.alpha, 2.0)
    denom = 1.0 + 100.0 + np.abs(xi) ** 2 + w * b * i_xi_power_factor(xi, 1.0)
    fhat = np.fft.fft(f.values[:, 0], norm="ortho")
    direct = np.fft.ifft(fhat / denom, norm="ortho")
    err = np.linalg.norm(u.values[:, 0] - direct) / np.linalg.norm(direct)
    assert err < 1e-8


@pytest.mark.parametrize("A", [np.array([[1.0]]), np.array([[2.0, 0.5], [0.0, 1.0]])],
                         ids=["hermitian", "nonnormal"])
def test_solve_full_constant_coefficients_transforms_once(A, monkeypatch):
    # the Neumann loop runs on spectra: one FFT of f and one inverse FFT of u,
    # however many iterations it takes
    N = len(A)
    grid = GridSpec(n=1, M=64, L=2 * np.pi)
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=0.5 * np.eye(N) + 0.1 * np.ones((N, N)))
    f = random_band_limited_field(grid, N, np.random.default_rng(9))
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(psdo.elliptic.GridSpec, name)

        def counted(self, values, name=name, original=original):
            calls[name] += 1
            return original(self, values)

        monkeypatch.setattr(psdo.elliptic.GridSpec, name, counted)
    iterations = set()
    for lam in (400.0, 20.0):
        prob = EllipticProblem(model=make_model(A), symbol=power_symbol(m=2.0),
                               t=ScaleParams.isotropic(1.0, 1), lam=lam, grid=grid,
                               lower_terms=(term,))
        calls.update(fft=0, ifft=0)
        u, rep = solve_full(prob, f)
        assert calls == {"fft": 1, "ifft": 1}
        iterations.add(rep.iterations)
    assert len(iterations) == 2 and min(iterations) > 1


@pytest.mark.parametrize("p, q, transforms", [(2.0, 2.0, {"fft": 1, "ifft": 0}),
                                               (3.0, 2.0, {"fft": 1, "ifft": 2})])
def test_graph_norm_transforms_u_once(p, q, transforms, monkeypatch):
    # both norms start from one FFT of u; at p = q = 2 they are Parseval norms
    prob = replace(scalar_problem(lam=1.0), model=make_model(np.diag([1.0, 2.0]), q=q))
    u = random_band_limited_field(prob.grid, 2, np.random.default_rng(3))
    expected = graph_norm(prob, u, p=p)
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(psdo.elliptic.GridSpec, name)

        def counted(self, values, name=name, original=original):
            calls[name] += 1
            return original(self, values)

        monkeypatch.setattr(psdo.elliptic.GridSpec, name, counted)
    assert graph_norm(prob, u, p=p) == expected
    assert calls == transforms
    zero_shift = replace(prob, lam=0.0)
    assert expected[0] == pytest.approx(lp_lq_norm(apply_operator(zero_shift, u), p, q), rel=1e-13)


def test_contraction_failure_small_lambda():
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=10.0 * np.eye(1))
    prob = scalar_problem(lam=1e-2, lower_terms=(term,))
    assert contraction_estimate(prob) >= 1.0
    f = gaussian_field(prob.grid)
    with pytest.raises(ContractionFailure):
        solve_full(prob, f)


def test_solve_full_variable_coefficient():
    grid = GridSpec(n=1, M=64, L=2 * np.pi)
    x = grid.points()[..., 0]
    coeff = (0.3 + 0.1 * np.sin(x))[:, None, None] * np.eye(1)
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=coeff)
    prob = EllipticProblem(model=make_model(np.array([[1.0]])),
                           symbol=power_symbol(m=2.0),
                           t=ScaleParams.isotropic(1.0, 1), lam=50.0, grid=grid,
                           lower_terms=(term,))
    rng = np.random.default_rng(6)
    f = random_band_limited_field(grid, 1, rng)
    u, rep = solve_full(prob, f)
    res = apply_operator(prob, u) - f
    assert lp_lq_norm(res, 2.0) / lp_lq_norm(f, 2.0) < 1e-9


def test_graph_norm_equivalence():
    prob = scalar_problem(lam=1.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = random_band_limited_field(prob.grid, 1, rng)
        onorm, hnorm, ratio = graph_norm(prob, u)
        # norm equivalence at moderate scales: bounded both ways
        assert 0.5 < ratio < 20.0
    zero = u.with_values(np.zeros_like(u.values))
    assert graph_norm(prob, zero) == (0.0, 0.0, 1.0)


def test_principal_property_strips_lower_terms():
    term = LowerTerm(alpha=MultiIndex((1.0,)), coefficient=np.eye(1))
    prob = scalar_problem(lam=10.0, lower_terms=(term,))
    assert prob.principal.lower_terms == ()
    assert prob.principal.lam == prob.lam


def _lower_terms_per_term(prob, u):
    """Reference: L_t u with one derivative per lower term, each the multiplier
    of liouville_derivative without its Nyquist-energy check (a solve's
    solution carries energy on the Nyquist modes that the multiplier zeroes)."""
    out = np.zeros_like(u.values)
    for term in prob.lower_terms:
        w = prob.t.weight(term.alpha, prob.symbol.m)
        du = prob.grid.ifft(prob.grid.fft(u.values)
                            * fractional_multiplier(prob.grid, term.alpha)[..., None])
        out = out + w * np.einsum("...ij,...j->...i", term.coefficient_on(prob.grid, u.N), du)
    return u.with_values(out)


def _contraction_per_probe(prob, probes, seed, make_field):
    """Reference: the probe part of contraction_estimate, one field at a time."""
    best = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(max(0, probes)):
        u = make_field(prob.grid, prob.model.N, rng)
        nu = lp_lq_norm(u, 2.0, prob.model.q)
        if nu == 0:
            continue
        Lv = _lower_terms_per_term(prob, solve_principal(prob.principal, u))
        best = max(best, lp_lq_norm(Lv, 2.0, prob.model.q) / nu)
    return best


def x_dependent_2d_problem(q=3.0):
    grid = GridSpec(n=2, M=8, L=2 * np.pi)
    x = grid.points()
    c = np.empty(grid.shape + (2, 2), dtype=complex)
    c[..., 0, 0] = 0.4 + 0.2 * np.cos(x[..., 0])
    c[..., 0, 1] = 0.1j * np.sin(x[..., 1])
    c[..., 1, 0] = 0.2
    c[..., 1, 1] = 0.3 * np.sin(x[..., 0] + x[..., 1])
    terms = (LowerTerm(alpha=MultiIndex((1.0, 0.0)), coefficient=c),
             LowerTerm(alpha=MultiIndex((0.5, 0.5)), coefficient=np.array([[0.3, 0.0], [0.1, 0.2]])))
    A = np.array([[2.0, 0.5], [0.0, 1.0]])
    return EllipticProblem(model=make_model(A, q=q), symbol=power_symbol(m=2.0),
                           t=ScaleParams((0.5, 0.1)), lam=3.0 + 4.0j, grid=grid,
                           lower_terms=terms)


def test_apply_lower_matches_per_term_loop():
    prob = x_dependent_2d_problem()
    u = random_band_limited_field(prob.grid, 2, np.random.default_rng(8))
    np.testing.assert_array_equal(_apply_lower(prob, prob.grid.fft(u.values[None]))[0],
                                  _lower_terms_per_term(prob, u).values)


@pytest.mark.parametrize("probes", [0, 1, 37, 64])
def test_contraction_estimate_matches_per_probe_loop(probes, monkeypatch):
    prob = x_dependent_2d_problem()
    expected = _contraction_per_probe(prob, probes, 11, random_band_limited_field)
    got = contraction_estimate(prob, probes=probes, seed=11)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert (got > 0) == (probes > 0)

    # every third probe field is zero: it is skipped, and the RNG stream stays aligned
    calls = []

    def some_zero(grid, N, rng):
        u = random_band_limited_field(grid, N, rng)
        calls.append(None)
        return u * 0.0 if len(calls) % 3 == 0 else u

    def some_zero_batch(grid, N, rngs, count):
        spectra = band_limited_spectra(grid, N, rngs, count)
        for k in range(count):
            calls.append(None)
            if len(calls) % 3 == 0:
                spectra[0, k] = 0.0
        return spectra

    expected = _contraction_per_probe(prob, probes, 11, some_zero)
    calls.clear()
    monkeypatch.setattr(psdo.elliptic, "band_limited_spectra", some_zero_batch)
    assert contraction_estimate(prob, probes=probes, seed=11) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_contraction_estimate_probes_do_not_depend_on_the_block_size(q, monkeypatch):
    prob = x_dependent_2d_problem(q=q)  # x-dependent: the probes are the estimate
    counts, values = [], []

    def counting(grid, N, rngs, count):
        counts.append(count)
        return band_limited_spectra(grid, N, rngs, count)

    monkeypatch.setattr(psdo.elliptic, "band_limited_spectra", counting)
    for entries in (1, 2**40):  # one probe field per block, then all 37 in one
        monkeypatch.setattr(psdo.spaces, "BLOCK_ENTRIES", entries)
        values.append(contraction_estimate(prob, probes=37, seed=11))
    assert counts == [1] * 37 + [37]
    assert values[0] == values[1]
    assert values[1] > 0
