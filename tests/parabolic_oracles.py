"""Oracles of the parabolic tests that the package itself never needs: the
forcing stack a(y) f0(x) sampled at every time, the semigroup e^{-y G(xi)}
per mode, the whole-stack solve and the coercive ratio of a solution on the
grid.  They live with the tests because the package does not use them; the
semigroup takes the package's eigenbasis, and the whole-stack solve its
step weights (parabolic.METHODS)."""

import numpy as np

from psdo import SpaceTimeField
from psdo.errors import Overflow
from psdo.operators import component_product, eigenbasis
from psdo.parabolic import METHODS
from psdo.spaces import _lp_lq_norms, _lp_lq_norms_from_spectra, _time_norm


def forcing_stack(prob) -> SpaceTimeField:
    """The forcing a_j f0 at each of the J + 1 times, materialised as one field."""
    a = prob.profile.reshape((-1,) + (1,) * prob.base.values.ndim)
    return SpaceTimeField(grid=prob.elliptic.grid, values=a * prob.base.values, Y=prob.Y)


def semigroup_propagator(prob, y: float) -> np.ndarray:
    """Per-mode matrices e^{-y G(xi)}, G(xi) = A + P_t(xi) I: shape
    grid.shape + (N, N)."""
    if y < 0:
        raise ValueError("propagation time must be nonnegative")
    w, V, Vinv = eigenbasis(prob.elliptic.model)
    E = np.exp(-y * (prob.elliptic.symbol_values()[..., None] + w))
    N = len(Vinv)
    return ((V * E[..., None, :]).reshape(-1, N) @ Vinv).reshape(E.shape + (N,))


def stacked_steps(profile: np.ndarray, c: np.ndarray, a, b0, b1) -> np.ndarray:
    """u_0 = 0 and u_{j+1} = a u_j + (b0 profile_j + b1 profile_{j+1}) c per
    eigen-channel, as one (J + 1)-slice stack: the forcing terms of every step
    are formed first, in the solution's own array, so a step is two in-place
    operations."""
    lead = (-1,) + (1,) * c.ndim
    u = np.empty((len(profile),) + c.shape, dtype=complex)
    u[0] = 0.0
    np.multiply(profile[:-1].reshape(lead), b0 * c, out=u[1:])
    u[1:] += profile[1:].reshape(lead) * (b1 * c)  # u[j+1] holds the forcing term of step j
    term, rows = np.empty_like(c), list(u)
    for prev, row in zip(rows, rows[1:]):
        np.multiply(a, prev, out=term)
        np.add(term, row, out=row)
    return u


def evolve_spectra(prob, method: str):
    """(u_hat, f0_hat): the unitary spectra (GridSpec.fft) of the whole solution
    stack and of the forcing's base, by stacked_steps with the weights
    METHODS[method] in the eigenbasis of A."""
    w, V, Vinv = eigenbasis(prob.elliptic.model)
    g = prob.elliptic.symbol_values()[..., None] + w  # the eigenvalues of G(xi) per channel
    f0_hat = prob.elliptic.grid.fft(prob.base.values)
    u = stacked_steps(prob.profile, component_product(f0_hat, Vinv.T),
                      *METHODS[method](g, prob.dy))
    return component_product(u, V.T), f0_hat


def parabolic_diagnostics(prob, u_hat, f0_hat, p: float = 2.0, p1: float = 2.0):
    """(coercive ratio, equation residual, ||f||, ||u||) of solve_parabolic from
    the whole stacks: u and P_t(D) u from the spectra u_hat (one inverse FFT
    of each stack unless p = q = 2), du/dy by np.gradient over all J + 1
    slices, A u, the residual du/dy + (P_t(D) u + A u) - a_j f0, and each
    stack's slice norms from one norm call."""
    ell, q, dy = prob.elliptic, prob.elliptic.model.q, prob.dy
    P = ell.symbol_values()[..., None]
    if p == q == 2:
        u, Pu, f0, norms = u_hat, P * u_hat, f0_hat, _lp_lq_norms_from_spectra
    else:
        u, Pu, f0, norms = (ell.grid.ifft(u_hat), ell.grid.ifft(P * u_hat), prob.base.values,
                            _lp_lq_norms)
    a = prob.profile.reshape((-1,) + (1,) * f0.ndim)
    du, Au = np.gradient(u, dy, axis=0), ell.model.apply(u)
    res = du + (Pu + Au) - a * f0
    nu, n_du, n_Pu, n_Au, nres = (_time_norm(norms(v, ell.grid, q, p), dy, p1)
                                  for v in (u, du, Pu, Au, res))
    nf = _time_norm(np.abs(prob.profile) * norms(f0[None], ell.grid, q, p)[0], dy, p1)
    if not np.isfinite(nres):
        raise Overflow(f"residual {nres}: the evolution overflows")
    if nf == 0:
        return None, nres, nf, nu
    return (n_du + n_Pu + n_Au) / nf, nres / nf, nf, nu


def solution_on_grid(prob, u_hat) -> SpaceTimeField:
    """The space-time field of the spectra u_hat: one inverse FFT of the stack."""
    grid = prob.elliptic.grid
    return SpaceTimeField(grid=grid, values=grid.ifft(u_hat), Y=prob.Y)


def whole_stack_solve(prob, method: str, p: float = 2.0, p1: float = 2.0):
    """solve_parabolic's (ratio, residual, ||f||, ||u||, u) from the whole
    (J + 1)-slice stacks: evolve_spectra, parabolic_diagnostics and
    solution_on_grid."""
    u_hat, f0_hat = evolve_spectra(prob, method)
    return (*parabolic_diagnostics(prob, u_hat, f0_hat, p, p1), solution_on_grid(prob, u_hat))


def parabolic_coercive_ratio(prob, u: SpaceTimeField):
    """(||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f|| of a solution u on the grid,
    at p = p1 = 2; None when the forcing vanishes.  One FFT of u and one of
    the forcing's base, then parabolic_diagnostics."""
    grid = prob.elliptic.grid
    return parabolic_diagnostics(prob, grid.fft(u.values), grid.fft(prob.base.values))[0]
