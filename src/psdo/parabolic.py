"""Cauchy evolution for the parabolic equation du/dy + P_t(D)u + Au = f.

Each lattice mode evolves under the matrix G(xi) = A + P_t(xi) I, which
shares the eigenbasis of A, so the whole evolution reduces to independent
scalar ODEs in eigencoordinates.  Both steppers run one recurrence,
u_{j+1} = a u_j + b0 f_j + b1 f_{j+1}, with their own weights: exact Duhamel
propagation with exponential-integrator weights for piecewise-linear forcing
(the oracle) and first-order implicit Euler (the stepper under test).  The
evolution and its diagnostics stay in Fourier space: one forward FFT of the
forcing, and an inverse FFT only for a solution wanted on the grid or for
norms other than p = q = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticProblem
from .errors import ModeSingular, Overflow
from .operators import component_product, eigenbasis
from .spaces import (
    SpaceTimeField,
    _lp_lq_norms,
    _lp_lq_norms_from_spectra,
    _time_norm,
    blocks,
)


@dataclass(frozen=True)
class ParabolicProblem:
    """Zero-initial-data Cauchy problem on [0, Y] with J uniform steps."""

    elliptic: EllipticProblem    # lambda = 0, no lower-order terms
    forcing: SpaceTimeField

    def __post_init__(self):
        if self.elliptic.lam != 0:
            raise ValueError("the elliptic part must carry lambda = 0")
        if self.elliptic.lower_terms:
            raise ValueError("the elliptic part must have no lower-order terms")
        if self.forcing.grid != self.elliptic.grid:
            raise ValueError("forcing grid differs from the problem grid")
        if self.forcing.N != self.elliptic.model.N:
            raise ValueError("forcing component count differs from the operator dimension")

    @property
    def Y(self) -> float:
        return self.forcing.Y

    @property
    def J(self) -> int:
        return self.forcing.J


def _eigensetup(prob: ParabolicProblem):
    """Eigenvalues of G(xi) per mode/channel plus the shared eigenbasis of A."""
    w, V, Vinv = eigenbasis(prob.elliptic.model)
    P = prob.elliptic.symbol_values()          # grid.shape
    return P[..., None] + w, V, Vinv           # g: grid.shape + (N,)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z, stable near z = 0."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z) / z^2, stable near z = 0."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs**2 / 24.0 + zs**3 / 120.0
    zl = z[~small]
    out[~small] = (np.expm1(zl) - zl) / zl**2
    return out


def _duhamel_weights(g: np.ndarray, dy: float):
    """The exponential integrator for piecewise-linear forcing, z = -dy g:
    exact whenever the forcing is linear on each step, second order otherwise."""
    z = -dy * g
    p2 = _phi2(z)
    return np.exp(z), dy * (_phi1(z) - p2), dy * p2


def _implicit_euler_weights(g: np.ndarray, dy: float):
    """First-order implicit Euler, u_{j+1} = (I + dy G)^-1 (u_j + dy f_{j+1})."""
    denom = 1.0 + dy * g
    if np.any(np.abs(denom) < 1e-14):
        raise ModeSingular(None, "I + dy G singular on some mode")
    return 1.0 / denom, 0.0, dy / denom


def _steps(c: np.ndarray, a, b0, b1) -> np.ndarray:
    """u_0 = 0 and u_{j+1} = a u_j + (b0 c_j + b1 c_{j+1}) per eigen-channel.

    `c` holds the forcing's eigencoordinates and is overwritten; the forcing
    terms of every step are formed over the whole stack first, so a step is
    two in-place operations.
    """
    u = np.empty_like(c)
    u[0] = 0.0
    np.multiply(b0, c[:-1], out=u[1:])
    np.multiply(b1, c[1:], out=c[1:])
    np.add(u[1:], c[1:], out=u[1:])        # u[j+1] holds the forcing term of step j
    term, rows = np.empty_like(c[0]), list(u)
    for prev, row in zip(rows, rows[1:]):
        np.multiply(a, prev, out=term)
        np.add(term, row, out=row)
    return u


# The weights (a, b0, b1) of the one-step recurrence of _steps by method name,
# each a function of the per-mode eigenvalues g of G(xi) and the step dy.
METHODS = {"duhamel": _duhamel_weights, "implicit-euler": _implicit_euler_weights}


def evolve_spectra(prob: ParabolicProblem, method: str):
    """(u_hat, f_hat): the unitary spectra (GridSpec.fft) of the solution and
    of the forcing stacks, from one forward FFT of the forcing.  Each lattice
    mode evolves in the eigenbasis of A by the recurrence _steps with the
    weights METHODS[method]."""
    g, V, Vinv = _eigensetup(prob)
    f_hat = prob.elliptic.grid.fft(prob.forcing.values)
    u = _steps(component_product(f_hat, Vinv.T), *METHODS[method](g, prob.forcing.dy))
    return component_product(u, V.T), f_hat


def solution_on_grid(prob: ParabolicProblem, u_hat: np.ndarray) -> SpaceTimeField:
    """The space-time field of the spectra u_hat: one inverse FFT."""
    return prob.forcing.with_values(prob.elliptic.grid.ifft(u_hat))


def solve_duhamel(prob: ParabolicProblem) -> SpaceTimeField:
    """The solution of the Duhamel stepper (_duhamel_weights) on the grid."""
    return solution_on_grid(prob, evolve_spectra(prob, "duhamel")[0])


def solve_implicit_euler(prob: ParabolicProblem) -> SpaceTimeField:
    """The solution of the implicit-Euler stepper (_implicit_euler_weights) on the grid."""
    return solution_on_grid(prob, evolve_spectra(prob, "implicit-euler")[0])


def semigroup_propagator(prob: ParabolicProblem, y: float) -> np.ndarray:
    """Per-mode matrices e^{-y G(xi)}, shape grid.shape + (N, N)."""
    if y < 0:
        raise ValueError("propagation time must be nonnegative")
    g, V, Vinv = _eigensetup(prob)
    E = np.exp(-y * g)
    N = len(Vinv)
    return ((V * E[..., None, :]).reshape(-1, N) @ Vinv).reshape(E.shape + (N,))


def parabolic_diagnostics(prob: ParabolicProblem, u_hat: np.ndarray, f_hat: np.ndarray,
                          p: float = 2.0, p1: float = 2.0):
    """(coercive ratio, equation residual, ||f||, ||u||) from the unitary
    spectra (GridSpec.fft) of the solution and of the forcing.

    The ratio is (||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f|| and the residual
    ||du/dy + P_t(D) u + A u - f|| / ||f||, every norm the mixed
    L_p1(L_p(l_q)) norm with q that of the operator model; du/dy is
    np.gradient along time.  At p = q = 2 each norm is taken from the spectra
    by Parseval, with no inverse FFT, and the terms are formed in blocks of
    slices, never as whole stacks; other exponents take u and P_t(D) u on the
    grid from one inverse FFT each.
    With f = 0 the ratio is None (not applicable) and the residual absolute.
    """
    ell, f, q = prob.elliptic, prob.forcing, prob.elliptic.model.q
    P = ell.symbol_values()[..., None]
    spectral = p == q == 2
    if spectral:
        u, fv, norms = u_hat, f_hat, _lp_lq_norms_from_spectra
    else:
        u, fv, norms = ell.grid.ifft(u_hat), f.values, _lp_lq_norms
        Pu_grid = ell.grid.ifft(P * u_hat)
    inner = np.empty((6, f.J + 1))  # per slice: f, u, du/dy, P_t(D) u, A u, residual
    for b in blocks(f.J + 1, u[0].size):
        lo, hi = max(b.start - 1, 0), min(b.stop + 1, f.J + 1)  # one slice beyond each end
        du = np.gradient(u[lo:hi], f.dy, axis=0)[b.start - lo:b.stop - lo]
        Pu = P * u_hat[b] if spectral else Pu_grid[b]
        res = ell.model.apply(u[b])  # A u, then in place du + (P u + A u) - f
        for row, v in zip(inner, (fv[b], u[b], du, Pu, res)):
            row[b] = norms(v, ell.grid, q, p)
        np.add(Pu, res, out=res)
        np.add(du, res, out=res)
        np.subtract(res, fv[b], out=res)
        inner[5, b] = norms(res, ell.grid, q, p)
    nf, nu, n_du, n_Pu, n_Au, nres = (_time_norm(row, f.dy, p1) for row in inner)
    if not np.isfinite(nres):  # inf or nan appear only past the float range
        raise Overflow(f"residual {nres}: the evolution overflows")
    if nf == 0:
        return None, nres, nf, nu
    return (n_du + n_Pu + n_Au) / nf, nres / nf, nf, nu


def parabolic_coercive_ratio(prob: ParabolicProblem, u: SpaceTimeField):
    """(||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f|| of a solution u on the grid,
    at p = p1 = 2; None when the forcing vanishes.  One FFT of u and f
    together, then parabolic_diagnostics."""
    spectra = prob.elliptic.grid.fft(np.stack([u.values, prob.forcing.values]))
    return parabolic_diagnostics(prob, spectra[0], spectra[1])[0]
