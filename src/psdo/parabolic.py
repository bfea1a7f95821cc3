"""Cauchy evolution for the parabolic equation du/dy + P_t(D)u + Au = f.

The forcing is separable, f(y, x) = a(y) f0(x): a profile sampled at the
J + 1 times of the partition and one base field.  Each lattice mode evolves
under G(xi) = A + P_t(xi) I, which shares the eigenbasis of A, so the
evolution is independent scalar ODEs in eigencoordinates, each forced by a(y)
times one eigencoordinate c of f0.  Both steppers run one recurrence,
u_{j+1} = a u_j + (b0 a_j + b1 a_{j+1}) c, with their own weights: exact
Duhamel propagation with exponential-integrator weights for piecewise-linear
forcing (the oracle) and first-order implicit Euler (the stepper under test).
Everything stays in Fourier space: one forward FFT of f0, and an inverse FFT
only for a solution wanted on the grid or for norms other than p = q = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticProblem
from .errors import ModeSingular, Overflow
from .operators import component_product, eigenbasis
from .spaces import (
    SampledField,
    SpaceTimeField,
    _lp_lq_norms,
    _lp_lq_norms_from_spectra,
    _time_norm,
    blocks,
)


@dataclass(frozen=True)
class ParabolicProblem:
    """Zero-initial-data Cauchy problem on [0, Y] with J uniform steps, forced by
    f(y, x) = a(y) f0(x): the profile a sampled at the J + 1 times j Y / J and
    the base f0, one field on the problem grid."""

    elliptic: EllipticProblem    # lambda = 0, no lower-order terms
    profile: np.ndarray          # shape (J + 1,)
    base: SampledField
    Y: float

    def __post_init__(self):
        if self.elliptic.lam != 0:
            raise ValueError("the elliptic part must carry lambda = 0")
        if self.elliptic.lower_terms:
            raise ValueError("the elliptic part must have no lower-order terms")
        if self.base.grid != self.elliptic.grid:
            raise ValueError("forcing grid differs from the problem grid")
        if self.base.N != self.elliptic.model.N:
            raise ValueError("forcing component count differs from the operator dimension")
        profile, f0 = np.asarray(self.profile), self.base.values
        if profile.ndim != 1 or len(profile) < 2:
            raise ValueError(f"need a profile of at least two time slices, got shape "
                             f"{profile.shape}")
        if not 0 < self.Y < np.inf:
            raise ValueError(f"horizon Y must be positive and finite, got {self.Y}")
        # every sample a_j f0(x) is finite if the largest |a_j| times f0's largest part is
        peak = float(np.abs(profile).max()) * float(max(abs(f0.real).max(), abs(f0.imag).max()))
        if not np.isfinite(peak):  # Python floats: past the float range is inf, no warning
            raise ValueError("every sample a_j f0 must be finite")
        object.__setattr__(self, "profile", profile)

    @property
    def J(self) -> int:
        return len(self.profile) - 1

    @property
    def dy(self) -> float:
        return self.Y / self.J


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


def _steps(profile: np.ndarray, c: np.ndarray, a, b0, b1) -> np.ndarray:
    """u_0 = 0 and u_{j+1} = a u_j + (b0 profile_j + b1 profile_{j+1}) c per
    eigen-channel, c the eigencoordinates of the forcing's base.  The forcing
    terms of every step are formed first, in the solution's own array, so a
    step is two in-place operations."""
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


# The weights (a, b0, b1) of the one-step recurrence of _steps by method name,
# each a function of the per-mode eigenvalues g of G(xi) and the step dy.
METHODS = {"duhamel": _duhamel_weights, "implicit-euler": _implicit_euler_weights}


def evolve_spectra(prob: ParabolicProblem, method: str):
    """(u_hat, f0_hat): the unitary spectra (GridSpec.fft) of the solution
    stack and of the forcing's base, from one forward FFT of the base.  Each
    lattice mode evolves in the eigenbasis of A by the recurrence _steps with
    the weights METHODS[method]."""
    w, V, Vinv = eigenbasis(prob.elliptic.model)
    g = prob.elliptic.symbol_values()[..., None] + w  # the eigenvalues of G(xi) per channel
    f0_hat = prob.elliptic.grid.fft(prob.base.values)
    u = _steps(prob.profile, component_product(f0_hat, Vinv.T), *METHODS[method](g, prob.dy))
    return component_product(u, V.T), f0_hat


def solution_on_grid(prob: ParabolicProblem, u_hat: np.ndarray) -> SpaceTimeField:
    """The space-time field of the spectra u_hat: one inverse FFT."""
    grid = prob.elliptic.grid
    return SpaceTimeField(grid=grid, values=grid.ifft(u_hat), Y=prob.Y)


def solve_duhamel(prob: ParabolicProblem) -> SpaceTimeField:
    """The solution of the Duhamel stepper (_duhamel_weights) on the grid."""
    return solution_on_grid(prob, evolve_spectra(prob, "duhamel")[0])


def solve_implicit_euler(prob: ParabolicProblem) -> SpaceTimeField:
    """The solution of the implicit-Euler stepper (_implicit_euler_weights) on the grid."""
    return solution_on_grid(prob, evolve_spectra(prob, "implicit-euler")[0])


def parabolic_diagnostics(prob: ParabolicProblem, u_hat: np.ndarray, f0_hat: np.ndarray,
                          p: float = 2.0, p1: float = 2.0):
    """(coercive ratio, equation residual, ||f||, ||u||) from the unitary
    spectra (GridSpec.fft) of the solution and of the forcing's base.

    The ratio is (||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f|| and the residual
    ||du/dy + P_t(D) u + A u - f|| / ||f||, every norm the mixed
    L_p1(L_p(l_q)) norm with q that of the operator model; du/dy is
    np.gradient along time.  The slice norms of f are |a_j| ||f0||, and f
    enters the residual as a_j f0 per block of slices.  At p = q = 2 each norm
    is taken from the spectra by Parseval, with no inverse FFT, and the terms
    are formed in blocks of slices, never as whole stacks; other exponents
    take u and P_t(D) u on the grid from one inverse FFT each.
    With f = 0 the ratio is None (not applicable) and the residual absolute.
    """
    ell, q, J, dy = prob.elliptic, prob.elliptic.model.q, prob.J, prob.dy
    P = ell.symbol_values()[..., None]
    spectral = p == q == 2
    if spectral:
        u, f0, norms = u_hat, f0_hat, _lp_lq_norms_from_spectra
    else:
        u, f0, norms = ell.grid.ifft(u_hat), prob.base.values, _lp_lq_norms
        Pu_grid = ell.grid.ifft(P * u_hat)
    a = prob.profile.reshape((-1,) + (1,) * f0.ndim)
    inner = np.empty((5, J + 1))  # per slice: u, du/dy, P_t(D) u, A u, residual
    for b in blocks(J + 1, u[0].size):
        lo, hi = max(b.start - 1, 0), min(b.stop + 1, J + 1)  # one slice beyond each end
        du = np.gradient(u[lo:hi], dy, axis=0)[b.start - lo:b.stop - lo]
        Pu = P * u_hat[b] if spectral else Pu_grid[b]
        res = ell.model.apply(u[b])  # A u, then in place du + (P u + A u) - f
        for row, v in zip(inner, (u[b], du, Pu, res)):
            row[b] = norms(v, ell.grid, q, p)
        np.add(Pu, res, out=res)
        np.add(du, res, out=res)
        np.subtract(res, a[b] * f0, out=res)
        inner[4, b] = norms(res, ell.grid, q, p)
    nf = _time_norm(np.abs(prob.profile) * norms(f0[None], ell.grid, q, p)[0], dy, p1)
    nu, n_du, n_Pu, n_Au, nres = (_time_norm(row, dy, p1) for row in inner)
    if not np.isfinite(nres):  # inf or nan appear only past the float range
        raise Overflow(f"residual {nres}: the evolution overflows")
    if nf == 0:
        return None, nres, nf, nu
    return (n_du + n_Pu + n_Au) / nf, nres / nf, nf, nu
