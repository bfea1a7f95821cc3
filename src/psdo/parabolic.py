"""Cauchy evolution for the parabolic equation du/dy + P_t(D)u + Au = f.

Each lattice mode evolves under the matrix G(xi) = A + P_t(xi) I, which
shares the eigenbasis of A, so the whole evolution reduces to independent
scalar ODEs in eigencoordinates.  Two solvers are provided: exact Duhamel
propagation with exponential-integrator weights for piecewise-linear forcing
(the oracle) and first-order implicit Euler (the stepper under test).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticProblem
from .errors import ModeSingular
from .operators import eigenbasis
from .spaces import SpaceTimeField, mixed_norm


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


def _forcing_eigencoords(prob: ParabolicProblem, Vinv: np.ndarray) -> np.ndarray:
    return prob.elliptic.grid.fft(prob.forcing.values) @ Vinv.T


def _back_to_physical(prob: ParabolicProblem, coeffs: np.ndarray, V: np.ndarray) -> SpaceTimeField:
    return prob.forcing.with_values(prob.elliptic.grid.ifft(coeffs @ V.T))


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


def solve_duhamel(prob: ParabolicProblem) -> SpaceTimeField:
    """Exact per-mode Duhamel propagation with piecewise-linear forcing.

    One step reads u_{j+1} = e^z u_j + dy (phi1(z) f_j + phi2(z) (f_{j+1} - f_j))
    with z = -dy g per eigen-channel; exact whenever the forcing is linear on
    each step, second-order accurate otherwise.
    """
    g, V, Vinv = _eigensetup(prob)
    c = _forcing_eigencoords(prob, Vinv)
    dy = prob.forcing.dy
    z = -dy * g
    E = np.exp(z)
    w0 = dy * _phi1(z)
    w1 = dy * _phi2(z)
    u = np.zeros_like(c)
    for j in range(prob.J):
        df = c[j + 1] - c[j]
        u[j + 1] = E * u[j] + w0 * c[j] + w1 * df
    return _back_to_physical(prob, u, V)


def solve_implicit_euler(prob: ParabolicProblem) -> SpaceTimeField:
    """First-order implicit Euler: u_{j+1} = (I + dy G)^-1 (u_j + dy f_{j+1})."""
    g, V, Vinv = _eigensetup(prob)
    c = _forcing_eigencoords(prob, Vinv)
    dy = prob.forcing.dy
    denom = 1.0 + dy * g
    if np.any(np.abs(denom) < 1e-14):
        raise ModeSingular(None, "I + dy G singular on some mode")
    u = np.zeros_like(c)
    for j in range(prob.J):
        u[j + 1] = (u[j] + dy * c[j + 1]) / denom
    return _back_to_physical(prob, u, V)


def semigroup_propagator(prob: ParabolicProblem, y: float) -> np.ndarray:
    """Per-mode matrices e^{-y G(xi)}, shape grid.shape + (N, N)."""
    if y < 0:
        raise ValueError("propagation time must be nonnegative")
    g, V, Vinv = _eigensetup(prob)
    E = np.exp(-y * g)
    N = len(Vinv)
    return ((V * E[..., None, :]).reshape(-1, N) @ Vinv).reshape(E.shape + (N,))


def time_derivative(u: SpaceTimeField) -> SpaceTimeField:
    """Centered differences in time, one-sided at the interval ends."""
    return u.with_values(np.gradient(u.values, u.dy, axis=0))


def parabolic_diagnostics(prob: ParabolicProblem, u: SpaceTimeField):
    """(coercive ratio, equation residual, ||f||) from one pass over du/dy, P_t(D) u and A u.

    The ratio is (||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f|| and the residual
    ||du/dy + P_t(D) u + A u - f|| / ||f||, both in mixed space-time norms.
    With f = 0 the ratio is None (not applicable) and the residual absolute.
    """
    ell, f = prob.elliptic, prob.forcing
    nf = mixed_norm(f)
    du = time_derivative(u).values
    Pu = ell.grid.ifft(ell.symbol_values()[..., None] * ell.grid.fft(u.values))
    Au = ell.model.apply(u.values)
    res = mixed_norm(u.with_values(du + (Pu + Au) - f.values))
    if nf == 0:
        return None, res, nf
    n_du, n_Pu, n_Au = (mixed_norm(u.with_values(v)) for v in (du, Pu, Au))
    return (n_du + n_Pu + n_Au) / nf, res / nf, nf


def parabolic_coercive_ratio(prob: ParabolicProblem, u: SpaceTimeField):
    """(||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f||; None when the forcing vanishes."""
    return parabolic_diagnostics(prob, u)[0]
