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
The solve walks time in blocks of slices, so its working set is a few blocks
whatever J, plus the solution field when it is kept.
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


# The weights (a, b0, b1) of the one-step recurrence of solve_parabolic by
# method name, each a function of the per-mode eigenvalues g of G(xi) and the step dy.
METHODS = {"duhamel": _duhamel_weights, "implicit-euler": _implicit_euler_weights}

# Complex entries of one block of time slices (128 KB): the solve keeps a few
# arrays of a block's size, so its working set does not grow with J.
BLOCK_ENTRIES = 2**13


def solve_parabolic(prob: ParabolicProblem, method: str, p: float = 2.0, p1: float = 2.0,
                    keep_field: bool = False):
    """(coercive ratio, equation residual, ||f||, ||u||, u): the solution of the
    stepper METHODS[method] and its diagnostics, in one pass over blocks of time
    slices; u is the SpaceTimeField of the solution if keep_field, else None.

    Each lattice mode evolves in the eigenbasis of A from one forward FFT of
    the base: u_0 = 0 and u_{j+1} = a u_j + (b0 a_j + b1 a_{j+1}) c per
    eigen-channel, c the eigencoordinates of the base's unitary spectrum
    (GridSpec.fft).  A block's steps run in one buffer that carries one slice
    beyond each end, for the time derivative.
    The ratio is (||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f|| and the residual
    ||du/dy + P_t(D) u + A u - f|| / ||f||, every norm the mixed
    L_p1(L_p(l_q)) norm with q that of the operator model; du/dy is
    np.gradient along time.  The slice norms of f are |a_j| ||f0||.  At
    p = q = 2 each norm is taken from the spectra by Parseval; other exponents,
    and a kept field, take a block's slices on the grid by inverse FFT.
    With f = 0 the ratio is None (not applicable) and the residual absolute.
    """
    ell, q, J, dy = prob.elliptic, prob.elliptic.model.q, prob.J, prob.dy
    grid, (w, V, Vinv) = ell.grid, eigenbasis(ell.model)
    P = ell.symbol_values()[..., None]
    a, b0, b1 = METHODS[method](P + w, dy)  # the eigenvalues of G(xi) per channel
    f0_hat = grid.fft(prob.base.values)
    c = component_product(f0_hat, Vinv.T)
    b0c, b1c, term = b0 * c, b1 * c, np.empty_like(c)
    spectral = p == q == 2
    f0, norms = (f0_hat, _lp_lq_norms_from_spectra) if spectral else \
        (prob.base.values, _lp_lq_norms)
    profile = prob.profile.reshape((-1,) + (1,) * c.ndim)
    S = min(max(1, BLOCK_ENTRIES // c.size), J + 1)  # slices per block
    buf = np.empty((S + 2,) + c.shape, dtype=complex)  # buf[i] holds u_{lo - 1 + i}
    work = np.empty((5 * S,) + c.shape, dtype=complex)
    inner = np.empty((5, J + 1))  # per slice: u, du/dy, P_t(D) u, A u, residual
    field = np.empty((J + 1,) + c.shape, dtype=complex) if keep_field else None
    buf[1] = 0.0
    for lo in range(0, J + 1, S):
        hi, top = min(lo + S, J + 1), min(lo + S, J)  # the block's slices, the last step's
        if lo:
            buf[:2] = buf[S:]
        new = buf[2:top - lo + 2]  # u_{lo+1} .. u_top, first their forcing terms
        np.multiply(profile[lo:top], b0c, out=new)
        new += profile[lo + 1:top + 1] * b1c
        for prev, row in zip(buf[1:], new):
            np.multiply(a, prev, out=term)
            np.add(term, row, out=row)
        s, off = hi - lo, int(lo > 0)
        u_hat = component_product(buf[1 - off:top - lo + 2], V.T)  # one slice beyond each end
        u = u_hat if spectral else grid.ifft(u_hat)
        T = work[:5 * s].reshape((5, s) + c.shape)  # u, du/dy, P_t(D) u, A u, residual
        T[0] = u[off:off + s]
        T[1] = np.gradient(u, dy, axis=0)[off:off + s]
        np.multiply(P, u_hat[off:off + s], out=T[2])
        if not spectral:
            T[2] = grid.ifft(T[2])
        T[3] = ell.model.apply(T[0])
        np.add(T[2], T[3], out=T[4])
        np.add(T[1], T[4], out=T[4])
        np.subtract(T[4], profile[lo:hi] * f0, out=T[4])
        inner[:, lo:hi] = norms(T, grid, q, p)
        if keep_field:
            field[lo:hi] = grid.ifft(T[0]) if spectral else T[0]
    nf = _time_norm(np.abs(prob.profile) * norms(f0[None], grid, q, p)[0], dy, p1)
    nu, n_du, n_Pu, n_Au, nres = (_time_norm(row, dy, p1) for row in inner)
    if not np.isfinite(nres):  # inf or nan appear only past the float range
        raise Overflow(f"residual {nres}: the evolution overflows")
    field = SpaceTimeField(grid=grid, values=field, Y=prob.Y) if keep_field else None
    ratio = None if nf == 0 else (n_du + n_Pu + n_Au) / nf
    return ratio, nres / nf if nf else nres, nf, nu, field


def solve_duhamel(prob: ParabolicProblem) -> SpaceTimeField:
    """The solution of the Duhamel stepper (_duhamel_weights) on the grid."""
    return solve_parabolic(prob, "duhamel", keep_field=True)[4]


def solve_implicit_euler(prob: ParabolicProblem) -> SpaceTimeField:
    """The solution of the implicit-Euler stepper (_implicit_euler_weights) on the grid."""
    return solve_parabolic(prob, "implicit-euler", keep_field=True)[4]
