"""Oracles of the parabolic tests that the package itself never needs: the
forcing stack a(y) f0(x) sampled at every time, the semigroup e^{-y G(xi)}
per mode and the coercive ratio of a solution on the grid.  They live with
the tests because the package does not use them; the semigroup takes the
package's eigenbasis and the ratio its parabolic_diagnostics."""

import numpy as np

from psdo import SpaceTimeField, parabolic_diagnostics
from psdo.operators import eigenbasis


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


def parabolic_coercive_ratio(prob, u: SpaceTimeField):
    """(||du/dy|| + ||P_t(D) u|| + ||A u||) / ||f|| of a solution u on the grid,
    at p = p1 = 2; None when the forcing vanishes.  One FFT of u and one of
    the forcing's base, then parabolic_diagnostics."""
    grid = prob.elliptic.grid
    return parabolic_diagnostics(prob, grid.fft(u.values), grid.fft(prob.base.values))[0]
