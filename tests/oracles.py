"""Oracles that only the tests call: the forward operator, the fractional
derivative D^alpha, the mixed space-time norm and the coercive ratio of one
solution.  They live with the tests because the package does not use them.
They are built on the package's own kernels (multipliers, transforms, block
norms, and the sweep's _coercive_ratios and _derivative_weights), so they
share those kernels with the code they are compared with."""

import numpy as np

from psdo import MultiIndex, NyquistEnergy, coercive_index_set, fractional_multiplier
from psdo.elliptic import _apply_lower
from psdo.spaces import _lp_lq_norms, _lp_lq_norms_from_spectra, _time_norm, _zeroes_nyquist, blocks
from psdo.verification import _coercive_ratios, _derivative_weights

NYQUIST_TOL = 1e-10


def apply_operator(prob, u):
    """Forward operator: symbol part + A u + lambda u + lower-order terms."""
    uvals = u.values[None]
    uspec = prob.grid.fft(uvals)
    out = prob.grid.ifft(prob.symbol_values()[..., None] * uspec) + prob.model.apply(uvals) \
        + prob.lam * uvals
    if prob.lower_terms:
        out = out + _apply_lower(prob, uspec)
    return u.with_values(out[0])


def liouville_derivative(u, alpha):
    """Fractional derivative D^alpha u = F^-1[(i xi)^alpha F u].

    Nyquist modes are zeroed for fractional or odd-integer orders; when that
    happens the input must not carry relative energy above NYQUIST_TOL there.
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(np.atleast_1d(alpha)))
    if alpha.n != u.grid.n:
        raise ValueError("alpha dimension does not match the grid")
    spec = u.grid.fft(u.values)
    mult = fractional_multiplier(u.grid, alpha)
    if any(_zeroes_nyquist(a) for a in alpha):
        mask = u.grid.nyquist_mask()
        total = np.linalg.norm(spec)
        if total > 0:
            nyq = np.linalg.norm(spec[mask])
            if nyq > NYQUIST_TOL * total:
                raise NyquistEnergy(
                    f"relative Nyquist energy {nyq / total:.2e} exceeds {NYQUIST_TOL}")
    return u.with_values(u.grid.ifft(spec * mult[..., None]))


def mixed_norm(u, p=2.0, p1=2.0, q=2.0):
    """Inner spatial L_p(l_q) norm per time slice, outer temporal L_{p1} norm.

    The time axis uses trapezoid weights on the uniform partition of [0, Y].
    """
    inner = np.concatenate([_lp_lq_norms(u.values[b], u.grid, q, p)
                            for b in blocks(u.J + 1, u.values[0].size)])
    return _time_norm(inner, u.dy, p1)


def coercive_ratio(u, f, model, t, lam, m, p=2.0):
    """[sum_alpha t(alpha) |lam|^(1-|alpha|/m) ||D^alpha u|| + ||A u||] / ||f||
    over the coercive index set, every norm in L_p(l_q) with q = model.q.
    """
    grid, index_set = u.grid, coercive_index_set(u.grid.n, m)
    uspec = grid.fft(u.values[None, None])
    nf = _lp_lq_norms_from_spectra(grid.fft(f.values[None, None]), grid, model.q, p)
    return float(_coercive_ratios(grid, np.array([grid.L]), model.q, p, uspec, model.apply(uspec),
                                  nf, _derivative_weights([t], [lam], m, index_set),
                                  index_set)[0, 0])
