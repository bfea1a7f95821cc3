"""Frequency-space solves for the parameter-elliptic operator equation.

The principal equation (symbol part plus abstract operator plus spectral
shift) is solved exactly per lattice mode; variable lower-order terms are
handled by a Neumann fixed-point iteration around the principal solve, valid
whenever the perturbation composed with the principal inverse is a
contraction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractionFailure, ModeSingular, NoConvergence, Overflow
from .operators import (
    OperatorModel,
    inverse_norms,
    operator_norm_upper,
    shifted_solve,
    spectrum_hit,
)
from .spaces import (
    GridSpec,
    SampledField,
    _lp_lq_norms,
    _lp_lq_norms_from_spectra,
    band_limited_spectra,
    blocks,
    fractional_multiplier,
    h_m_pt_norm,
)
from .symbols import MultiIndex, ScaleParams, SymbolSpec, eval_symbol

RESIDUAL_TOL = 1e-10
NEUMANN_TOL = 1e-9
MAX_ITER = 200
PROBES = 64  # random fields of a sampled contraction estimate


@dataclass(frozen=True)
class LowerTerm:
    """One lower-order term t(alpha) * A_alpha(x) * D^alpha."""

    alpha: MultiIndex
    coefficient: np.ndarray = field(repr=False)  # (N, N) or grid.shape + (N, N)

    def coefficient_on(self, grid: GridSpec, N: int) -> np.ndarray:
        c = np.asarray(self.coefficient, dtype=complex)
        if c.shape == (N, N):
            return np.broadcast_to(c, grid.shape + (N, N))
        if c.shape == grid.shape + (N, N):
            return c
        raise ValueError(f"coefficient shape {c.shape} fits neither (N,N) nor grid+(N,N)")


@dataclass(frozen=True)
class EllipticProblem:
    """The full equation: symbol part + A + lower-order terms + lambda."""

    model: OperatorModel
    symbol: SymbolSpec
    t: ScaleParams
    lam: complex
    grid: GridSpec
    lower_terms: tuple = ()

    def __post_init__(self):
        if self.t.n != self.grid.n:
            raise ValueError("scale-parameter dimension must match the grid")
        phi2 = abs(cmath.phase(complex(self.lam))) if self.lam != 0 else 0.0
        if self.symbol.phi1 + phi2 >= math.pi:
            raise ValueError(
                f"angle arithmetic violated: phi1 + |arg lambda| = "
                f"{self.symbol.phi1 + phi2:.4f} >= pi")
        for term in self.lower_terms:
            if term.alpha.order >= self.symbol.m or term.alpha.n != self.grid.n:
                raise ValueError(f"lower-term alpha {list(term.alpha)} needs {self.grid.n} "
                                 f"entries and order < m = {self.symbol.m}")
            term.coefficient_on(self.grid, self.model.N)  # raises on a wrong shape
        object.__setattr__(self, "lower_terms", tuple(self.lower_terms))

    @property
    def principal(self) -> "EllipticProblem":
        return replace(self, lower_terms=()) if self.lower_terms else self

    def symbol_values(self) -> np.ndarray:
        """P_t(xi) on the frequency lattice, FFT order."""
        xi = self.grid.frequency_mesh()
        return np.asarray(eval_symbol(self.symbol, self.t, xi), dtype=complex)


def coercive_index_set(n: int, m: float):
    """Canonical finite family of derivative orders entering the coercive sum.

    Integer m: the integer lattice {alpha >= 0 : |alpha| <= m} (which already
    contains the pure directions m*e_k).  Non-integer m: {0}, the pure
    directions m*e_k and the half-orders (m/2)*e_k.
    """
    if float(m).is_integer():
        mi = int(m)
        out = []
        for alpha in np.ndindex(*([mi + 1] * n)):
            if sum(alpha) <= mi:
                out.append(MultiIndex(tuple(float(a) for a in alpha)))
        out.sort(key=lambda a: (a.order, a.components))
        return out
    out = [MultiIndex((0.0,) * n)]
    for k in range(n):
        for order in (m / 2.0, m):
            comp = [0.0] * n
            comp[k] = order
            out.append(MultiIndex(tuple(comp)))
    return out


def _shifts(model: OperatorModel, symbol: SymbolSpec, t, lam, xi) -> np.ndarray:
    """The mode shifts lam + P_t(xi) at the frequency rows xi (..., n), checked:
    ModeSingular names the first spectrum_hit.  t and lam are one point's, or a
    block's: the sequence of the points' ScaleParams (eval_symbol) and the
    array of their lam, broadcast over the trailing axes."""
    xi = np.atleast_1d(xi)
    P = np.asarray(eval_symbol(symbol, t, xi), dtype=complex)
    shifts = np.reshape(lam, np.shape(lam) + (1,) * (P.ndim - np.ndim(lam))) + P
    hit = spectrum_hit(model, shifts.reshape(-1))
    if hit is not None:
        at, s = tuple(xi.reshape(-1, xi.shape[-1])[hit]), shifts.reshape(-1)[hit]
        raise ModeSingular(at, None if np.isfinite(s) else f"shift {s} at xi={at} is not finite")
    return shifts


def _mode_shifts(prob: EllipticProblem) -> np.ndarray:
    """lambda + P_t(xi) per lattice mode (flattened FFT order), checked."""
    return _shifts(prob.model, prob.symbol, prob.t, prob.lam,
                   prob.grid.frequency_mesh()).reshape(-1)


def _solve_spectra(model: OperatorModel, shifts: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """Per-mode principal solve of a stack of spectra, fhat shape (..., F) +
    grid.shape + (N,), with the mode shifts (..., modes) of its leading axes
    (flattened FFT order; shifts of one lattice have no leading axes)."""
    lead = shifts.shape[:-1]
    return shifted_solve(model, shifts, fhat.reshape(lead + (-1,) + shifts.shape[-1:]
                                                     + fhat.shape[-1:])).reshape(fhat.shape)


def solve_principal(prob: EllipticProblem, f: SampledField) -> SampledField:
    """Exact per-mode solve of the principal equation (no lower-order terms)."""
    if prob.lower_terms:
        raise ValueError("solve_principal requires empty lower terms; use solve_full")
    uhat = _solve_spectra(prob.model, _mode_shifts(prob), prob.grid.fft(f.values[None]))
    return f.with_values(prob.grid.ifft(uhat)[0])


def _apply_lower(prob: EllipticProblem, spec: np.ndarray) -> np.ndarray:
    """L_t u for a stack of fields with spectra spec: one multiplier per term."""
    out = np.zeros_like(spec)
    for term in prob.lower_terms:
        w = prob.t.weight(term.alpha, prob.symbol.m)
        mult = fractional_multiplier(prob.grid, term.alpha)
        du = prob.grid.ifft(spec * mult[..., None])
        coeff = term.coefficient_on(prob.grid, spec.shape[-1])
        out = out + w * (coeff @ du[..., None])[..., 0]
    return out


def apply_operator(prob: EllipticProblem, u: SampledField) -> SampledField:
    """Forward operator: symbol part + A u + lambda u + lower-order terms."""
    uvals = u.values[None]
    uspec = prob.grid.fft(uvals)
    out = prob.grid.ifft(prob.symbol_values()[..., None] * uspec) + prob.model.apply(uvals) \
        + prob.lam * uvals
    if prob.lower_terms:
        out = out + _apply_lower(prob, uspec)
    return u.with_values(out[0])


def _lower_symbol_blocks(prob: EllipticProblem):
    """Per-mode matrices of L_t, grid.shape + (N, N), when every lower term has a
    constant (N, N) coefficient (L_t is then diagonal per mode); else None."""
    N = prob.model.N
    if any(np.shape(term.coefficient) != (N, N) for term in prob.lower_terms):
        return None  # x-dependent coefficient: not diagonal in frequency
    out = np.zeros(prob.grid.shape + (N, N), dtype=complex)
    for term in prob.lower_terms:
        c = np.asarray(term.coefficient, dtype=complex)
        mult = fractional_multiplier(prob.grid, term.alpha)
        out = out + prob.t.weight(term.alpha, prob.symbol.m) * mult[..., None, None] * c
    return out


def _scalar_coefficients(prob: EllipticProblem) -> bool:
    """True when every lower-term coefficient is exactly c * I with a constant c."""
    eye = np.eye(prob.model.N)
    coeffs = [np.asarray(term.coefficient) for term in prob.lower_terms]
    return all(c.shape == eye.shape and np.array_equal(c, c[0, 0] * eye) for c in coeffs)


def contraction_estimate(prob: EllipticProblem, probes: int = PROBES, seed: int = 0) -> float:
    """Norm of u -> L_t (principal)^-1 u on L^2(x; l_q^N), exact or estimated.

    With constant coefficients L_t P^-1 is a Fourier multiplier, and its
    largest per-mode block norm is taken: at q = 2 that is the norm itself
    (Plancherel) and is returned without probes; at q in {1, inf} pure modes
    e^{i xi x} v attain it, so it is a lower estimate; at other q it is the
    Riesz-Thorin upper bound per mode.  When every coefficient is c_alpha I,
    the block of mode xi is l(xi) B(xi), B(xi) = (A + lambda + P_t(xi))^-1
    and l(xi) = sum t(alpha) c_alpha (i xi)^alpha, so its norm is
    |l(xi)| ||B(xi)|| with ||B(xi)|| from operators.inverse_norms: no
    inverse at q = 2 with Hermitian A.  At q != 2, and for x-dependent
    coefficients, the max with the ratios of `probes` random band-limited
    fields (lower bounds, and the only term for x-dependent coefficients) is
    returned; probes are drawn as spectra and solved in blocks (spaces.blocks).
    """
    return _contraction(prob, probes, seed, _mode_shifts(prob), _lower_symbol_blocks(prob))[0]


def _contraction(prob: EllipticProblem, probes: int, seed: int, shifts: np.ndarray,
                 lower_blocks) -> tuple:
    """(contraction_estimate, whether it is exact) from the per-mode shifts
    lambda + P_t(xi) and the per-mode matrices of L_t (None for x-dependent
    coefficients).  It is exact when no probe is drawn: constant coefficients
    at q = 2, or no lower terms."""
    if not prob.lower_terms:
        return 0.0, True
    best = 0.0
    grid, model, N, q = prob.grid, prob.model, prob.model.N, prob.model.q
    if lower_blocks is not None:
        if _scalar_coefficients(prob):
            norms = np.abs(lower_blocks[..., 0, 0]).reshape(-1) * inverse_norms(model, shifts)
        else:
            Binv = shifted_solve(model, shifts).reshape(grid.shape + (N, N))
            norms = operator_norm_upper(lower_blocks @ Binv, q)
        best = float(np.max(norms))
        if q == 2:
            return best, True
    rng = np.random.default_rng(seed)
    for b in blocks(probes, grid.M ** grid.n * N):  # the stream's fields in order
        spec = band_limited_spectra(grid, N, [rng], b.stop - b.start)[0]
        nu = _lp_lq_norms_from_spectra(spec, grid, q, 2.0)
        spec, nu = spec[nu > 0], nu[nu > 0]
        if nu.size:
            Lv = _apply_lower(prob, _solve_spectra(model, shifts, spec))
            best = max(best, float((_lp_lq_norms(Lv, grid, q, 2.0) / nu).max()))
    return best, False


@dataclass
class IterationReport:
    iterations: int
    residuals: list
    contraction: float
    contraction_exact: bool


def solve_full(prob: EllipticProblem, f: SampledField, seed: int = 0):
    """Neumann fixed-point solve of the full equation with lower-order terms.

    Iterates u <- principal_solve(f - L_t u) until the relative residual is
    below NEUMANN_TOL, for at most MAX_ITER iterations; requires the
    contraction estimate to be below one, otherwise the spectral parameter is
    too small for the perturbation argument and ContractionFailure is raised.

    The iteration runs on spectra: f is transformed once, and u once back at
    the end.  The spectrum of L_t u is the per-mode blocks of L_t times the
    iterate's spectrum for constant coefficients (the blocks are built once
    and shared with the contraction estimate), and the FFT of the physical
    product otherwise.  The residual is that of the applied operator,
    (A + lambda + P_t(xi)) uhat + (L_t u)^ - fhat, in the L^2(l_q) norm of
    q = prob.model.q: at q = 2 from the spectrum by Parseval, at other q after
    an inverse FFT.
    Returns (solution, IterationReport).
    """
    grid, q = prob.grid, prob.model.q
    shifts = _mode_shifts(prob)
    lower_blocks = _lower_symbol_blocks(prob)
    rate, exact = _contraction(prob, PROBES, seed, shifts, lower_blocks)
    if rate >= 1.0:
        raise ContractionFailure(f"contraction estimate {rate:.3f} >= 1; increase |lambda|")
    fhat = grid.fft(f.values[None])
    nf = float(_lp_lq_norms(f.values[None], grid, q, 2.0)[0])
    mode_shifts = shifts.reshape(grid.shape)[..., None]
    uhat = _solve_spectra(prob.model, shifts, fhat)
    residuals = []
    for it in range(1, MAX_ITER + 1):
        if lower_blocks is not None:
            lower = (lower_blocks @ uhat[..., None])[..., 0]
        else:
            lower = grid.fft(_apply_lower(prob, uhat))
        rhat = prob.model.apply(uhat) + mode_shifts * uhat + lower - fhat
        nr = float(_lp_lq_norms_from_spectra(rhat, grid, q, 2.0)[0])
        residuals.append(nr / nf if nf > 0 else 0.0)
        if not math.isfinite(residuals[-1]):  # inf or nan appear only past the float range
            raise Overflow(f"residual {residuals[-1]} at iteration {it}: the solve overflows")
        if residuals[-1] < NEUMANN_TOL or not prob.lower_terms:
            return f.with_values(grid.ifft(uhat)[0]), IterationReport(
                iterations=it, residuals=residuals, contraction=rate, contraction_exact=exact)
        uhat = _solve_spectra(prob.model, shifts, fhat - lower)
    raise NoConvergence(f"residual {residuals[-1]:.2e} after {MAX_ITER} iterations")


def graph_norm(prob: EllipticProblem, u: SampledField, p: float = 2.0):
    """(||O_t u||, parameterized Sobolev norm, their ratio) at the lambda=1 slice.

    O_t is the principal operator with lambda = 0.  Both norms start from one
    FFT of u: ||O_t u|| is the norm of the spectrum (P_t(xi) + A) u_hat, by
    Parseval at p = q = 2 and after one inverse FFT otherwise, and the Sobolev
    norm's bracket term is taken the same way.  The ratio is reported as 1
    when both norms vanish.
    """
    uspec = prob.grid.fft(u.values)
    ospec = prob.symbol_values()[..., None] * uspec + prob.model.apply(uspec)
    q = prob.model.q
    onorm = float(_lp_lq_norms_from_spectra(ospec[None], prob.grid, q, p)[0])
    hnorm = h_m_pt_norm(u, prob.t, prob.symbol.m, p, q, A=prob.model.A, spec=uspec)
    if onorm == 0 and hnorm == 0:
        return 0.0, 0.0, 1.0
    ratio = hnorm / onorm if onorm > 0 else math.inf
    return onorm, hnorm, ratio
