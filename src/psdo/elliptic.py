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
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractionFailure, ModeSingular, NoConvergence
from .operators import OperatorModel, PositivityCertificate, operator_norm_upper
from .spaces import (
    GridSpec,
    SampledField,
    _lp_lq_norms,
    fractional_multiplier,
    h_m_pt_norm,
    lp_lq_norm,
    random_band_limited_field,
)
from .symbols import MultiIndex, ScaleParams, SymbolSpec, eval_symbol

RESIDUAL_TOL = 1e-10
NEUMANN_TOL = 1e-9
MAX_ITER = 200
# probe fields per principal solve in contraction_estimate; bounds its peak memory
PROBE_BLOCK = 16


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
    positivity: PositivityCertificate = None

    def __post_init__(self):
        if self.t.n != self.grid.n:
            raise ValueError("scale-parameter dimension must match the grid")
        phi2 = abs(cmath.phase(complex(self.lam))) if self.lam != 0 else 0.0
        if self.symbol.phi1 + phi2 >= math.pi:
            raise ValueError(
                f"angle arithmetic violated: phi1 + |arg lambda| = "
                f"{self.symbol.phi1 + phi2:.4f} >= pi")
        if self.positivity is not None and self.symbol.phi1 + phi2 > self.positivity.phi + 1e-12:
            raise ValueError("phi1 + |arg lambda| exceeds the certified positivity angle")
        for term in self.lower_terms:
            if term.alpha.order >= self.symbol.m:
                raise ValueError(
                    f"lower-term order {term.alpha.order} must be < m = {self.symbol.m}")
        object.__setattr__(self, "lower_terms", tuple(self.lower_terms))

    @property
    def principal(self) -> "EllipticProblem":
        if not self.lower_terms:
            return self
        return EllipticProblem(model=self.model, symbol=self.symbol, t=self.t,
                               lam=self.lam, grid=self.grid, lower_terms=(),
                               positivity=self.positivity)

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


def _mode_matrices(A: np.ndarray, shifts) -> np.ndarray:
    """A + s I stacked over the shifts s = lambda + P_t(xi), shape (len, N, N)."""
    eye = np.eye(A.shape[0], dtype=complex)
    return A[None, :, :] + np.asarray(shifts)[:, None, None] * eye


def _mode_shifts(prob: EllipticProblem) -> np.ndarray:
    """lambda + P_t(xi) per lattice mode (flattened FFT order).

    Raises ModeSingular when a shift lies within roundoff of -spectrum(A).
    """
    shifts = prob.lam + prob.symbol_values().reshape(-1)
    eigs = prob.model.eigvals
    scale = max(1.0, float(np.abs(prob.model.A).max()))
    dist = np.abs(eigs[None, :] + shifts[:, None]).min(axis=1)
    bad = np.flatnonzero(dist <= 1e-12 * scale)
    if bad.size:
        xi = prob.grid.frequency_mesh().reshape(-1, prob.grid.n)[bad[0]]
        raise ModeSingular(tuple(xi))
    return shifts


def _solve_modes(prob: EllipticProblem, shifts: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """Principal solve of a stack of fields, fvals shape (F,) + grid.shape + (N,).

    One FFT of the stack and one per-mode solve with all F right-hand sides.
    """
    axes = tuple(range(1, prob.grid.n + 1))
    F, N = fvals.shape[0], fvals.shape[-1]
    fhat = _spectra(prob, fvals)
    rhs = np.moveaxis(fhat.reshape(F, -1, N), 0, -1)  # (modes, N, F)
    try:
        uhat = np.linalg.solve(_mode_matrices(prob.model.A, shifts), rhs)
    except np.linalg.LinAlgError as exc:
        raise ModeSingular(None, str(exc)) from exc
    uhat = np.moveaxis(uhat, -1, 0).reshape(fhat.shape)
    return np.fft.ifftn(uhat, axes=axes, norm="ortho")


def solve_principal(prob: EllipticProblem, f: SampledField) -> SampledField:
    """Exact per-mode solve of the principal equation (no lower-order terms)."""
    if prob.lower_terms:
        raise ValueError("solve_principal requires empty lower terms; use solve_full")
    return f.with_values(_solve_modes(prob, _mode_shifts(prob), f.values[None])[0])


def _spectra(prob: EllipticProblem, vals: np.ndarray) -> np.ndarray:
    """Unitary FFT of a stack of fields, vals shape (F,) + grid.shape + (N,)."""
    return np.fft.fftn(vals, axes=tuple(range(1, prob.grid.n + 1)), norm="ortho")


def _apply_lower(prob: EllipticProblem, vals: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """L_t u for a stack of fields vals with spectra spec: one multiplier per term."""
    axes = tuple(range(1, prob.grid.n + 1))
    out = np.zeros_like(vals)
    for term in prob.lower_terms:
        w = prob.t.weight(term.alpha, prob.symbol.m)
        mult = fractional_multiplier(prob.grid, term.alpha)
        du = np.fft.ifftn(spec * mult[..., None], axes=axes, norm="ortho")
        coeff = term.coefficient_on(prob.grid, vals.shape[-1])
        out = out + w * np.einsum("...ij,...j->...i", coeff, du)
    return out


def apply_lower_terms(prob: EllipticProblem, u: SampledField) -> SampledField:
    """L_t u = sum over lower terms of t(alpha) A_alpha(x) D^alpha u."""
    uvals = u.values[None]
    return u.with_values(_apply_lower(prob, uvals, _spectra(prob, uvals))[0])


def _apply_principal(prob: EllipticProblem, uvals: np.ndarray, uspec: np.ndarray) -> np.ndarray:
    """P_t(D) u + A u + lambda u for a stack of fields uvals with spectra uspec."""
    axes = tuple(range(1, prob.grid.n + 1))
    P = prob.symbol_values()
    principal = np.fft.ifftn(P[..., None] * uspec, axes=axes, norm="ortho")
    return principal + prob.model.apply(uvals) + prob.lam * uvals


def apply_operator(prob: EllipticProblem, u: SampledField) -> SampledField:
    """Forward operator: symbol part + A u + lambda u + lower-order terms."""
    uvals = u.values[None]
    uspec = _spectra(prob, uvals)
    out = _apply_principal(prob, uvals, uspec)
    if prob.lower_terms:
        out = out + _apply_lower(prob, uvals, uspec)
    return u.with_values(out[0])


def _lower_symbol_blocks(prob: EllipticProblem):
    """Per-mode matrices of L_t for constant-coefficient lower terms, or None."""
    N = prob.model.N
    blocks = np.zeros(prob.grid.shape + (N, N), dtype=complex)
    m = prob.symbol.m
    for term in prob.lower_terms:
        c = np.asarray(term.coefficient, dtype=complex)
        if c.shape != (N, N):
            return None  # x-dependent coefficient: not diagonal in frequency
        mult = fractional_multiplier(prob.grid, term.alpha)
        blocks = blocks + prob.t.weight(term.alpha, m) * mult[..., None, None] * c
    return blocks


def contraction_estimate(prob: EllipticProblem, probes: int = 64, seed: int = 0) -> float:
    """Empirical norm of u -> L_t (principal)^-1 u.

    Constant-coefficient terms are diagonal per mode, so the exact per-mode
    block norms are taken alongside random band-limited probe fields; the max
    over both is returned.  Probes are solved in blocks of PROBE_BLOCK fields.
    """
    if not prob.lower_terms:
        return 0.0
    base = prob.principal
    shifts = _mode_shifts(base)
    best = 0.0
    blocks = _lower_symbol_blocks(prob)
    if blocks is not None:
        mats = _mode_matrices(prob.model.A, shifts)
        Binv = np.linalg.inv(mats.reshape(prob.grid.shape + (prob.model.N,) * 2))
        comp = np.einsum("...ij,...jk->...ik", blocks, Binv)
        best = float(np.max(operator_norm_upper(comp, prob.model.q)))
    rng = np.random.default_rng(seed)
    grid, N, q = prob.grid, prob.model.N, prob.model.q
    for start in range(0, probes, PROBE_BLOCK):
        u = np.stack([random_band_limited_field(grid, N, rng, q=q).values
                      for _ in range(min(PROBE_BLOCK, probes - start))])
        nu = _lp_lq_norms(u, grid, q, 2.0)
        u, nu = u[nu > 0], nu[nu > 0]
        if nu.size:
            v = _solve_modes(base, shifts, u)
            ratios = _lp_lq_norms(_apply_lower(prob, v, _spectra(prob, v)), grid, q, 2.0) / nu
            best = max(best, float(ratios.max()))
    return best


@dataclass
class IterationReport:
    iterations: int
    residuals: list
    contraction: float


def solve_full(prob: EllipticProblem, f: SampledField, tol: float = NEUMANN_TOL,
               max_iter: int = MAX_ITER, probes: int = 64, seed: int = 0):
    """Neumann fixed-point solve of the full equation with lower-order terms.

    Iterates u <- principal_solve(f - L_t u); requires the empirical
    contraction estimate to be below one, otherwise the spectral parameter is
    too small for the perturbation argument and ContractionFailure is raised.
    Returns (solution, IterationReport).
    """
    base = prob.principal
    if not prob.lower_terms:
        u = solve_principal(base, f)
        return u, IterationReport(iterations=1, residuals=[_relative_residual(prob, u, f)],
                                  contraction=0.0)
    kappa = contraction_estimate(prob, probes=probes, seed=seed)
    if kappa >= 1.0:
        raise ContractionFailure(
            f"contraction estimate {kappa:.3f} >= 1; increase |lambda|")
    nf = lp_lq_norm(f, 2.0)
    u = solve_principal(base, f)
    residuals = []
    for it in range(1, max_iter + 1):
        res = apply_operator(prob, u) - f
        rel = lp_lq_norm(res, 2.0) / nf if nf > 0 else 0.0
        residuals.append(rel)
        if rel < tol:
            return u, IterationReport(iterations=it, residuals=residuals, contraction=kappa)
        u = solve_principal(base, f - apply_lower_terms(prob, u))
    raise NoConvergence(f"residual {residuals[-1]:.2e} after {max_iter} iterations")


def _relative_residuals(grid: GridSpec, q: float, Ou: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """||O u - f|| / ||f|| (L_2 of the l_q norm) per field of a stack; 0 where f = 0."""
    nf = _lp_lq_norms(fvals, grid, q, 2.0)
    nr = _lp_lq_norms(Ou - fvals, grid, q, 2.0)
    return np.divide(nr, nf, out=np.zeros_like(nr), where=nf > 0)


def _relative_residual(prob: EllipticProblem, u: SampledField, f: SampledField) -> float:
    Ou = apply_operator(prob, u).values[None]
    return float(_relative_residuals(u.grid, u.q, Ou, f.values[None])[0])


def graph_norm(prob: EllipticProblem, u: SampledField, p: float = 2.0):
    """(||O_t u||, parameterized Sobolev norm, their ratio) at the lambda=1 slice.

    O_t is the principal operator with lambda = 0.  The ratio is reported as 1
    when both norms vanish.
    """
    zero_shift = EllipticProblem(model=prob.model, symbol=prob.symbol, t=prob.t,
                                 lam=0.0, grid=prob.grid)
    onorm = lp_lq_norm(apply_operator(zero_shift, u), p)
    hnorm = h_m_pt_norm(u, prob.t, prob.symbol.m, p, A=prob.model.A)
    if onorm == 0 and hnorm == 0:
        return 0.0, 0.0, 1.0
    ratio = hnorm / onorm if onorm > 0 else math.inf
    return onorm, hnorm, ratio
