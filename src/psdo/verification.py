"""Empirical harness for the uniform estimates: coercivity and resolvent
sweeps over the spectral sector and scale parameters, multiplier-family
boundedness, and randomized-sign (Rademacher) lower bounds on R-bounds.

Constants reported here are artifacts of this implementation (the underlying
estimates are existential); sweeps check finiteness and flatness across
parameter decades, which is the testable content of uniformity.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, islice

import numpy as np

from .elliptic import (
    EllipticProblem,
    _shifts,
    _solve_spectra,
    coercive_index_set,
)
from .errors import PsdoError, TooManyForEnumeration
from .operators import (
    OperatorModel,
    channel_matrices,
    channel_norms,
    channels,
    operator_norm_upper,
    resolvent,
    resolvent_norms,
    top_vectors,
)
from .spaces import (
    GridSpec,
    _lp_lq_norms_from_spectra,
    band_limited_spectra,
    blocks,
    box_freqs,
    fractional_multiplier,
    gaussian_field,
    lattice_mesh,
    vector_norms,
)
from .sweep import SectorSweep
from .symbols import (
    ScaleParams,
    SymbolSpec,
    _signed_logspace,
    symbol_derivative,
)

DEFAULT_FLATNESS = {"coercivity": 1.5, "resolvent": 2.0}
SPAN = 4.0           # adapted grids reach SPAN times the saturation frequency
DECADES_BELOW = 4.0  # adapted frequency samples start this many decades below it
RESTARTS = 2         # seeded random starts per searched R-bound tuple
PROBE_CLOUD = 512    # random points probe_norm scores before its search
ROUGH_TOL = 1e-4     # an R-bound search's first climb stops at relative rises below this
STEP_TOL = 1e-10     # and its climbs on the kink subspaces at rises below this
CUSP = 1e-2          # kinks: sums below this fraction of the largest vanish, entries tie
CUSP_ROUNDS = 10     # kink subspaces per start, each fitted where the last climb ended
MAX_STEPS = 500      # BFGS steps per climb, and trial steps per line search
ARMIJO, WOLFE = 1e-4, 0.5  # an accepted step's least rise and largest slope, as fractions
TIE_ULPS = 4         # ratios within this many ulp of the largest tie with it (summary.worst)
KAHANE_MAX = 12      # scalars of a kahane check, whose 2^m sign patterns it enumerates
TUPLE_MAX = 20       # members of a tuple whose 2^m sign patterns are enumerated
RBOUND_BUDGET = 48   # mixed tuples an R-bound search scores besides singletons and constants

# Failures that mark one sweep point failed (LinAlgError is a ValueError); others are bugs.
POINT_ERRORS = (PsdoError, ValueError)


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    """Per-sweep-point records plus summary statistics and a verdict."""

    kind: str
    points: list = field(default_factory=list)   # dicts: ray, radius, t, ratio, residual, error
    max_ratio: float = None
    median_ratio: float = None
    flatness: float = None
    worst: dict = None
    flatness_threshold: float = None
    max_ratio_threshold: float = None
    status: str = "not-applicable"
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "summary": {
                "max_ratio": self.max_ratio,
                "median_ratio": self.median_ratio,
                "flatness": self.flatness,
                "worst": self.worst,
                "flatness_threshold": self.flatness_threshold,
                "max_ratio_threshold": self.max_ratio_threshold,
                "status": self.status,
            },
            "points": self.points,
            "details": self.details,
        }


def _flatness(values) -> tuple:
    """(max, median, max / median) of values; the ratio is inf unless the median is positive."""
    values = np.asarray(values, dtype=float)
    top, med = float(values.max()), float(np.median(values))
    return top, med, top / med if med > 0 else math.inf


def _summarize(report: VerificationReport) -> VerificationReport:
    ok = [p for p in report.points if p.get("error") is None]
    if not ok:
        report.status = "not-applicable" if not report.points else "fail"
        return report
    ratios = np.array([p["ratio"] for p in ok])
    report.max_ratio, report.median_ratio, report.flatness = _flatness(ratios)
    # points that scale invariance makes equal tie up to roundoff: the first
    # in sweep order within TIE_ULPS ulp of the largest ratio is the worst
    top = ratios.max()
    first = int(np.argmax(ratios >= top - TIE_ULPS * np.spacing(top))) if np.isfinite(top) \
        else int(ratios.argmax())
    report.worst = dict(ok[first])
    failed = len(report.points) - len(ok)
    verdict = failed == 0 and np.all(np.isfinite(ratios))
    if report.flatness_threshold is not None:
        verdict = verdict and report.flatness <= report.flatness_threshold
    if report.max_ratio_threshold is not None:
        verdict = verdict and report.max_ratio <= report.max_ratio_threshold
    report.status = "pass" if verdict else "fail"
    return report


# ---------------------------------------------------------------------------
# coercivity / resolvent sweeps


@dataclass(frozen=True)
class ProblemTemplate:
    """Everything but (lambda, t): instantiated at each sweep point."""

    model: OperatorModel
    symbol: SymbolSpec
    grid: GridSpec
    p: float = 2.0

    def indices(self):
        return coercive_index_set(self.grid.n, self.symbol.m)


def _derivative_weights(ts, lams, m: float, index_set) -> np.ndarray:
    """t(alpha) |lam|^(1-|alpha|/m), the weight of D^alpha in the coercive sum,
    per alpha of index_set (rows) and per point (ts[k], lams[k]) (columns)."""
    weights = [[t.weight(alpha, m) * abs(lam) ** (1.0 - alpha.order / m)
                for t, lam in zip(ts, lams)] for alpha in index_set]
    return np.array(weights).reshape(len(index_set), len(ts))


def _symbol_weights(xi: np.ndarray, weights: np.ndarray, index_set) -> list:
    """weights[a, k] |(i xi)^alpha| at the frequency rows xi[k] (b, S, n) of each
    point k, one (b, S) array per alpha of index_set.

    The modulus is the product of the real powers |xi_j|^alpha_j, with no
    complex power formed; 0^0 = 1 and 0^a = 0 for a > 0, as in i_xi_power."""
    moduli = np.abs(np.moveaxis(xi, -1, 0))
    out = []
    for w, alpha in zip(weights, index_set):
        modulus = np.ones(xi.shape[:-1])
        for mod, a in zip(moduli, alpha):
            if a:
                modulus = modulus * mod ** a
        out.append(w[:, None] * modulus)
    return out


def _coercive_ratios(grid: GridSpec, L: np.ndarray, q: float, p: float, uspec: np.ndarray,
                     Auspec: np.ndarray, nf: np.ndarray, weights: np.ndarray,
                     index_set) -> np.ndarray:
    """[sum_alpha weights[a] ||D^alpha u|| + ||A u||] / ||f||, every norm in
    L_p(l_q), of each field of a block of points from the spectra
    (b, F) + grid.shape + (N,) of u and A u and the norms nf (b, F) of f
    (_lp_lq_norms_from_spectra): point k lives on the grid of box length L[k]
    and weighs D^alpha with weights[a, k] (_derivative_weights).

    Each ||D^alpha u|| is the norm of the spectrum uspec (i xi)^alpha; every
    norm is taken by Parseval at p = q = 2, after an inverse FFT otherwise.
    A point's cell volume scales all of its norms alike, so grid's stands in."""
    if np.any(nf == 0):
        raise ZeroDivisionError("coercive ratio undefined for f = 0")
    total = _lp_lq_norms_from_spectra(Auspec, grid, q, p)
    freqs = box_freqs(grid.M, L)
    mults = [fractional_multiplier(grid, alpha, freqs) for alpha in index_set]
    if p == q == 2:  # from the power sum_j |u_hat_j|^2 per mode: no stack per alpha
        flat = np.ascontiguousarray(uspec).view(np.float64)  # (Re, Im) pairs
        flat = flat.reshape(uspec.shape[:2] + (-1, 2 * uspec.shape[-1]))
        power = np.einsum("bfmk,bfmk->bfm", flat, flat)
        norms = [np.sqrt(np.einsum("bfm,bm->bf", power, np.abs(mult.reshape(len(L), -1)) ** 2)
                         * grid.cell_volume) for mult in mults]
    else:
        norms = [_lp_lq_norms_from_spectra(uspec * mult[:, None, ..., None], grid, q, p)
                 for mult in mults]
    for w, norm in zip(weights, norms):
        total = total + w[:, None] * norm
    return total / nf


def _worst_modes(model: OperatorModel, xi: np.ndarray, shifts: np.ndarray, weights: np.ndarray):
    """Frequency (b, n) and vector (b, N) of the lattice mode that maximizes
    weights ||B|| + ||A B||, B = (A + shift)^-1 (operators.resolvent_norms),
    for each point of a block: rows xi (b, K, n), shifts and weights (b, K);
    the first maximum wins.  The vector is operators.top_vectors of its shift.
    """
    nB, nAB, _ = resolvent_norms(model, shifts)
    rows, best = np.arange(len(xi)), (weights * nB + nAB).argmax(axis=-1)
    return xi[rows, best], top_vectors(model, shifts[rows, best])


def _plane_wave_spectra(M: int, L: np.ndarray, xi0: np.ndarray, vec: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """Write into out, (b,) + (M,)*n + (N,), the unitary spectra (GridSpec.fft)
    of the plane waves e^{i xi0[k] . x} vec[k] on the box of length L[k] of each
    point k, and return it; xi0 (b, n) lies on the lattice 2 pi k / L.

    At the points x_j = -L/2 + j L/M the wave is (-1)^(k_1+...+k_n)
    e^{2 pi i k . j / M} vec, so its spectrum is the delta of height
    M^(n/2) (-1)^(k_1+...+k_n) vec at the FFT index k mod M: no field is
    sampled and no FFT taken."""
    k = np.rint(xi0 * (L[:, None] / (2.0 * np.pi))).astype(int)
    signs = 1.0 - 2.0 * (k.sum(axis=-1) % 2)
    out[...] = 0.0
    out[(np.arange(len(k)),) + tuple((k % M).T)] = (M ** (k.shape[-1] / 2) * signs)[:, None] * vec
    return out


def _sweep_report(kind: str, points, kernel, per_point: int, flatness_threshold: float = None,
                  max_ratio_threshold: float = None) -> VerificationReport:
    """Summarized report with one record per (lambda, t) point, in sweep order.

    kernel(idxs) evaluates the points with the sweep indices idxs at once and
    returns their numbers (ratio, residual, ...), one dict per point.  The
    points run in blocks (spaces.blocks), per_point being the entries of one
    point's largest array.  A POINT_ERRORS failure re-runs its block one
    point at a time, so that a bad point gets its error record, which fails
    the verdict, while the others complete; any other exception propagates.
    """
    if any(t is None for _, t in points):
        raise ValueError("sweep point has no scale parameters t")

    def run(idxs):
        try:
            return [dict(out, error=None) for out in kernel(idxs)]
        except POINT_ERRORS as exc:
            if len(idxs) > 1:
                return [rec for idx in idxs for rec in run([idx])]
            return [{"ratio": None, "residual": None, "error": f"{type(exc).__name__}: {exc}"}]

    outs = [out for b in blocks(len(points), per_point)
            for out in run(list(range(len(points))[b]))]
    records = [{"ray": cmath.phase(lam) if lam != 0 else 0.0, "radius": abs(lam), "t": list(t.t),
                **out} for (lam, t), out in zip(points, outs)]
    flat = DEFAULT_FLATNESS.get(kind) if flatness_threshold is None else flatness_threshold
    return _summarize(VerificationReport(kind=kind, points=records, flatness_threshold=flat,
                                         max_ratio_threshold=max_ratio_threshold))


def _saturation_frequency(lam: complex, t: ScaleParams, m: float) -> float:
    """Frequency magnitude where the symbol balances the spectral shift.

    The estimate terms peak near t_k |xi_k|^m ~ |lam|; a sweep grid must
    resolve that scale or every large-|lam| point degenerates to ratio ~ 1.
    """
    r = max(abs(lam), 1.0)
    return max((r / tk) ** (1.0 / m) for tk in t.t)


def _adapted_grid(grid: GridSpec, lam: complex, t: ScaleParams, m: float) -> GridSpec:
    """Rescale the box so the lattice reaches SPAN times the peak frequency."""
    xi_star = _saturation_frequency(lam, t, m)
    L = math.pi * grid.M / (SPAN * xi_star)
    return GridSpec(n=grid.n, M=grid.M, L=L)


def coercivity_sweep(template: ProblemTemplate, sweep: SectorSweep,
                     data_count: int = 8, seed: int = 0, flatness_threshold: float = None,
                     max_ratio_threshold: float = None) -> VerificationReport:
    """Solve and measure the coercive ratio at every (lambda, t) sweep point.

    The box length is rescaled per point so that the lattice resolves the
    saturation frequency (|lam| / t_k)^(1/m); only L changes, so the points
    of a block (_sweep_report) share one array shape and are solved as one
    stack of spectra.  Each point's data_count >= 2 fields are the Gaussian
    (whose values do not depend on L), the point's worst lattice mode
    (_worst_modes) and data_count - 2 random band-limited fields drawn from
    the point's own stream default_rng((seed, index)).  A point's ratio and
    residual are the largest over its fields; the residual is that of the
    per-mode solve, ||(A + lam + P_t(xi)) u_hat - f_hat|| / ||f_hat||.
    """
    if data_count < 2:
        raise ValueError(f"data_count must be at least 2, got {data_count}")
    index_set = template.indices()
    model, grid, symbol = template.model, template.grid, template.symbol
    m, q, n, N = symbol.m, model.q, grid.n, model.N
    keep = ~grid.nyquist_mask().reshape(-1)
    gauss = grid.fft(gaussian_field(grid, vector=np.ones(N)).values)
    points = sweep.points()

    def kernel(idxs):
        ts = [points[i][1] for i in idxs]
        lams = np.array([points[i][0] for i in idxs], dtype=complex)
        # one box length per point; EllipticProblem checks the point's hypotheses
        L = np.array([EllipticProblem(model=model, symbol=symbol, t=t, lam=lam,
                                      grid=_adapted_grid(grid, lam, t, m)).grid.L
                      for lam, t in zip(lams, ts)])
        xi = lattice_mesh(box_freqs(grid.M, L), n)
        shifts = _shifts(model, symbol, ts, lams, xi).reshape(len(idxs), -1)
        weights = _derivative_weights(ts, lams, m, index_set)
        rows = xi.reshape(len(idxs), -1, n)[:, keep]
        xi0, vec = _worst_modes(model, rows, shifts[:, keep],
                                sum(_symbol_weights(rows, weights, index_set)))
        fspec = np.empty((len(idxs), data_count) + grid.shape + (N,), dtype=complex)
        fspec[:, 0] = gauss
        _plane_wave_spectra(grid.M, L, xi0, vec, fspec[:, 1])
        band_limited_spectra(grid, N, [np.random.default_rng((seed, i)) for i in idxs],
                             data_count - 2, out=fspec[:, 2:])
        uspec = _solve_spectra(model, shifts, fspec)
        Auspec = model.apply(uspec)
        nf = _lp_lq_norms_from_spectra(fspec, grid, q, template.p)
        ratios = _coercive_ratios(grid, L, q, template.p, uspec, Auspec, nf, weights, index_set)
        rspec = uspec  # the residual (A + lam + P) u_hat - f_hat, in place of u_hat
        rspec *= shifts.reshape((len(idxs), 1) + grid.shape + (1,))
        rspec += Auspec
        rspec -= fspec
        residuals = _lp_lq_norms_from_spectra(rspec, grid, q, 2.0) \
            / (nf if template.p == 2 else _lp_lq_norms_from_spectra(fspec, grid, q, 2.0))
        return [{"ratio": float(r), "residual": float(s)}
                for r, s in zip(ratios.max(axis=1), residuals.max(axis=1))]

    # the worst-mode search may invert (K, N, N)
    return _sweep_report("coercivity", points, kernel, grid.M ** n * N * max(data_count, N),
                         flatness_threshold, max_ratio_threshold)


def _adapted_xi_samples(lam: complex, t: ScaleParams, m: float, n: int,
                        per_axis: int = 33) -> np.ndarray:
    """Signed log-spaced frequencies reaching past the saturation scale: the
    rows along each axis in turn, then (for n > 1) along the diagonal."""
    xi_star = _saturation_frequency(lam, t, m)
    vals = _signed_logspace(math.log10(xi_star) - DECADES_BELOW,
                            math.log10(xi_star) + 1.0, per_axis)
    lines = np.eye(n) if n == 1 else np.vstack([np.eye(n), np.ones(n)])
    return np.where(lines[:, None, :] > 0, vals[:, None], 0.0).reshape(-1, n)


def _frequency_terms(model: OperatorModel, symbol: SymbolSpec, ts, lams, xi: np.ndarray,
                     index_set, defect: bool = False):
    """Per-frequency kernel of the continuum checks at the rows xi[k] (b, S, n)
    of each point k = (lams[k], ts[k]).

    The shifts lam + P_t(xi) are checked (ModeSingular names the first
    singular frequency) and B = (A + shift)^-1 is measured by
    operators.resolvent_norms.  Returns ||A B|| and, if asked for, the defect
    of B per row (b, S), and per alpha of index_set the terms
    t(alpha) |lam|^(1-|alpha|/m) |(i xi)^alpha| ||B|| per row: the norms of
    sigma_alpha, all from one ||B||.
    """
    nB, nAB, defects = resolvent_norms(model, _shifts(model, symbol, ts, lams, xi), defect)
    weights = _derivative_weights(ts, lams, symbol.m, index_set)
    return nAB, defects, [w * nB for w in _symbol_weights(xi, weights, index_set)]


def resolvent_sweep(template: ProblemTemplate, sweep: SectorSweep,
                    per_axis: int = 33, flatness_threshold: float = None,
                    max_ratio_threshold: float = None) -> VerificationReport:
    """Summed resolvent estimate probed with plane waves.

    Per sweep point the sum over derivative orders of
    t(alpha) |lam|^(1-|alpha|/m) ||D^alpha (O_t + lam)^-1|| plus
    ||A (O_t + lam)^-1|| is measured; each term is a Fourier multiplier whose
    action on the plane wave e^{i xi x} v is exact, so the term norms are the
    suprema over sampled frequencies (log-spaced through the saturation
    scale) of the per-frequency matrix norms.  The residual column carries
    the worst per-frequency inversion defect, 0.0 where resolvent_norms forms
    no inverse.  The frequencies of a block of points (_sweep_report) are
    measured as one stack.
    """
    index_set = template.indices()
    model, symbol, n = template.model, template.symbol, template.grid.n
    points = sweep.points()

    def kernel(idxs):
        lams, ts = zip(*(points[i] for i in idxs))
        xi = np.stack([_adapted_xi_samples(lam, t, symbol.m, n, per_axis)
                       for lam, t in zip(lams, ts)])
        nAB, defects, terms = _frequency_terms(model, symbol, ts, lams, xi, index_set,
                                               defect=True)
        ratios = sum(w.max(axis=-1) for w in terms) + nAB.max(axis=-1)
        return [{"ratio": float(r), "residual": float(s)}
                for r, s in zip(ratios, defects.max(axis=-1))]

    rows = per_axis * 2 * (n if n == 1 else n + 1)
    return _sweep_report("resolvent", points, kernel, rows * model.N ** 2, flatness_threshold,
                         max_ratio_threshold)


# ---------------------------------------------------------------------------
# Rademacher machinery


@functools.lru_cache(maxsize=8)  # bounded: the matrix for m = TUPLE_MAX takes 320 MiB
def _sign_patterns(m: int) -> np.ndarray:
    """All 2^m sign patterns as a shared, read-only complex (2^m, m) matrix."""
    if m > TUPLE_MAX:
        raise TooManyForEnumeration(f"2^{m} sign patterns is too many to enumerate")
    bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    signs = (2 * bits - 1).astype(complex)
    signs.flags.writeable = False
    return signs


def _rademacher_terms(Tu: np.ndarray, us: np.ndarray, q: float):
    """Numerator and denominator of the Rademacher ratio of K instances.

    `Tu` (operators applied) and `us` (raw vectors) are slot-major stacks
    (m, K, N).  Each term is the mean over the 2^m sign patterns of the l_q
    norm of the signed sum, taken over the 2^(m-1) patterns whose last sign
    is +1: the other half negates those sums.  A block of instances costs one
    real GEMM per term, the (2^(m-1), m) real signs times the (Re, Im) pairs
    of the (m, K N) stack; at q = 2 the norms are the roots of the summed
    squared parts, at other q vector_norms of the complex view.  Both terms
    come back with shape (K,), each instance's bits independent of the batch.
    The instances run in blocks (spaces.blocks) of 2^(m-1) N signed-sum
    entries each.
    """
    m, K, N = us.shape
    signs = _sign_patterns(m)
    signs = np.ascontiguousarray(signs[len(signs) // 2:].real)

    def term(pairs):  # pairs: (m, k, 2 N) floats of a block
        sums = signs @ pairs.reshape(m, -1)  # one BLAS call; never mixes instances
        if q == 2:  # einsum: a sum over this short axis costs numpy a loop call per entry
            parts = sums.reshape(len(signs), -1, 2 * N)
            norms = np.sqrt(np.einsum("pki,pki->pk", parts, parts))
        else:
            norms = vector_norms(sums.view(complex).reshape(len(signs), -1, N), q)
        # a contiguous row per instance: numpy sums a strided axis in another order
        # when a block holds one instance than when it holds more
        return np.ascontiguousarray(norms.T).mean(axis=-1)

    stacks = [np.ascontiguousarray(v).view(np.float64) for v in (Tu, us)]
    parts = [[term(v[:, b]) for v in stacks] for b in blocks(K, len(signs) * N)]
    return tuple(np.concatenate(terms) for terms in zip(*parts))


def _norm_grad(v: np.ndarray, nv: np.ndarray, q: float, pick=None) -> np.ndarray:
    """Gradient, as Re + i Im, of the l_q norm at each row of v (norms nv):
    g(v) = |v|^(q-2) v / ||v||^(q-1), v/|v| at q = 1, the unit phase at the
    first argmax (or at entry pick) at q = inf, and 0 where v vanishes."""
    a = np.abs(v)
    phase = np.divide(v, a, out=np.zeros_like(v), where=a > 0)
    if q == np.inf:
        pick = a.argmax(axis=-1) if pick is None else pick
        return phase * (np.arange(a.shape[-1]) == pick[..., None])
    nv = nv[..., None]
    return np.divide(a, nv, out=np.zeros_like(a), where=nv > 0) ** (q - 1) * phase


def _ratio_and_grad(stack: np.ndarray, signs: np.ndarray, q: float, x: np.ndarray,
                    pick: np.ndarray = None):
    """Rademacher ratio R = num / den of the stack (m, N, N) at probe vectors
    given as stacked real coordinates x (..., 2 m N), 0 at u = 0, and its
    gradient in x; `signs` is the (P, m) matrix of sign patterns.  A stack
    (..., m, N, N) gives each probe row its own tuple.

    With S_p = sum_j eps_pj T_j u_j and s_p = sum_j eps_pj u_j, the slot-j
    gradients are T_j^H mean_p eps_pj g(S_p) for num and mean_p eps_pj g(s_p)
    for den (g of _norm_grad), and grad R = (grad num - R grad den) / den.
    At q = inf, pick (..., P) names the entry of each s_p whose phase is the
    gradient of ||s_p||, so that across a tie it stays that of one piece.
    """
    vecs = x.reshape(x.shape[:-1] + (stack.shape[-3], 2, stack.shape[-1]))
    us = vecs[..., 0, :] + 1j * vecs[..., 1, :]
    # einsum, not @: a BLAS product with 2^m rows spins up threads at every call
    S = np.einsum("pj,...jn->...pn", signs, (stack @ us[..., None])[..., 0])
    s = np.einsum("pj,...jn->...pn", signs, us)
    nS, ns = vector_norms(S, q), vector_norms(s, q)
    num, den = nS.mean(axis=-1), ns.mean(axis=-1)
    den = np.where(den > 0, den, np.inf)  # den = 0 only at u = 0: R = 0, gradient 0
    R = num / den
    weights = signs / len(signs)
    gnum = np.einsum("pj,...pn->...jn", weights, _norm_grad(S, nS, q))
    gden = np.einsum("pj,...pn->...jn", weights, _norm_grad(s, ns, q, pick))
    grad = ((stack.conj().swapaxes(-1, -2) @ gnum[..., None])[..., 0]
            - R[..., None, None] * gden) / den[..., None, None]
    return R, np.stack([grad.real, grad.imag], axis=-2).reshape(x.shape)


def _climb(fun, x: np.ndarray, tol: float, proj: np.ndarray):
    """Batched BFGS ascent from the rows of x (S, D), each on the range of
    its projector in proj (S, D, D): (values, points).

    fun(points, rows) gives values and ascent gradients at points standing for
    those rows of x.  Each row has its own dense inverse Hessian and weak
    Wolfe line search (a rise of at least ARMIJO of the predicted one, a slope
    fallen to WOLFE of its start), and stops once its step, or any step its
    line search could still try, rises by at most tol relatively.
    """
    def project(v, rows):
        return (proj[rows] @ v[..., None])[..., 0]

    live = np.arange(len(x))
    x = project(x, live)
    f, g = fun(x, live)
    g = project(g, live)
    H, fresh = np.array(proj), np.ones(len(x), dtype=bool)
    for _ in range(MAX_STEPS):
        d = (H[live] @ g[live, :, None])[..., 0]
        slope = np.einsum("sd,sd->s", g[live], d)
        lo, hi, t = np.zeros(len(live)), np.full(len(live), np.inf), np.ones(len(live))
        new_f, new_g = f[live], g[live]
        todo = np.flatnonzero(slope > 0)
        for _ in range(MAX_STEPS):
            if not len(todo):
                break
            rows = live[todo]
            ft, gt = fun(x[rows] + t[todo, None] * d[todo], rows)
            gt = project(gt, rows)
            rise = ft > f[rows] + ARMIJO * t[todo] * slope[todo]
            far = rise & (np.einsum("sd,sd->s", gt, d[todo]) <= WOLFE * slope[todo])
            up, down = todo[rise], todo[~rise]
            new_f[up], new_g[up], lo[up], hi[down] = ft[rise], gt[rise], t[up], t[down]
            todo = todo[~far & ((hi[todo] - lo[todo]) * slope[todo] > tol * np.abs(f[rows]))]
            # double until a step is too long, cut by 10 until one rises, then bisect
            lo_t, hi_t = lo[todo], hi[todo]
            t[todo] = np.where(np.isinf(hi_t), 2 * lo_t,
                               np.where(lo_t > 0, (lo_t + hi_t) / 2, hi_t / 10))
        moved = lo > 0
        rows, s, y = live[moved], lo[moved, None] * d[moved], g[live[moved]] - new_g[moved]
        done = np.ones(len(live), dtype=bool)
        done[moved] = new_f[moved] - f[rows] <= tol * np.abs(new_f[moved])
        x[rows] += s
        f[rows], g[rows] = new_f[moved], new_g[moved]
        live = live[~done]
        if not len(live):
            break
        # the inverse BFGS update for -f where the curvature s.y is positive,
        # the first one scaled by s.y / y.y (Shanno and Phua)
        sy = np.einsum("sd,sd->s", s, y)
        ok = sy > 1e-12 * np.linalg.norm(s, axis=-1) * np.linalg.norm(y, axis=-1)
        rows, s, y, sy = rows[ok], s[ok], y[ok], sy[ok]
        H[rows] *= np.where(fresh[rows], sy / np.einsum("sd,sd->s", y, y), 1.0)[:, None, None]
        fresh[rows], sy = False, sy[:, None, None]
        Hy, ss = (H[rows] @ y[..., None])[..., 0], s[:, :, None] * s[:, None, :]
        H[rows] += (sy + np.einsum("sd,sd->s", y, Hy)[:, None, None]) / sy**2 * ss \
            - (Hy[:, :, None] * s[:, None, :] + s[:, :, None] * Hy[:, None, :]) / sy
    return f, x


def _kinks(signs: np.ndarray, x: np.ndarray, q: float, N: int):
    """Projectors (S, D, D) onto the points where the denominator's kinks
    near each row of x (S, 2 m N) hold exactly and, at q = inf, the largest
    entry of each s_p (S, P).

    A kink is a real-linear condition on a signed sum: s_p = 0 where ||s_p||
    is below CUSP of the largest (at q = 1 entry by entry: s_pn = 0 where
    |s_pn| is); at q = inf, for each entry n within CUSP of the largest b,
    the tie |s_pn| = |s_pb| linearized at x as Re(conj(e_n) s_pn) =
    Re(conj(e_b) s_pb), e the phases at x, which holds to first order since
    |s_pn| is homogeneous of degree 1.
    """
    S, m = len(x), signs.shape[1]
    u = x.reshape(S, m, 2, N)
    sums = np.einsum("pj,sjn->spn", signs.real, u[:, :, 0] + 1j * u[:, :, 1])
    a = np.abs(sums)
    size = a if q == 1 else np.broadcast_to(vector_norms(sums, q)[..., None], a.shape)
    small = size < CUSP * size.max(axis=(1, 2), keepdims=True)
    eye = np.eye(N)
    w = [small[..., None] * eye, 1j * small[..., None] * eye]   # weights w of Re(conj(w) s_p)
    pick = a.argmax(axis=-1) if q == np.inf else None
    if q == np.inf:
        phase = np.divide(sums, a, out=np.zeros_like(sums), where=a > 0)
        tied = (a >= (1 - CUSP) * a.max(axis=-1, keepdims=True)) & ~small \
            & (np.arange(N) != pick[..., None])
        lead = (np.take_along_axis(phase, pick[..., None], -1) * eye[pick])[..., None, :]
        w.append(tied[..., None] * (phase[..., None] * eye - lead))
    # a condition's row is eps_p (x) (Re w, Im w): its Gram matrix sums, over the
    # patterns p, eps_p eps_p^T (x) the Gram matrix of the pattern's (Re w, Im w)
    w = np.concatenate(w, axis=2)
    w = np.concatenate([w.real, w.imag], axis=-1)                           # (S, P, K, 2 N)
    outer = (signs.real[:, :, None] * signs.real[:, None, :]).reshape(len(signs), -1)
    gram = outer.T @ (w.swapaxes(-1, -2) @ w).reshape(S, len(signs), -1)
    gram = gram.reshape(S, m, m, 2 * N, 2 * N).transpose(0, 1, 3, 2, 4).reshape(S, 2 * m * N, -1)
    return np.eye(2 * m * N) - np.linalg.pinv(gram, rcond=1e-12) @ gram, pick


def _search(stacks: np.ndarray, q: float, starts: np.ndarray, cloud: np.ndarray,
            keep: int) -> np.ndarray:
    """Largest Rademacher ratio of each tuple of stacks (T, m, N, N) that
    batched BFGS reaches from its starts (T, s, 2 m N) and from the `keep`
    points of the shared cloud (C, 2 m N) it scores best; never below its
    best cloud point.

    The ratio has kinks where its denominator does: where a signed sum s_p
    vanishes, at q = 1 where an entry s_pn does, at q = inf where the largest
    entries of s_p tie.  Its maxima often lie on them, where BFGS crawls.  So
    all starts climb at once to ROUGH_TOL; then, for up to CUSP_ROUNDS
    rounds, each start's kinks (_kinks) are made exact on a subspace fitted
    at its point, on which it climbs to STEP_TOL, until a round no longer
    raises it.  At q = inf the gradient takes the largest entry of each s_p
    as frozen at the round's start, that of one smooth piece across a tie,
    while a step is still accepted only if the true ratio rises.  Each row
    reads only its own tuple, and no step of _climb or _kinks mixes rows, so
    a tuple's score is the one it reaches when searched alone.
    """
    T, m, N = stacks.shape[:2] + stacks.shape[-1:]
    signs = _sign_patterns(m)[2 ** (m - 1):]  # the other half: s_p of -eps_p is -s_p

    def fun(own, x, rows, pick=None):
        return _ratio_and_grad(stacks[own[rows]], signs, q, x,
                               None if pick is None else pick[rows])

    # every tuple at every cloud point, in blocks of P N signed-sum entries per point
    own, at = np.divmod(np.arange(T * len(cloud)), len(cloud))
    vals = np.concatenate([_ratio_and_grad(stacks[own[b]], signs, q, cloud[at[b]])[0]
                           for b in blocks(len(own), len(signs) * N)]).reshape(T, -1)
    best = cloud[np.argsort(-vals, axis=-1, kind="stable")[:, :keep]]
    x = np.concatenate([starts, best], axis=1).reshape(-1, cloud.shape[-1])
    own = np.repeat(np.arange(T), len(x) // T)
    f, x = _climb(functools.partial(fun, own), x, ROUGH_TOL,
                  np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:]))
    live = np.arange(len(x))
    for _ in range(CUSP_ROUNDS):
        proj, pick = _kinks(signs, x[live], q, N)
        fine, y = _climb(functools.partial(fun, own[live], pick=pick), x[live], STEP_TOL, proj)
        rose = fine > (1 + STEP_TOL) * f[live]
        live = live[rose]
        x[live], f[live] = y[rose], fine[rose]
        if not len(live):
            break
    return np.maximum(vals.max(axis=-1), f.reshape(T, -1).max(axis=-1))


def _maximize_tuples(stacks, q: float, seed: int) -> list:
    """Best Rademacher ratio over probe vectors of each operator tuple of a
    list of stacks (m, N, N) of one N, in list order.

    Tuples of one size m climb together (_search) from starts drawn for
    (seed, m, N): each slot's leading right singular vector, RESTARTS random
    points and the 8 best of 64 random ones, in blocks (spaces.blocks) that
    hold as many tuples as fit, one at the least.  A score depends only on
    (stack, q, seed), never on the other tuples, so enlarging a family can
    only enlarge the estimate.
    """
    scores, keep = np.empty(len(stacks)), 8
    sizes = np.array([len(stack) for stack in stacks])
    for m in dict.fromkeys(sizes.tolist()):
        group = np.flatnonzero(sizes == m)
        tuples = np.stack([stacks[i] for i in group])
        N = tuples.shape[-1]
        rng = np.random.default_rng(seed)
        restarts = rng.standard_normal((RESTARTS, m * 2 * N))
        cloud = rng.standard_normal((64, m * 2 * N))
        v = np.linalg.svd(tuples)[2][..., 0, :].conj()
        starts = np.concatenate([np.stack([v.real, v.imag], axis=-2).reshape(len(group), 1, -1),
                                 np.broadcast_to(restarts, (len(group),) + restarts.shape)],
                                axis=1)
        # per start, the largest arrays are the kink weights (P, 3 N, 2 N) and the (D, D) ones
        per_start = max(2 ** (m - 1) * N * N, (2 * m * N) ** 2)
        for b in blocks(len(group), (starts.shape[1] + keep) * per_start):
            scores[group[b]] = _search(tuples[b], q, starts[b], cloud, keep)
    return scores.tolist()


def probe_norm(T, q: float = 2.0, seed: int = 1234) -> float:
    """Probe-maximized l_q -> l_q operator norm: the one-member Rademacher
    ratio, since mean(||+-T u||) = ||T u||, searched from a random cloud."""
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    cloud = np.random.default_rng(seed).standard_normal((PROBE_CLOUD, 2 * T.shape[1]))
    return float(_search(T[None, None], q, np.empty((1, 0, cloud.shape[1])), cloud, keep=4)[0])


@dataclass
class RBoundEstimate:
    """Certified lower bound on the R-bound of a finite operator family."""

    value: float
    tuple_indices: tuple
    tuples_tried: int
    upper: float = None       # sqrt(2) max_j ||T_j||_2 at q = 2, else None


def _mixed_tuples(k: int, size: int, budget: int) -> list:
    """The first `budget` unordered size-tuples of range(k) in (largest index, lex) order."""
    return list(islice((rest + (last,) for last in range(k) for rest in
                        combinations_with_replacement(range(last + 1), size - 1)), budget))


def estimate_rbound(family, q: float = 2.0, tuple_size: int = 3, seed: int = 0) -> RBoundEstimate:
    """Maximize the Rademacher ratio over operator tuples drawn from the family.

    The result is a lower bound on the family R-bound.  The candidate set is
    deterministic and inclusion-monotone: every singleton and every constant
    tuple, plus the first RBOUND_BUDGET unordered tuples in (largest member
    index, lex) order.  Appending members to the family therefore only grows
    the candidate set, and since each tuple is scored independently of the
    family, the estimate never decreases under family inclusion.

    At q in {1, 2, inf} a singleton or constant tuple scores the exact norm
    ||T_j||_q without a search.  At q = 2 every tuple ratio lies below
    sqrt(2) max_j ||T_j||_2 (Khintchine-Kahane with the constant sqrt(2)),
    reported as `upper`.
    """
    k = len(family)
    if k == 0:
        raise ValueError("family must be non-empty")
    members = np.stack([np.atleast_2d(np.asarray(T, dtype=complex)) for T in family])
    if not np.all(np.isfinite(members)):
        raise ValueError("non-finite member in an operator family")
    norms = operator_norm_upper(members, q)
    candidates = [(j,) for j in range(k)]
    candidates += [(j,) * tuple_size for j in range(k)]
    candidates += _mixed_tuples(k, tuple_size, RBOUND_BUDGET)
    tried = {}
    for tup in candidates:
        tried.setdefault(tuple(sorted(tup)), tup)  # the ratio is invariant under reordering
    searched = [tup for tup in tried.values() if q not in (1, 2, np.inf) or len(set(tup)) > 1]
    stacks = [members[list(tup)] for tup in searched]
    scores = dict(zip(searched, _maximize_tuples(stacks, q, seed))) if searched else {}
    best_val, best_tup = 0.0, (0,)
    for tup in tried.values():
        val = scores[tup] if tup in scores else float(norms[tup[0]])
        if val > best_val:
            best_val, best_tup = val, tup
    upper = math.sqrt(2.0) * float(norms.max()) if q == 2 else None
    return RBoundEstimate(value=best_val, tuple_indices=best_tup, tuples_tried=len(tried),
                          upper=upper)


@dataclass
class KahaneResult:
    constant: float           # measured num / den
    scale: float              # max |a_j|
    complex_scalars: bool
    verdict: bool


def kahane_contraction_check(scalars, vectors, q: float = 2.0) -> KahaneResult:
    """Measure the scalar-contraction constant by full sign enumeration.

    Real scalars of modulus <= s inflate the average by at most s; complex
    scalars by at most 2s.
    """
    checks = _kahane_checks([scalars], [[np.atleast_1d(u) for u in vectors]], q)
    return KahaneResult(*(a[0].item() for a in checks))


def _kahane_checks(scalars, vectors, q: float) -> tuple:
    """kahane_contraction_check of K instances in one batch, scalars (K, m)
    and vectors (K, m, N): the arrays (K,) of constants, scales, complex
    flags and verdicts.  Vectors that are a (K, m, N) view of slot-major
    storage, (m, K, N) in memory, are not copied."""
    scalars = np.asarray(scalars, dtype=complex)
    if scalars.shape[-1] == 0:
        raise ValueError("the scalar list is empty: a kahane check needs at least one scalar")
    if scalars.shape[-1] > KAHANE_MAX:
        raise TooManyForEnumeration(f"kahane check enumerates at most 2^{KAHANE_MAX} patterns")
    us = np.asarray(vectors, dtype=complex)
    if us.shape[:-1] != scalars.shape:
        raise ValueError("need one vector per scalar")
    us = np.ascontiguousarray(us.transpose(1, 0, 2))
    num, den = _rademacher_terms(np.ascontiguousarray(scalars.T)[:, :, None] * us, us, q)
    constants = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    scales = np.hypot(scalars.real, scalars.imag).max(axis=-1)  # as abs(complex(a))
    is_complex = (np.abs(scalars.imag) > 0).any(axis=-1)
    verdicts = constants <= np.where(is_complex, 2.0, 1.0) * scales + 1e-12
    return constants, scales, is_complex, verdicts


# ---------------------------------------------------------------------------
# multiplier families


def sigma_matrix(model, symbol, t, lam, xi) -> np.ndarray:
    """A [A + lam + P_t(xi)]^-1 at one frequency xi (n,); a stack over the rows
    of a 2-D xi, or over the points of a block: t the sequence of their scale
    parameters and lam the array of their spectral parameters; a singular
    shift raises ModeSingular naming its frequency (elliptic._shifts)."""
    return channel_matrices(model, channels(model, _shifts(model, symbol, t, lam, xi), 1))


def fd_sigma(model, symbol, t, lam, xi, beta) -> np.ndarray:
    """The Mikhlin term |xi|^k D^beta sigma, k = |beta|, in channel form
    (operators.channel_matrices gives the matrices); a stack over the rows of
    a 2-D xi, or over the points of a block.  Every mixed derivative of the
    symbol vanishes, so the chain rule gives
    D^beta sigma = (-1)^k k! prod_{beta_j = 1} D_j P  A B^(k+1)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    k = sum(beta)
    total = channels(model, _shifts(model, symbol, t, lam, xi), 1, k + 1)
    scale = (-1) ** k * math.factorial(k) * np.linalg.norm(xi, axis=-1) ** k
    for axis in np.flatnonzero(beta):
        scale = scale * symbol_derivative(symbol, t, xi, np.eye(len(beta), dtype=int)[axis])
    return scale.reshape(scale.shape + (1,) * (total.ndim - scale.ndim)) * total


def multiplier_family_check(model: OperatorModel, symbol: SymbolSpec, sweep: SectorSweep,
                            xi_samples=None, dims: int = 1,
                            rbound_subsample: int = 8, tuple_size: int = 3,
                            seed: int = 0, flatness_threshold: float = None,
                            sigma_sup_threshold: float = None) -> VerificationReport:
    """Sup norms of the multiplier families over the sweep, plus R-bound
    lower estimates for each family from a subsample of its members.

    When xi_samples is None the frequencies are re-sampled per sweep point,
    log-spaced through the saturation scale (|lam| / t_k)^(1/m).  The
    families are sigma_alpha for every positive order of the coercive index
    set, and the Mikhlin terms of sigma (fd_sigma) for every beta in {0,1}^n
    but 0.  The frequencies of a block of points (_sweep_report) are
    evaluated as one stack."""
    fixed = None if xi_samples is None else np.atleast_2d(np.asarray(xi_samples, dtype=float))
    n = dims if fixed is None else fixed.shape[1]
    index_set = [a for a in coercive_index_set(n, symbol.m) if a.order > 0]
    betas = [b for b in np.ndindex(*([2] * n)) if sum(b) > 0]
    points = sweep.points()
    keys = [str(tuple(a.components)) for a in index_set]

    def samples_at(lam, t):
        return fixed if fixed is not None else _adapted_xi_samples(lam, t, symbol.m, n, 17)

    def kernel(idxs):
        lams, ts = zip(*(points[i] for i in idxs))
        xi = np.stack([samples_at(lam, t) for lam, t in zip(lams, ts)])
        nAB, _, terms = _frequency_terms(model, symbol, ts, lams, xi, index_set)
        fd = [channel_norms(model, fd_sigma(model, symbol, ts, lams, xi, b)) for b in betas]
        return [{"ratio": float(nAB[k].max()), "residual": 0.0,
                 "fd_sup": {str(b): float(v[k].max()) for b, v in zip(betas, fd)},
                 "sigma_alpha": {key: float(w[k].max()) for key, w in zip(keys, terms)}}
                for k in range(len(idxs))]

    rows = len(fixed) if fixed is not None else 2 * 17 * (n if n == 1 else n + 1)
    report = _sweep_report("multipliers", points, kernel, rows * model.N ** 2,
                           flatness_threshold, sigma_sup_threshold)
    records, details = report.points, report.details

    # R-bound lower estimate for the sigma family, subsampled across the sweep
    rng = np.random.default_rng(seed)
    family = []
    ok_points = [(lam, t) for (lam, t), rec in zip(points, records) if rec["error"] is None]
    picks = rng.choice(len(ok_points), size=min(rbound_subsample, len(ok_points)), replace=False)
    for pi in sorted(picks):
        lam, t = ok_points[pi]
        samples = samples_at(lam, t)
        xi = samples[int(rng.integers(0, len(samples)))]
        family.append(sigma_matrix(model, symbol, t, lam, xi))
    if family:
        est = estimate_rbound(family, q=model.q, tuple_size=tuple_size, seed=seed)
        details["sigma_rbound_lower"] = est.value
        details["sigma_rbound_tuple"] = list(est.tuple_indices)
    # aggregate per-family suprema
    ok = [r for r in records if r["error"] is None]
    if ok:
        stats = {k: _flatness([r["sigma_alpha"][k] for r in ok]) for k in keys}
        details["sigma_sup"] = max(r["ratio"] for r in ok)
        details["sigma_alpha_sup"] = {k: top for k, (top, _, _) in stats.items()}
        details["sigma_alpha_flatness"] = {k: flat for k, (_, _, flat) in stats.items()}
        details["fd_sup"] = {str(b): max(r["fd_sup"][str(b)] for r in ok) for b in betas}
    return report


def lambda_resolvent_family(model: OperatorModel, lambdas) -> np.ndarray:
    """The family {lam (A + lam)^-1} sampled at the given spectral parameters,
    a (len, N, N) stack."""
    lams = np.asarray(lambdas, dtype=complex).reshape(-1)
    return lams[:, None, None] * resolvent(model, lams)
