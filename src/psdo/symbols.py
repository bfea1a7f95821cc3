"""Parameter-dependent symbol families and the fractional-frequency multiplier.

The central object is the scalar symbol P_t(xi), a positive-order function of
the frequency vector xi weighted by per-axis scale parameters t_k.  The
module also provides the branch of (i*xi)^alpha used to define fractional
derivatives in frequency space, the closed-form derivatives D^beta P_t, the
symbol-class checker built on them, and the sector sum constant
|lam + nu| >= C (|lam| + |nu|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AngleSumTooLarge, NonFiniteDerivative, OutOfTable

SYMBOL_KINDS = ("power", "rotated-power", "smoothed-power", "user-table")


@dataclass(frozen=True)
class MultiIndex:
    """Nonnegative real multi-index alpha = (alpha_1, ..., alpha_n)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        if not all(0 <= c < math.inf for c in comps):
            raise ValueError(f"multi-index components must be finite and >= 0, got {comps}")
        object.__setattr__(self, "components", comps)

    @property
    def order(self) -> float:
        return float(sum(self.components))

    @property
    def n(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


@dataclass(frozen=True)
class Sector:
    """Closed sector S_phi = {z : |arg z| <= phi} plus the origin."""

    angle: float

    def __post_init__(self):
        if not 0.0 <= self.angle < math.pi:
            raise ValueError(f"sector angle must lie in [0, pi), got {self.angle}")

    def contains(self, z, tol: float = 1e-12):
        """Whether z lies in the sector; elementwise for an array of values."""
        z = np.asarray(z, dtype=complex)
        return (np.abs(z) <= tol) | (np.abs(np.angle(z)) <= self.angle + tol)


@dataclass(frozen=True)
class ScaleParams:
    """Positive, finite per-axis scale parameters t = (t_1, ..., t_n)."""

    t: tuple

    def __post_init__(self):
        t = tuple(float(v) for v in self.t)
        if not all(0 < v < math.inf for v in t):  # NaN fails too
            raise ValueError(f"scale parameters must be positive and finite, got {t}")
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return len(self.t)

    def weight(self, alpha: MultiIndex, m: float) -> float:
        """Anisotropic weight t(alpha) = prod_k t_k^(alpha_k / m)."""
        return float(math.prod(tk ** (ak / m) for tk, ak in zip(self.t, alpha)))

    @classmethod
    def isotropic(cls, value: float, n: int) -> "ScaleParams":
        return cls((value,) * n)


@dataclass(frozen=True)
class SymbolSpec:
    """A parametric symbol family.

    kind:
      power           sum_k t_k |xi_k|^m        (nonnegative real, angle 0)
      rotated-power   e^{i theta0} * power      (|theta0| <= phi1)
      smoothed-power  sum_k t_k (eps^2 + xi_k^2)^(m/2)
      user-table      1-D table (xi_points, values), linear interpolation
    """

    kind: str
    m: float
    phi1: float = None  # the sector angle; |theta0| when not given
    theta0: float = 0.0
    epsilon: float = 0.0
    gamma: float = 1.0
    table: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.phi1 is None:
            object.__setattr__(self, "phi1", abs(self.theta0))
        if self.kind not in SYMBOL_KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not self.m > 0:
            raise ValueError("order m must be positive")
        if not 0.0 <= self.phi1 < math.pi:
            raise ValueError("phi1 must lie in [0, pi)")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.kind == "rotated-power" and abs(self.theta0) > self.phi1 + 1e-15:
            raise ValueError("rotated-power requires |theta0| <= phi1")
        # np.interp would silently misread unsorted points
        if self.kind == "user-table" and (self.table is None or np.ndim(self.table[0]) != 1
                                          or np.shape(self.table[1]) != np.shape(self.table[0])
                                          or not np.all(np.diff(self.table[0]) > 0)):
            raise ValueError("user-table kind requires a table of strictly increasing points "
                             "with one value each")


def power_symbol(m: float = 2.0, gamma: float = 1.0) -> SymbolSpec:
    return SymbolSpec(kind="power", m=m, gamma=gamma)


def rotated_power_symbol(m: float, theta0: float, gamma: float = 1.0) -> SymbolSpec:
    return SymbolSpec(kind="rotated-power", m=m, theta0=theta0, gamma=gamma)


def smoothed_power_symbol(m: float, epsilon: float, gamma: float = 1.0) -> SymbolSpec:
    return SymbolSpec(kind="smoothed-power", m=m, epsilon=epsilon, gamma=gamma)


def i_xi_power_factor(xi, alpha_k: float):
    """One axis factor (i*xi_k)^alpha_k = exp[alpha_k (ln|xi_k| + i pi sgn(xi_k)/2)].

    Vectorized over xi.  Returns 1 for alpha_k = 0, and 0 where xi vanishes
    with alpha_k > 0 (the factor-wise zero convention).
    """
    xi = np.asarray(xi, dtype=float)
    if alpha_k == 0:
        return np.ones_like(xi, dtype=complex)
    out = np.zeros(xi.shape, dtype=complex)
    nz = xi != 0
    out[nz] = np.exp(
        alpha_k * (np.log(np.abs(xi[nz])) + 1j * (np.pi / 2.0) * np.sign(xi[nz]))
    )
    return out


def i_xi_power(xi, alpha):
    """(i*xi)^alpha = prod_k (i*xi_k)^alpha_k with the logarithmic branch.

    xi carries the n coordinates along its first axis: a frequency vector (n,),
    the transpose (n, S) of S frequency rows, or n arrays that broadcast
    against each other, such as an open lattice mesh.  alpha is a MultiIndex
    or a sequence of n orders.  The factors of i_xi_power_factor are
    multiplied in axis order into the broadcast shape of the coordinates (0-d
    for one vector); a vanishing coordinate with positive order makes the
    product zero, and alpha = 0 gives 1 at every point.
    """
    orders = tuple(alpha)
    if len(xi) != len(orders):
        raise ValueError("xi and alpha must have the same length")
    out = np.ones((), dtype=complex)
    for xk, ak in zip(xi, orders):
        out = out * i_xi_power_factor(xk, float(ak))
    return out


def _rows_and_scales(spec: SymbolSpec, t, xi):
    """xi as float rows (..., n) and the scales t_k broadcast against them, as
    eval_symbol takes them; a user table is 1-D and holds every xi (OutOfTable)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        xi = xi.reshape(1)
    tvec = np.asarray(t.t) if isinstance(t, ScaleParams) else \
        np.array([s.t for s in t]).reshape((len(t),) + (1,) * (xi.ndim - 2) + (-1,))
    if xi.shape[-1] != tvec.shape[-1]:
        raise ValueError(f"frequency dimension {xi.shape[-1]} != len(t) = {tvec.shape[-1]}")
    if spec.kind == "user-table":
        if tvec.shape[-1] != 1:
            raise ValueError("user-table symbols are one-dimensional")
        lo, hi = float(spec.table[0][0]), float(spec.table[0][-1])
        if np.any(xi < lo) or np.any(xi > hi):
            raise OutOfTable(f"frequency outside tabulated range [{lo}, {hi}]")
    return xi, tvec


def eval_symbol(spec: SymbolSpec, t, xi):
    """P_t(xi) at the rows xi (..., n), broadcast over leading axes; t is one
    ScaleParams, or a sequence of them with one per entry of the first axis
    of xi (the points of a sweep block, each with its own rows)."""
    xi, tvec = _rows_and_scales(spec, t, xi)
    if spec.kind in ("power", "rotated-power"):
        vals = np.sum(tvec * np.abs(xi) ** spec.m, axis=-1)
        if spec.kind == "rotated-power":
            vals = np.exp(1j * spec.theta0) * vals
    elif spec.kind == "smoothed-power":
        vals = np.sum(tvec * (spec.epsilon**2 + xi**2) ** (spec.m / 2.0), axis=-1)
    else:  # user-table: linear interpolation
        x, pts, values = xi[..., 0], np.asarray(spec.table[0], dtype=float), spec.table[1]
        vals = np.interp(x, pts, np.real(values)) + 1j * np.interp(x, pts, np.imag(values))
    return vals if vals.ndim else complex(vals)


def symbol_derivative(spec: SymbolSpec, t, xi, beta):
    """D^beta P_t(xi) in closed form, beta in {0,1}^n; t and xi as in eval_symbol.

    beta = 0 is P itself.  One axis k is dP/dxi_k:
      power           t_k m sgn(xi_k) |xi_k|^(m-1)
      rotated-power   e^{i theta0} times the power value
      smoothed-power  t_k m xi_k (eps^2 + xi_k^2)^(m/2-1)
      user-table      the slope of the segment holding xi; at a knot the
                      segment to its right, at the last knot the last one
    The first three read the symmetric value 0 at xi_k = 0, so m < 1 and
    eps = 0 give no 0 * inf.  Two or more axes give 0: each symbol is a sum
    over axes, so every mixed derivative vanishes.
    """
    xi, tvec = _rows_and_scales(spec, t, xi)
    if len(beta) != xi.shape[-1]:
        raise ValueError(f"beta {tuple(beta)} does not match the frequency dimension")
    if sum(beta) != 1:
        return eval_symbol(spec, t, xi) if sum(beta) == 0 else np.zeros(xi.shape[:-1])
    k = list(beta).index(1)
    x = xi[..., k]
    if spec.kind == "user-table":
        pts, values = np.asarray(spec.table[0], dtype=float), np.asarray(spec.table[1])
        j = np.clip(np.searchsorted(pts, x, side="right") - 1, 0, len(pts) - 2)
        d = (values[j + 1] - values[j]) / (pts[j + 1] - pts[j])
    elif spec.kind == "smoothed-power":
        d = tvec[..., k] * spec.m * x * np.where(x != 0, spec.epsilon**2 + x**2, 1.0) \
            ** (spec.m / 2.0 - 1.0)
    else:
        d = tvec[..., k] * spec.m * np.sign(x) * np.where(x != 0, np.abs(x), 1.0) \
            ** (spec.m - 1.0)
        if spec.kind == "rotated-power":
            d = np.exp(1j * spec.theta0) * d
    return d if d.ndim else complex(d)


@dataclass
class SymbolClassReport:
    """Outcome of the symbol-class check for one spec over sampled (t, xi)."""

    constants: dict          # beta tuple -> smallest admissible C_beta
    sector_ok: bool
    lower_margin: float      # min |P| / (gamma * sum t_k |xi_k|^m)
    samples: int

    @property
    def verdict(self) -> bool:
        finite = all(np.isfinite(c) for c in self.constants.values())
        return finite and self.sector_ok and self.lower_margin >= 1.0 - 1e-9


def _signed_logspace(start: float, stop: float, num: int) -> np.ndarray:
    """-10^stop .. -10^start, 10^start .. 10^stop: num log-spaced magnitudes per sign."""
    mags = np.logspace(start, stop, num)
    return np.concatenate([-mags[::-1], mags])


def check_symbol_class(spec: SymbolSpec, t_grid, xi_grid) -> SymbolClassReport:
    """The symbol-class constants C_beta from the closed-form symbol_derivative.

    For each derivative order beta in {0,1}^n the bound reads
    |D^beta P_t(xi)| <= C_beta [1 + (sum_k t_k^(2/(m-|beta|)) xi_k^2)^(1/2)]^(m-|beta|);
    the report carries the smallest C_beta valid over every sampled (t, xi),
    sector membership of every value, and the lower-bound margin against
    gamma * sum_k t_k |xi_k|^m.  Each t takes all xi rows at once, and every
    row counts for every beta; a D^beta P that is not finite, P itself
    included, raises NonFiniteDerivative."""
    xi_grid = np.atleast_2d(np.asarray(xi_grid, dtype=float))
    n = xi_grid.shape[1]
    betas = list(np.ndindex(*([2] * n)))
    sector = Sector(spec.phi1)

    constants = {b: 0.0 for b in betas}
    sector_ok = True
    margin = np.inf
    for t in t_grid:
        tvec = np.asarray(t.t)
        vals = np.asarray(eval_symbol(spec, t, xi_grid), dtype=complex)
        sector_ok = sector_ok and bool(sector.contains(vals, tol=1e-9).all())
        denom = spec.gamma * np.sum(tvec * np.abs(xi_grid) ** spec.m, axis=-1)
        if np.any(denom > 0):
            margin = min(margin, float((np.abs(vals[denom > 0]) / denom[denom > 0]).min()))
        for beta in betas:
            d = vals if sum(beta) == 0 else np.asarray(symbol_derivative(spec, t, xi_grid, beta))
            if not np.all(np.isfinite(d)):
                raise NonFiniteDerivative(f"derivative D^{beta} diverged at "
                                          f"xi={xi_grid[~np.isfinite(d)][0]}, t={t.t}")
            e = spec.m - sum(beta)
            bracket = (1.0 + np.sqrt(np.sum(tvec ** (2.0 / e) * xi_grid**2, axis=-1))) ** e \
                if e > 0 else 1.0
            constants[beta] = max(constants[beta],
                                  float((np.abs(d) / bracket).max(initial=0.0)))
    if not np.isfinite(margin):
        margin = 1.0  # no sample had a nonzero lower bound to compare against
    return SymbolClassReport(constants=constants, sector_ok=sector_ok,
                             lower_margin=float(margin), samples=len(t_grid) * len(xi_grid))


def sector_sum_constant(phi1: float, phi2: float) -> float:
    """The largest C with |lam + nu| >= C (|lam| + |nu|) for lam in S_phi1 and
    nu in S_phi2: cos((phi1 + phi2) / 2), the value of the ratio at equal
    moduli on the extreme opposing rays.  Requires phi1 + phi2 < pi."""
    if phi1 + phi2 >= math.pi:
        raise AngleSumTooLarge(f"phi1 + phi2 = {phi1 + phi2} >= pi")
    return math.cos((phi1 + phi2) / 2.0)
