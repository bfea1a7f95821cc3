"""Periodized grids, vector-valued sampled fields, transforms and norms.

Continuum problems are run on the torus [-L/2, L/2)^n with M points per axis;
data is chosen band-limited or rapidly decaying so that periodization error
stays below the solver tolerances.  Fields carry N complex components per
grid point (the finite-dimensional target space) with an l_q norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NyquistEnergy
from .symbols import MultiIndex, i_xi_power_factor

NYQUIST_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^n with M points per axis (M even)."""

    n: int
    M: int
    L: float

    def __post_init__(self):
        if self.M % 2 != 0 or self.M < 4:
            raise ValueError("M must be even and >= 4")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def dx(self) -> float:
        return self.L / self.M

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    @property
    def shape(self) -> tuple:
        return (self.M,) * self.n

    def axis_points(self) -> np.ndarray:
        return -self.L / 2.0 + self.dx * np.arange(self.M)

    def points(self) -> np.ndarray:
        """Grid coordinates, shape (M,)*n + (n,)."""
        axes = [self.axis_points()] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def freqs(self) -> np.ndarray:
        """Per-axis frequencies 2*pi*k/L in FFT order (Nyquist at index M/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.L / self.M)

    def frequency_mesh(self) -> np.ndarray:
        """Frequency vectors in FFT order, shape (M,)*n + (n,)."""
        axes = [self.freqs()] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def nyquist_mask(self) -> np.ndarray:
        """Boolean array marking modes with any axis at the Nyquist index."""
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(self.n):
            idx = [slice(None)] * self.n
            idx[ax] = self.M // 2
            mask[tuple(idx)] = True
        return mask


@dataclass(frozen=True)
class SampledField:
    """Complex N-vector samples on a grid, with an l_q component norm."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)  # shape (M,)*n + (N,)
    q: float = 2.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected = self.grid.shape
        if vals.shape[:-1] != expected or vals.ndim != self.grid.n + 1:
            raise ValueError(
                f"value shape {vals.shape} inconsistent with grid {expected} + (N,)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def N(self) -> int:
        return self.values.shape[-1]

    def with_values(self, values: np.ndarray) -> "SampledField":
        return replace(self, values=np.asarray(values, dtype=complex))

    def __add__(self, other):
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        return self.with_values(self.values - other.values)

    def __mul__(self, c):
        return self.with_values(self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpaceTimeField:
    """Time-stacked sampled fields on [0, Y]: values shape (J+1,) + grid + (N,)."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    Y: float
    q: float = 2.0
    p: float = 2.0   # inner (spatial) exponent
    p1: float = 2.0  # outer (temporal) exponent

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape[1:-1] != self.grid.shape:
            raise ValueError("slice shape inconsistent with grid")
        if self.Y <= 0:
            raise ValueError("horizon Y must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def J(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dy(self) -> float:
        return self.Y / self.J

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.Y, self.J + 1)

    @property
    def N(self) -> int:
        return self.values.shape[-1]

    def slice(self, j: int) -> SampledField:
        return SampledField(grid=self.grid, values=self.values[j], q=self.q)


def constant_field(grid: GridSpec, vector, q: float = 2.0) -> SampledField:
    v = np.atleast_1d(np.asarray(vector, dtype=complex))
    vals = np.broadcast_to(v, grid.shape + v.shape).copy()
    return SampledField(grid=grid, values=vals, q=q)


def mode_field(grid: GridSpec, xi0, vector, q: float = 2.0) -> SampledField:
    """Pure plane wave e^{i xi0 . x} * v; xi0 must lie on the frequency lattice."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    v = np.atleast_1d(np.asarray(vector, dtype=complex))
    x = grid.points()
    phase = np.exp(1j * np.tensordot(x, xi0, axes=([-1], [0])))
    vals = phase[..., None] * v
    return SampledField(grid=grid, values=vals, q=q)


def gaussian_field(grid: GridSpec, width: float = None, vector=None,
                   q: float = 2.0) -> SampledField:
    """Centered Gaussian bump exp(-|x|^2 / (2 w^2)) times a component vector."""
    w = width if width is not None else grid.L / 16.0
    v = np.atleast_1d(np.asarray(vector if vector is not None else [1.0], dtype=complex))
    x = grid.points()
    r2 = np.sum(x**2, axis=-1)
    vals = np.exp(-r2 / (2.0 * w**2))[..., None] * v
    return SampledField(grid=grid, values=vals, q=q)


def random_band_limited_field(grid: GridSpec, N: int, rng, q: float = 2.0,
                              fraction: float = 0.25) -> SampledField:
    """Random complex Gaussian coefficients on the lowest `fraction` of modes."""
    spec = np.zeros(grid.shape + (N,), dtype=complex)
    kmax = max(1, int(grid.M * fraction / 2))
    freqs_idx = np.fft.fftfreq(grid.M) * grid.M  # integer mode numbers
    keep = np.abs(freqs_idx) <= kmax
    mask = keep
    for _ in range(grid.n - 1):
        mask = np.logical_and.outer(mask, keep)
    coeffs = rng.standard_normal(grid.shape + (N,)) + 1j * rng.standard_normal(grid.shape + (N,))
    spec[mask] = coeffs[mask]
    vals = np.fft.ifftn(spec, axes=tuple(range(grid.n)), norm="ortho")
    return SampledField(grid=grid, values=vals, q=q)


def forward_transform(u: SampledField) -> SampledField:
    """Unitary discrete Fourier transform per component (FFT frequency order)."""
    spec = np.fft.fftn(u.values, axes=tuple(range(u.grid.n)), norm="ortho")
    return u.with_values(spec)


def inverse_transform(u_hat: SampledField) -> SampledField:
    vals = np.fft.ifftn(u_hat.values, axes=tuple(range(u_hat.grid.n)), norm="ortho")
    return u_hat.with_values(vals)


def _zeroes_nyquist(a: float) -> bool:
    """Whether the Nyquist mode is zeroed for axis order a: the Nyquist
    frequency stands for both +xi and -xi, where (i xi)^a differs when a is
    fractional or an odd integer."""
    return a > 0 and (a != round(a) or round(a) % 2 == 1)


def fractional_multiplier(grid: GridSpec, alpha: MultiIndex) -> np.ndarray:
    """(i*xi)^alpha on the frequency lattice, with Nyquist modes zeroed
    whenever the corresponding order is fractional or an odd integer."""
    freqs = grid.freqs()
    mult = np.ones(grid.shape, dtype=complex)
    for ax, a in enumerate(alpha):
        fac = i_xi_power_factor(freqs, a)
        if _zeroes_nyquist(a):
            fac[grid.M // 2] = 0.0
        shape = [1] * grid.n
        shape[ax] = grid.M
        mult = mult * fac.reshape(shape)
    return mult


def liouville_derivative(u: SampledField, alpha, check_nyquist: bool = True) -> SampledField:
    """Fractional derivative D^alpha u = F^-1[(i xi)^alpha F u].

    Nyquist modes are zeroed for fractional or odd-integer orders; when that
    happens the input must not carry relative energy above NYQUIST_TOL there.
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(np.atleast_1d(alpha)))
    if alpha.n != u.grid.n:
        raise ValueError("alpha dimension does not match the grid")
    spec = np.fft.fftn(u.values, axes=tuple(range(u.grid.n)), norm="ortho")
    mult = fractional_multiplier(u.grid, alpha)
    if check_nyquist and any(_zeroes_nyquist(a) for a in alpha):
        mask = u.grid.nyquist_mask()
        total = np.linalg.norm(spec)
        if total > 0:
            nyq = np.linalg.norm(spec[mask])
            if nyq > NYQUIST_TOL * total:
                raise NyquistEnergy(
                    f"relative Nyquist energy {nyq / total:.2e} exceeds {NYQUIST_TOL}")
    spec = spec * mult[..., None]
    vals = np.fft.ifftn(spec, axes=tuple(range(u.grid.n)), norm="ortho")
    return u.with_values(vals)


def vector_norms(values: np.ndarray, q: float) -> np.ndarray:
    """Pointwise l_q norm of the trailing component axis."""
    a = np.abs(values)
    if q == np.inf:
        return a.max(axis=-1)
    if q == 1:
        return a.sum(axis=-1)
    if q == 2:
        return np.sqrt((a**2).sum(axis=-1))
    return (a**q).sum(axis=-1) ** (1.0 / q)


def _lp_lq_norms(values: np.ndarray, grid: GridSpec, q: float, p: float) -> np.ndarray:
    """lp_lq_norm of each field of a stack, values shape (F,) + grid.shape + (N,)."""
    pointwise = vector_norms(values, q).reshape(len(values), -1)
    if p == np.inf:
        return pointwise.max(axis=1)
    return (np.sum(pointwise**p, axis=1) * grid.cell_volume) ** (1.0 / p)


def lp_lq_norm(u: SampledField, p: float) -> float:
    """L_p norm over the box of the pointwise l_q vector norm.

    Left-endpoint Riemann quadrature with cell volume (L/M)^n; p = inf takes
    the grid maximum.
    """
    return float(_lp_lq_norms(u.values[None], u.grid, u.q, p)[0])


def h_m_pt_norm(u: SampledField, t, m: float, p: float, A: np.ndarray = None) -> float:
    """Parameterized Sobolev norm: graph term plus the weighted bracket term.

    Returns ||A u||_{L_p} (0 when no operator part is supplied) plus
    ||F^-1 [1 + (sum_k t_k^(2/m) xi_k^2)^(1/2)]^m F u||_{L_p}.
    """
    term1 = 0.0
    if A is not None:
        Au = u.with_values(np.einsum("ij,...j->...i", np.asarray(A, dtype=complex), u.values))
        term1 = lp_lq_norm(Au, p)
    xi = u.grid.frequency_mesh()
    tvec = np.asarray(t.t)
    bracket = (1.0 + np.sqrt(np.sum(tvec ** (2.0 / m) * xi**2, axis=-1))) ** m
    spec = np.fft.fftn(u.values, axes=tuple(range(u.grid.n)), norm="ortho")
    vals = np.fft.ifftn(spec * bracket[..., None], axes=tuple(range(u.grid.n)), norm="ortho")
    term2 = lp_lq_norm(u.with_values(vals), p)
    return term1 + term2


def mixed_norm(u: SpaceTimeField, p: float = None, p1: float = None) -> float:
    """Inner spatial L_p norm per time slice, outer temporal L_{p1} norm.

    Exponents default to the ones stored on the field.  The time axis uses
    trapezoid weights on the uniform partition of [0, Y].
    """
    p = u.p if p is None else p
    p1 = u.p1 if p1 is None else p1
    # blocks of slices keep the norm's temporaries small next to the field
    inner = np.concatenate([_lp_lq_norms(u.values[j:j + 64], u.grid, u.q, p)
                            for j in range(0, u.J + 1, 64)])
    if p1 == np.inf:
        return float(inner.max())
    w = np.full(u.J + 1, u.dy)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float((np.sum(w * inner**p1)) ** (1.0 / p1))


def shift_field(u: SampledField, shifts) -> SampledField:
    """Cyclic grid translation by integer offsets per axis."""
    shifts = tuple(int(s) for s in np.atleast_1d(shifts))
    vals = np.roll(u.values, shifts, axis=tuple(range(u.grid.n)))
    return u.with_values(vals)


def export_columnar(u: SampledField) -> str:
    """One row per grid point: coordinates, then Re/Im per component."""
    x = u.grid.points().reshape(-1, u.grid.n)
    v = u.values.reshape(-1, u.N)
    cols = np.concatenate([x, np.stack([v.real, v.imag], axis=-1).reshape(len(v), -1)], axis=1)
    header = "# " + " ".join([f"x{k}" for k in range(u.grid.n)]
                             + [f"re{j} im{j}" for j in range(u.N)])
    row = " ".join(["%.17g"] * cols.shape[1])
    body = "\n".join([row] * len(cols)) % tuple(cols.ravel().tolist())
    return header + "\n" + body + "\n"
