"""Periodized grids, vector-valued sampled fields, transforms and norms.

Continuum problems are run on the torus [-L/2, L/2)^n with M points per axis;
data is chosen band-limited or rapidly decaying so that periodization error
stays below the solver tolerances.  Fields carry N complex components per
grid point (the finite-dimensional target space); the l_q exponent of that
space is an argument of each norm, and solves take it from the operator model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .symbols import MultiIndex, i_xi_power

# Largest array one batched kernel call builds, in complex entries (256 KB): long
# batches (sweep points, Rademacher instances, probe fields, time slices) run in
# blocks along their first axis, so the temporaries stay near that size.
BLOCK_ENTRIES = 2**14


def blocks(count: int, per_item: int) -> list:
    """Consecutive slices covering range(count) once, each of about
    BLOCK_ENTRIES // per_item items (at least one), per_item being the entries
    of one item's largest array."""
    step = max(1, BLOCK_ENTRIES // per_item)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _open_axes(values: np.ndarray, n: int) -> list:
    """The per-axis values (..., M) of n grid axes as an open mesh: axis k shaped
    (..., 1, ..., M, ..., 1) with M in place k of the n grid places."""
    M = values.shape[-1]
    return [values.reshape(values.shape[:-1] + (1,) * k + (M,) + (1,) * (n - k - 1))
            for k in range(n)]


def lattice_mesh(values: np.ndarray, n: int) -> np.ndarray:
    """Every tuple of n coordinates from the per-axis values (..., M), the first
    axis varying slowest, for each of their leading entries: shape (...) +
    (M,)*n + (n,)."""
    return np.stack(np.broadcast_arrays(*_open_axes(values, n)), axis=-1)


def box_freqs(M: int, L) -> np.ndarray:
    """Per-axis frequencies 2*pi*k/L in FFT order (Nyquist at index M/2) of the
    box length L, or of each entry of an array of them: shape np.shape(L) + (M,)."""
    k = (np.arange(M) + M // 2) % M - M // 2  # the mode numbers of np.fft.fftfreq
    return 2.0 * np.pi * (k * (1.0 / (M * (np.asarray(L)[..., None] / M))))


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^n with M points per axis (M even)."""

    n: int
    M: int
    L: float

    def __post_init__(self):
        if self.M % 2 != 0 or self.M < 4:
            raise ValueError("M must be even and >= 4")
        if not self.L > 0:
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
        """Per-axis coordinates of [-L/2, L/2), shape (M,)."""
        return -self.L / 2.0 + (self.L / self.M) * np.arange(self.M)

    def points(self) -> np.ndarray:
        """Grid coordinates, shape (M,)*n + (n,)."""
        return lattice_mesh(self.axis_points(), self.n)

    def freqs(self) -> np.ndarray:
        """Per-axis frequencies 2*pi*k/L in FFT order (Nyquist at index M/2)."""
        return box_freqs(self.M, self.L)

    def frequency_mesh(self) -> np.ndarray:
        """Frequency vectors in FFT order, shape (M,)*n + (n,)."""
        return lattice_mesh(self.freqs(), self.n)

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Unitary DFT over the grid axes of a (..., *shape, N) array, in FFT order."""
        return np.fft.fftn(values, axes=tuple(range(-self.n - 1, -1)), norm="ortho")

    def ifft(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of fft over the grid axes of a (..., *shape, N) array."""
        return np.fft.ifftn(spectrum, axes=tuple(range(-self.n - 1, -1)), norm="ortho")

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
    """Complex N-vector samples on a grid."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)  # shape (M,)*n + (N,)

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

    def __sub__(self, other):
        return self.with_values(self.values - other.values)

    def __mul__(self, c):
        return self.with_values(self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpaceTimeField:
    """A solution's sampled fields at the J + 1 times of [0, Y]: values shape
    (J+1,) + grid + (N,)."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    Y: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape[1:-1] != self.grid.shape:
            raise ValueError("slice shape inconsistent with grid")
        if vals.shape[0] < 2:
            raise ValueError(f"need at least two time slices, got {vals.shape[0]}")
        if not 0 < self.Y < np.inf:
            raise ValueError(f"horizon Y must be positive and finite, got {self.Y}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def J(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dy(self) -> float:
        return self.Y / self.J

    @property
    def N(self) -> int:
        return self.values.shape[-1]

    def slice(self, j: int) -> SampledField:
        return SampledField(grid=self.grid, values=self.values[j])


def mode_field(grid: GridSpec, xi0, vector) -> SampledField:
    """Pure plane wave e^{i xi0 . x} * v.  xi0 must lie on the frequency
    lattice: each xi0_k L / (2 pi) within 1e-9 of an integer of modulus at most
    M/2 (the Nyquist mode included), or the samples are not periodic."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    k = xi0 * (grid.L / (2.0 * np.pi))
    if not np.all((np.abs(k - np.rint(k)) <= 1e-9) & (np.abs(np.rint(k)) <= grid.M // 2)):
        raise ValueError(f"xi0 = {xi0.tolist()} is off the frequency lattice 2 pi k / L, "
                         f"|k| <= M/2 = {grid.M // 2}")
    v = np.atleast_1d(np.asarray(vector, dtype=complex))
    x = grid.points()
    phase = np.exp(1j * np.tensordot(x, xi0, axes=([-1], [0])))
    vals = phase[..., None] * v
    return SampledField(grid=grid, values=vals)


def gaussian_field(grid: GridSpec, width: float = None, vector=None) -> SampledField:
    """Centered Gaussian bump exp(-|x|^2 / (2 w^2)) times a component vector."""
    w = width if width is not None else grid.L / 16.0
    v = np.atleast_1d(np.asarray(vector if vector is not None else [1.0], dtype=complex))
    x = grid.points()
    r2 = np.sum(x**2, axis=-1)
    vals = np.exp(-r2 / (2.0 * w**2))[..., None] * v
    return SampledField(grid=grid, values=vals)


def band_limited_spectra(grid: GridSpec, N: int, rngs, count: int,
                         fraction: float = 0.25, out: np.ndarray = None) -> np.ndarray:
    """Spectra (len(rngs), count) + grid.shape + (N,) of random band-limited
    fields: complex Gaussian coefficients on the lowest `fraction` of modes,
    `count` fields drawn from each generator of `rngs` in the RNG order of
    `count` random_band_limited_field calls.  `out`, a complex array (or
    view) of that shape, receives them in place of a new array."""
    kmax = max(1, int(grid.M * fraction / 2))
    keep = np.abs(np.fft.fftfreq(grid.M) * grid.M) <= kmax  # integer mode numbers
    mask = lattice_mesh(keep, grid.n).all(axis=-1)
    draws = np.empty((len(rngs), count, 2) + grid.shape + (N,))
    for rng, draw in zip(rngs, draws):
        rng.standard_normal(out=draw)
    if out is None:
        out = np.empty((len(rngs), count) + grid.shape + (N,), dtype=complex)
    out.real, out.imag = draws[:, :, 0], draws[:, :, 1]
    out[:, :, ~mask] = 0.0
    return out


def random_band_limited_field(grid: GridSpec, N: int, rng,
                              fraction: float = 0.25) -> SampledField:
    """One random band-limited field: the inverse FFT of one band_limited_spectra draw."""
    return SampledField(grid, grid.ifft(band_limited_spectra(grid, N, [rng], 1, fraction)[0, 0]))


def _zeroes_nyquist(a: float) -> bool:
    """Whether the Nyquist mode is zeroed for axis order a: the Nyquist
    frequency stands for both +xi and -xi, where (i xi)^a differs when a is
    fractional or an odd integer."""
    return a > 0 and (a != round(a) or round(a) % 2 == 1)


def fractional_multiplier(grid: GridSpec, alpha: MultiIndex,
                          freqs: np.ndarray = None) -> np.ndarray:
    """(i*xi)^alpha on the frequency lattice, with Nyquist modes zeroed
    whenever the corresponding order is fractional or an odd integer.

    i_xi_power runs on the open mesh: axis k carries freqs() shaped
    (1,...,M,...,1), its Nyquist coordinate set to 0 where it is zeroed.
    `freqs` (..., M), the per-axis frequencies of boxes of other lengths
    (box_freqs), replaces grid.freqs(); the result then has its leading axes.
    """
    freqs = grid.freqs() if freqs is None else freqs
    zeroed = freqs.copy()
    zeroed[..., grid.M // 2] = 0.0
    axes = zip(_open_axes(freqs, grid.n), _open_axes(zeroed, grid.n))
    return i_xi_power([z if _zeroes_nyquist(a) else f for (f, z), a in zip(axes, alpha)], alpha)


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
    """lp_lq_norm of each field of a stack, values shape (...) + grid.shape + (N,)."""
    pointwise = vector_norms(values, q).reshape(values.shape[:-grid.n - 1] + (-1,))
    if p == np.inf:
        return pointwise.max(axis=-1)
    # C order: numpy sums a strided axis in another order, which would tie a norm to its stack
    return (np.sum(np.ascontiguousarray(pointwise)**p, axis=-1) * grid.cell_volume) ** (1.0 / p)


def _lp_lq_norms_from_spectra(spectra: np.ndarray, grid: GridSpec, q: float,
                              p: float) -> np.ndarray:
    """_lp_lq_norms of the fields whose unitary spectra (grid.fft) are `spectra`.

    At p = q = 2 Parseval gives the L^2(l_2) norm from the spectrum itself, with
    no inverse FFT; other exponents take it after one.
    """
    if p == q == 2:
        flat = np.ascontiguousarray(spectra).reshape(spectra.shape[:-grid.n - 1] + (-1,))
        flat = flat.view(np.float64)  # (Re, Im) pairs: one pass, no complex temporaries
        return np.sqrt(np.einsum("...k,...k->...", flat, flat)) * np.sqrt(grid.cell_volume)
    return _lp_lq_norms(grid.ifft(spectra), grid, q, p)


def lp_lq_norm(u: SampledField, p: float, q: float = 2.0) -> float:
    """L_p norm over the box of the pointwise l_q vector norm.

    Left-endpoint Riemann quadrature with cell volume (L/M)^n; p = inf takes
    the grid maximum.
    """
    return float(_lp_lq_norms(u.values[None], u.grid, q, p)[0])


def h_m_pt_norm(u: SampledField, t, m: float, p: float, q: float = 2.0,
                A: np.ndarray = None, spec: np.ndarray = None) -> float:
    """Parameterized Sobolev norm: graph term plus the weighted bracket term.

    Returns ||A u||_{L_p} (0 when no operator part is supplied) plus
    ||F^-1 [1 + (sum_k t_k^(2/m) xi_k^2)^(1/2)]^m F u||_{L_p}, the latter by
    Parseval at p = q = 2.  `spec`, when given, is F u = u.grid.fft(u.values).
    """
    term1 = 0.0
    if A is not None:
        Au = u.with_values(u.values @ np.asarray(A, dtype=complex).T)
        term1 = lp_lq_norm(Au, p, q)
    xi = u.grid.frequency_mesh()
    tvec = np.asarray(t.t)
    bracket = (1.0 + np.sqrt(np.sum(tvec ** (2.0 / m) * xi**2, axis=-1))) ** m
    spec = u.grid.fft(u.values) if spec is None else spec
    term2 = float(_lp_lq_norms_from_spectra((spec * bracket[..., None])[None], u.grid, q, p)[0])
    return term1 + term2


def _time_norm(inner: np.ndarray, dy: float, p1: float) -> float:
    """L_{p1} norm over [0, Y] of the values `inner` at the J + 1 times of a
    uniform partition with step dy: trapezoid weights; p1 = inf takes the maximum."""
    if p1 == np.inf:
        return float(inner.max())
    w = np.full(len(inner), dy)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float((np.sum(w * inner**p1)) ** (1.0 / p1))


def export_columnar(u: SampledField) -> str:
    """Text columns of a SampledField: a header, then per grid point the
    coordinates and Re/Im per component in "%.17g"."""
    grid, N = u.grid, u.N
    header = "# " + " ".join([f"x{k}" for k in range(grid.n)] + [f"re{j} im{j}" for j in range(N)])
    rows = np.hstack([grid.points().reshape(-1, grid.n),
                      np.ascontiguousarray(u.values).reshape(-1, N).view(np.float64)])
    row = " ".join(["%.17g"] * rows.shape[1])
    return "\n".join([header] + [row] * len(rows)) % tuple(rows.ravel().tolist()) + "\n"
