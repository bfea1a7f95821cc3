import itertools

import numpy as np
import pytest
from oracles import NyquistEnergy, liouville_derivative, mixed_norm

from psdo import (
    GridSpec,
    MultiIndex,
    SampledField,
    ScaleParams,
    SpaceTimeField,
    gaussian_field,
    h_m_pt_norm,
    i_xi_power,
    lp_lq_norm,
    mode_field,
    random_band_limited_field,
    vector_norms,
)
from psdo import spaces
from psdo.tasks import _write_reports
from psdo.spaces import band_limited_spectra, blocks, export_columnar, fractional_multiplier


def constant_field(grid, vector):
    """The field equal to `vector` at every grid point."""
    v = np.atleast_1d(np.asarray(vector, dtype=complex))
    return SampledField(grid=grid, values=np.broadcast_to(v, grid.shape + v.shape).copy())


def test_grid_basics():
    g = GridSpec(n=1, M=8, L=4.0)
    assert g.dx == 0.5
    assert g.axis_points()[0] == -2.0
    assert np.allclose(g.freqs(), 2 * np.pi * np.fft.fftfreq(8, d=0.5))
    with pytest.raises(ValueError):
        GridSpec(n=1, M=7, L=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, M=8, L=0.0)


def test_nyquist_mask():
    g = GridSpec(n=2, M=4, L=1.0)
    mask = g.nyquist_mask()
    assert mask[2, :].all() and mask[:, 2].all()
    assert not mask[0, 0] and not mask[1, 3]


def test_mode_field_is_single_spike():
    g = GridSpec(n=1, M=16, L=2 * np.pi)
    u = mode_field(g, [3.0], [1.0])
    spec = g.fft(u.values)[:, 0]
    assert abs(spec[3]) == pytest.approx(4.0)  # ortho norm: sqrt(M)
    spec[3] = 0.0
    assert np.abs(spec).max() < 1e-12


def test_transform_round_trip():
    g = GridSpec(n=2, M=8, L=3.0)
    rng = np.random.default_rng(0)
    u = random_band_limited_field(g, 3, rng)
    back = g.ifft(g.fft(u.values))
    assert np.abs(back - u.values).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_fft_of_a_stack_matches_per_field_transforms(n):
    g = GridSpec(n=n, M=8, L=3.0)
    rng = np.random.default_rng(2)
    stack = np.stack([random_band_limited_field(g, 3, rng).values for _ in range(4)])
    spec = g.fft(stack)
    assert np.array_equal(spec, np.stack([g.fft(v) for v in stack]))
    assert np.array_equal(g.ifft(spec), np.stack([g.ifft(s) for s in spec]))


def _band_limited_field_per_field(grid, N, rng, fraction=0.25):
    """Reference: one field's coefficients drawn as a real and an imaginary
    standard-normal block, kept on |mode number| <= kmax per axis, one ifft."""
    kmax = max(1, int(grid.M * fraction / 2))
    keep = np.abs(np.fft.fftfreq(grid.M) * grid.M) <= kmax
    mask = keep
    for _ in range(grid.n - 1):
        mask = np.logical_and.outer(mask, keep)
    coeffs = rng.standard_normal(grid.shape + (N,)) + 1j * rng.standard_normal(grid.shape + (N,))
    spec = np.zeros(grid.shape + (N,), dtype=complex)
    spec[mask] = coeffs[mask]
    return grid.ifft(spec)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 8])
def test_random_band_limited_values_match_successive_fields(n, N):
    g = GridSpec(n=n, M=16, L=3.0)
    batch = g.ifft(band_limited_spectra(g, N, [np.random.default_rng(4)], 5)[0])
    assert batch.shape == (5,) + g.shape + (N,)
    rng = np.random.default_rng(4)
    assert np.array_equal(batch, np.stack([random_band_limited_field(g, N, rng).values
                                           for _ in range(5)]))
    rng = np.random.default_rng(4)
    assert np.array_equal(batch, np.stack([_band_limited_field_per_field(g, N, rng)
                                           for _ in range(5)]))


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("generators", [1, 2])
def test_band_limited_spectra_fill_a_strided_view_with_the_bits_of_a_fresh_array(generators,
                                                                                count):
    """Spectra written into out = stack[:, 2:], a view of a larger stack, are
    the bits of a fresh array's, and the stack's other fields stay untouched."""
    g, N = GridSpec(n=2, M=8, L=3.0), 2
    fresh = band_limited_spectra(g, N, [np.random.default_rng((5, i)) for i in range(generators)],
                                 count)
    stack = np.full((generators, count + 2) + g.shape + (N,), np.nan, dtype=complex)
    view = stack[:, 2:]
    assert band_limited_spectra(g, N, [np.random.default_rng((5, i)) for i in range(generators)],
                                count, out=view) is view
    assert np.array_equal(np.ascontiguousarray(stack[:, 2:]).view(np.int64), fresh.view(np.int64))
    assert np.isnan(stack[:, :2]).all()


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5, 1.5])
def test_liouville_derivative_on_mode(alpha):
    g = GridSpec(n=1, M=32, L=2 * np.pi)
    xi0 = 3.0
    u = mode_field(g, [xi0], [1.0])
    du = liouville_derivative(u, MultiIndex((alpha,)))
    factor = np.exp(alpha * (np.log(xi0) + 1j * np.pi / 2))
    assert np.abs(du.values - factor * u.values).max() < 1e-10


def test_liouville_derivative_2d_integer():
    g = GridSpec(n=2, M=16, L=2 * np.pi)
    u = mode_field(g, [2.0, 5.0], [1.0])
    du = liouville_derivative(u, MultiIndex((1.0, 2.0)))
    factor = (2.0j) * (5.0j) ** 2
    assert np.abs(du.values - factor * u.values).max() < 1e-10


def test_nyquist_energy_guard():
    g = GridSpec(n=1, M=16, L=2 * np.pi)
    u = mode_field(g, [8.0], [1.0])  # Nyquist mode
    with pytest.raises(NyquistEnergy):
        liouville_derivative(u, MultiIndex((0.5,)))
    # even integer order keeps the Nyquist mode, no error
    du = liouville_derivative(u, MultiIndex((2.0,)))
    assert np.all(np.isfinite(du.values))


def test_fractional_multiplier_zeroes_nyquist():
    g = GridSpec(n=1, M=8, L=2 * np.pi)
    assert fractional_multiplier(g, MultiIndex((0.5,)))[4] == 0.0
    assert fractional_multiplier(g, MultiIndex((1.0,)))[4] == 0.0
    assert fractional_multiplier(g, MultiIndex((2.0,)))[4] != 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_fractional_multiplier_is_i_xi_power_on_the_lattice(n):
    # oracle: i_xi_power on every frequency_mesh() row, each Nyquist coordinate
    # set to 0 on the axes of fractional or odd order, bit for bit
    g = GridSpec(n=n, M=8, L=3.0)
    rows = g.frequency_mesh().reshape(-1, n)
    nyquist = rows == g.freqs()[g.M // 2]
    for alpha in itertools.product([0.0, 0.5, 1.0, 1.5, 2.0], repeat=n):
        zeroed = np.where(nyquist & np.isin(alpha, [0.5, 1.0, 1.5]), 0.0, rows)
        stacked = i_xi_power(zeroed.T, MultiIndex(alpha))
        per_row = np.array([i_xi_power(xi, MultiIndex(alpha)) for xi in zeroed])
        np.testing.assert_array_equal(per_row, stacked)
        np.testing.assert_array_equal(fractional_multiplier(g, MultiIndex(alpha)),
                                      stacked.reshape(g.shape))


def test_vector_norms_exponents():
    v = np.array([[3.0, -4.0]])
    assert vector_norms(v, 2)[0] == pytest.approx(5.0)
    assert vector_norms(v, 1)[0] == pytest.approx(7.0)
    assert vector_norms(v, np.inf)[0] == pytest.approx(4.0)
    assert vector_norms(v, 3)[0] == pytest.approx((27 + 64) ** (1 / 3))


def test_lp_norm_constant_field():
    g = GridSpec(n=1, M=16, L=2.0)
    u = constant_field(g, [3.0, 4.0])
    # |v|_2 = 5 over a box of measure 2
    assert lp_lq_norm(u, 2.0) == pytest.approx(5.0 * np.sqrt(2.0))
    assert lp_lq_norm(u, np.inf) == pytest.approx(5.0)


def test_parseval():
    g = GridSpec(n=1, M=64, L=5.0)
    rng = np.random.default_rng(1)
    u = random_band_limited_field(g, 2, rng)
    spec = u.with_values(g.fft(u.values))
    assert lp_lq_norm(u, 2.0) == pytest.approx(lp_lq_norm(spec, 2.0), rel=1e-12)


def test_h_m_pt_norm_on_mode():
    g = GridSpec(n=1, M=32, L=2 * np.pi)
    t = ScaleParams((0.25,))
    u = mode_field(g, [4.0], [1.0])
    got = h_m_pt_norm(u, t, 2.0, 2.0)
    bracket = (1.0 + np.sqrt(0.25 ** (2.0 / 2.0) * 16.0)) ** 2
    assert got == pytest.approx(bracket * lp_lq_norm(u, 2.0), rel=1e-12)
    # with an operator part the graph term is added
    A = np.array([[2.0]])
    got2 = h_m_pt_norm(u, t, 2.0, 2.0, A=A)
    assert got2 == pytest.approx(got + 2.0 * lp_lq_norm(u, 2.0), rel=1e-12)


def test_mixed_norm_constant_in_time():
    g = GridSpec(n=1, M=16, L=2.0)
    base = constant_field(g, [1.0])
    J, Y = 10, 3.0
    vals = np.repeat(base.values[None], J + 1, axis=0)
    u = SpaceTimeField(grid=g, values=vals, Y=Y)
    # trapezoid weights integrate a constant exactly
    assert mixed_norm(u) == pytest.approx(lp_lq_norm(base, 2.0) * np.sqrt(Y), rel=1e-12)
    assert mixed_norm(u, p1=np.inf) == pytest.approx(lp_lq_norm(base, 2.0), rel=1e-12)


def test_space_time_field_slices():
    g = GridSpec(n=1, M=8, L=1.0)
    vals = np.zeros((4, 8, 2), dtype=complex)
    vals[2, :, 1] = 1.0
    u = SpaceTimeField(grid=g, values=vals, Y=1.0)
    assert u.J == 3
    assert u.dy == pytest.approx(1.0 / 3.0)
    assert np.all(u.slice(2).values[:, 1] == 1.0)


def test_gaussian_field_peak():
    g = GridSpec(n=1, M=64, L=16.0)
    u = gaussian_field(g)
    mid = np.argmin(np.abs(g.axis_points()))
    assert abs(u.values[mid, 0]) == pytest.approx(1.0, rel=1e-12)
    assert abs(u.values[0, 0]) < 1e-13


def test_field_validation():
    g = GridSpec(n=1, M=8, L=1.0)
    with pytest.raises(ValueError):
        SampledField(grid=g, values=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        SampledField(grid=g, values=np.full((8, 1), np.nan))


@pytest.mark.parametrize("slices, Y, bad", [(1, 1.0, None), (0, 1.0, None), (3, np.nan, None),
                                            (3, np.inf, None), (3, 1.0, np.nan),
                                            (3, 1.0, np.inf)],
                         ids=["one-slice", "no-slice", "Y-nan", "Y-inf", "value-nan", "value-inf"])
def test_space_time_field_validation(slices, Y, bad):
    g = GridSpec(n=1, M=8, L=1.0)
    vals = np.zeros((slices, 8, 1), dtype=complex)
    if bad is not None:
        vals[-1, 3, 0] = bad
    with pytest.raises(ValueError):
        SpaceTimeField(grid=g, values=vals, Y=Y)


def test_export_columnar():
    g = GridSpec(n=1, M=4, L=1.0)
    u = constant_field(g, [1.0 + 2.0j])
    text = export_columnar(u)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 5
    assert lines[1].split()[1:] == ["1", "2"]


def _export_per_element(u):
    """Reference: export_columnar formatting each number with its own f-string."""
    x = u.grid.points().reshape(-1, u.grid.n)
    v = u.values.reshape(-1, u.N)
    lines = ["# " + " ".join([f"x{k}" for k in range(u.grid.n)]
                             + [f"re{j} im{j}" for j in range(u.N)])]
    for xi, vi in zip(x, v):
        parts = [f"{c:.17g}" for c in xi]
        for comp in vi:
            parts.append(f"{comp.real:.17g}")
            parts.append(f"{comp.imag:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,N", [(1, 2), (2, 3)])
def test_export_columnar_matches_per_element_formatting(n, N):
    g = GridSpec(n=n, M=4, L=3.0)
    rng = np.random.default_rng(4)
    vals = (rng.standard_normal(g.shape + (N,))
            + 1j * rng.standard_normal(g.shape + (N,))) * 10.0 ** rng.integers(-20, 20, g.shape + (N,))
    flat = vals.reshape(-1)
    flat[:6] = [complex(-0.0, 0.0), complex(5e-324, -5e-324), complex(1e300, -1e300),
                complex(3.0, -7.0), complex(0.0, -0.0), complex(-2.0, 1e16)]
    u = SampledField(grid=g, values=vals)
    assert export_columnar(u) == _export_per_element(u)
    sliced = SpaceTimeField(grid=g, values=np.stack([vals, -vals]), Y=1.0).slice(1)
    assert export_columnar(sliced) == _export_per_element(sliced)


def _special_stack(n, N, S, M, repeated):
    """A (S, M, ..., N) stack with -0.0 and 0.0, subnormals, +-1e300, values
    repeated across slices and an all-zero imaginary part (the last component
    of slice 0).  With `repeated`, every number is one of 7 values, so at most
    half of them are distinct; otherwise nearly all are."""
    g = GridSpec(n=n, M=M, L=3.0)
    rng = np.random.default_rng(7)
    shape = (S,) + g.shape + (N,)
    if repeated:
        pool = np.array([0.0, -0.0, 5e-324, 1e300, -1e300, 2.5])
        vals = rng.choice(pool, shape) + 1j * rng.choice(pool, shape)
    else:
        vals = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                * 10.0 ** rng.integers(-20, 20, shape))
    vals[-1].reshape(-1).real[:5] = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300]
    vals[:, 1] = vals[-1, 1]
    vals[0, ..., -1].imag = 0.0
    return g, vals


@pytest.mark.parametrize("repeated", [True, False], ids=["dedup", "plain"])
@pytest.mark.parametrize("n, N, S, M",
                         [(n, N, S, 8) for n in (1, 2) for N in (1, 3) for S in (1, 4)]
                         + [(1, 4, 5, 1024)])
def test_export_columnar_stack_matches_per_slice_reference(tmp_path, n, N, S, M, repeated):
    """The export of a field (S = 1) or of a stack of S slices: solution.npy
    holds every slice bit for bit, -0.0 and subnormals included, and
    solution.txt the per-element text of the final slice."""
    g, vals = _special_stack(n, N, S, M, repeated)
    if S == 1:
        u = SampledField(grid=g, values=vals[0])
    else:
        u = SpaceTimeField(grid=g, values=vals, Y=1.0)
    _write_reports(str(tmp_path), {}, u)
    stack = np.load(tmp_path / "solution.npy", allow_pickle=False)
    assert stack.dtype == np.complex128 and stack.shape == u.values.shape
    np.testing.assert_array_equal(stack.view(np.int64), u.values.view(np.int64))
    expected = _export_per_element(SampledField(grid=g, values=vals[-1]))
    assert (tmp_path / "solution.txt").read_text() == expected


@pytest.mark.parametrize("count, per_item, step", [
    (0, 1, None), (1, 1, 1), (7, 2**13, 2), (5, 2**14, 1), (3, 2**14 + 1, 1), (4, 2**20, 1),
    (2**14 + 3, 1, 2**14), (100, 3, 5461)])
def test_blocks_cover_the_range_once(count, per_item, step):
    slices = blocks(count, per_item)
    covered = [i for b in slices for i in range(count)[b]]
    assert covered == list(range(count))
    assert all(b.stop - b.start == step for b in slices[:-1])
    assert not slices if count == 0 else 1 <= slices[-1].stop - slices[-1].start <= step


@pytest.mark.parametrize("n, N, J", [(1, 2, 70), (2, 3, 9)])
def test_mixed_norm_does_not_depend_on_the_block_size(n, N, J, monkeypatch):
    g = GridSpec(n=n, M=8, L=3.0)
    rng = np.random.default_rng(9)
    shape = (J + 1,) + g.shape + (N,)
    u = SpaceTimeField(grid=g, values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                       Y=2.0)
    results = []
    for entries in (1, 2**40):  # one slice per block, then every slice in one
        monkeypatch.setattr(spaces, "BLOCK_ENTRIES", entries)
        results.append((mixed_norm(u, p=1.5, p1=4.0, q=3.0),
                        mixed_norm(u, p=2.0, p1=np.inf, q=3.0)))
    (norm, sup), (norm_all, sup_all) = results
    # numpy sums a one-row block pairwise but several rows one term at a
    # time, so the norms of the two partitions agree to roundoff only
    assert (norm, sup) == pytest.approx((norm_all, sup_all), rel=1e-14)
