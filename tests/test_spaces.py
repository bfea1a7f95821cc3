import numpy as np
import pytest

from psdo import (
    GridSpec,
    MultiIndex,
    NyquistEnergy,
    SampledField,
    ScaleParams,
    SpaceTimeField,
    constant_field,
    forward_transform,
    gaussian_field,
    h_m_pt_norm,
    inverse_transform,
    liouville_derivative,
    lp_lq_norm,
    mixed_norm,
    mode_field,
    random_band_limited_field,
    shift_field,
    vector_norms,
)
from psdo.spaces import export_columnar, fractional_multiplier


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
    spec = forward_transform(u).values[:, 0]
    assert abs(spec[3]) == pytest.approx(4.0)  # ortho norm: sqrt(M)
    spec[3] = 0.0
    assert np.abs(spec).max() < 1e-12


def test_transform_round_trip():
    g = GridSpec(n=2, M=8, L=3.0)
    rng = np.random.default_rng(0)
    u = random_band_limited_field(g, 3, rng)
    back = inverse_transform(forward_transform(u))
    assert np.abs(back.values - u.values).max() < 1e-13


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
    assert lp_lq_norm(u, 2.0) == pytest.approx(lp_lq_norm(forward_transform(u), 2.0),
                                               rel=1e-12)


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


def test_shift_preserves_norm():
    g = GridSpec(n=1, M=16, L=2.0)
    rng = np.random.default_rng(2)
    u = random_band_limited_field(g, 1, rng)
    assert lp_lq_norm(shift_field(u, 5), 2.0) == pytest.approx(lp_lq_norm(u, 2.0))


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
