import math

import numpy as np
import pytest

from psdo import (
    AngleSumTooLarge,
    GridSpec,
    MultiIndex,
    OutOfTable,
    ScaleParams,
    Sector,
    SymbolSpec,
    check_symbol_class,
    eval_symbol,
    i_xi_power,
    power_symbol,
    rotated_power_symbol,
    sector_sum_constant,
    smoothed_power_symbol,
    symbol_derivative,
)
from psdo.symbols import i_xi_power_factor


def test_multi_index_basics():
    a = MultiIndex((1.0, 0.5))
    assert a.order == 1.5
    assert a.n == 2
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MultiIndex((1.0, bad))


def test_scale_params_weight():
    t = ScaleParams((0.25, 0.04))
    alpha = MultiIndex((1.0, 2.0))
    # t(alpha) = t1^(1/2) * t2^(2/2) for m = 2
    assert t.weight(alpha, 2.0) == pytest.approx(0.5 * 0.04, rel=1e-14)
    assert ScaleParams.isotropic(0.1, 3).t == (0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        ScaleParams((0.0,))
    with pytest.raises(ValueError):
        ScaleParams((math.inf,))


def test_i_xi_power_integer_orders():
    xi = np.array([3.0])
    assert i_xi_power(xi, MultiIndex((1.0,))) == pytest.approx(3.0j)
    assert i_xi_power(xi, MultiIndex((2.0,))) == pytest.approx(-9.0)
    assert i_xi_power(np.array([-3.0]), MultiIndex((1.0,))) == pytest.approx(-3.0j)


def test_i_xi_power_fractional_branch():
    # (i*1)^(1/2) = e^{i pi/4}, (i*(-1))^(1/2) = e^{-i pi/4}
    assert i_xi_power(np.array([1.0]), MultiIndex((0.5,))) == pytest.approx(
        np.exp(1j * np.pi / 4))
    assert i_xi_power(np.array([-1.0]), MultiIndex((0.5,))) == pytest.approx(
        np.exp(-1j * np.pi / 4))


def test_i_xi_power_zero_conventions():
    assert i_xi_power(np.array([0.0]), MultiIndex((1.5,))) == 0.0
    assert i_xi_power(np.array([0.0, 2.0]), MultiIndex((0.0, 0.0))) == 1.0
    # one vanishing coordinate with positive order kills the product
    assert i_xi_power(np.array([0.0, 2.0]), MultiIndex((0.5, 1.0))) == 0.0


def test_i_xi_power_factor_vectorized():
    xi = np.array([-2.0, 0.0, 2.0])
    fac = i_xi_power_factor(xi, 1.0)
    assert np.allclose(fac, [-2.0j, 0.0, 2.0j])
    assert np.allclose(i_xi_power_factor(xi, 0.0), 1.0)


def test_eval_symbol_power():
    spec = power_symbol(m=2.0)
    t = ScaleParams((0.5,))
    assert eval_symbol(spec, t, np.array([3.0])) == pytest.approx(4.5)
    vals = eval_symbol(spec, t, np.array([[1.0], [2.0]]))
    assert np.allclose(vals, [0.5, 2.0])


def test_eval_symbol_rotated_and_smoothed():
    t = ScaleParams((1.0,))
    rot = rotated_power_symbol(2.0, theta0=0.3)
    v = eval_symbol(rot, t, np.array([2.0]))
    assert abs(v) == pytest.approx(4.0)
    assert np.angle(v) == pytest.approx(0.3)
    sm = smoothed_power_symbol(2.0, epsilon=0.1)
    assert eval_symbol(sm, t, np.array([0.0])) == pytest.approx(0.01)
    # epsilon -> 0 recovers the plain power
    assert eval_symbol(smoothed_power_symbol(2.0, 0.0), t, np.array([3.0])) == \
        pytest.approx(9.0)


def test_user_table_symbol():
    pts = np.linspace(-10, 10, 41)
    spec = SymbolSpec(kind="user-table", m=2.0, table=(pts, pts**2))
    t = ScaleParams((1.0,))
    assert eval_symbol(spec, t, np.array([2.25])) == pytest.approx(
        np.interp(2.25, pts, pts**2))
    with pytest.raises(OutOfTable):
        eval_symbol(spec, t, np.array([11.0]))


def test_symbol_spec_validation():
    with pytest.raises(ValueError):
        SymbolSpec(kind="nope", m=2.0)
    with pytest.raises(ValueError):
        SymbolSpec(kind="power", m=0.0)
    with pytest.raises(ValueError):
        SymbolSpec(kind="rotated-power", m=2.0, theta0=0.5, phi1=0.2)
    with pytest.raises(ValueError):
        SymbolSpec(kind="user-table", m=2.0)


@pytest.mark.parametrize("build", [
    lambda: SymbolSpec(kind="power", m=math.nan),
    lambda: SymbolSpec(kind="power", m=2.0, gamma=math.nan),
    lambda: ScaleParams((math.nan,)),
    lambda: GridSpec(n=1, M=8, L=math.nan),
], ids=["SymbolSpec.m", "SymbolSpec.gamma", "ScaleParams.t", "GridSpec.L"])
def test_range_guards_reject_nan(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("pts, values", [
    ([0.0, 2.0, 1.0, 3.0], [0.0, 4.0, 1.0, 9.0]),  # np.interp would read 1, 3, 7 at 0.5, 1.5, 2.5
    ([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 1.0, 9.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0]),
    ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [4.0, 9.0]]),
], ids=["unsorted", "repeated", "value-count", "two-dimensional"])
def test_user_table_needs_increasing_points_with_one_value_each(pts, values):
    with pytest.raises(ValueError, match="strictly increasing"):
        SymbolSpec(kind="user-table", m=2.0, table=(np.array(pts), np.array(values) + 0j))


def test_sector_contains():
    s = Sector(np.pi / 4)
    assert s.contains(1.0 + 0.5j)
    assert s.contains(0.0)
    assert not s.contains(1.0j)


@pytest.mark.parametrize("spec", [
    power_symbol(m=2.0),
    smoothed_power_symbol(m=2.0, epsilon=0.5),
    rotated_power_symbol(m=2.0, theta0=0.2),
])
def test_symbol_class_check_passes(spec):
    t_grid = [ScaleParams.isotropic(v, 1) for v in (1e-2, 0.1, 1.0)]
    xi = np.logspace(-1, 2, 25)[:, None]
    xi = np.concatenate([-xi[::-1], xi])
    rep = check_symbol_class(spec, t_grid, xi)
    assert rep.verdict
    assert rep.sector_ok
    assert all(np.isfinite(c) for c in rep.constants.values())
    assert rep.lower_margin >= 1.0 - 1e-9


def test_symbol_class_check_2d():
    spec = power_symbol(m=2.0)
    t_grid = [ScaleParams.isotropic(1.0, 2)]
    v = np.array([0.5, 1.0, 5.0])
    xi = np.stack(np.meshgrid(v, v, indexing="ij"), axis=-1).reshape(-1, 2)
    rep = check_symbol_class(spec, t_grid, xi)
    assert rep.verdict
    assert set(rep.constants) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("phi1,phi2", [
    (np.pi / 4, np.pi / 4),
    (np.pi / 2, np.pi / 4),
    (0.0, 0.5),
])
def test_sector_sum_constant_matches_closed_form(phi1, phi2):
    """The closed form against sampled sectors: |lam + nu| / (|lam| + |nu|) at
    random points of S_phi1 x S_phi2 (moduli over six decades; angles
    uniform, then on the extreme opposing rays) never falls below it and
    comes within 1e-3 of it, and equal moduli on those rays attain it."""
    c = sector_sum_constant(phi1, phi2)
    rng = np.random.default_rng(0)
    size = 100_000
    ratio = 10.0 ** rng.uniform(-3.0, 3.0, 2 * size)
    th1 = np.concatenate([rng.uniform(-phi1, phi1, size), np.full(size, phi1)])
    th2 = np.concatenate([rng.uniform(-phi2, phi2, size), np.full(size, -phi2)])
    lam, nu = np.exp(1j * th1), ratio * np.exp(1j * th2)
    sampled = np.abs(lam + nu) / (np.abs(lam) + np.abs(nu))
    assert sampled.min() >= c - 1e-15
    assert sampled.min() == pytest.approx(c, abs=1e-3)
    assert abs(np.exp(1j * phi1) + np.exp(-1j * phi2)) / 2.0 == pytest.approx(c, abs=1e-15)


def test_sector_sum_angle_overflow():
    with pytest.raises(AngleSumTooLarge):
        sector_sum_constant(np.pi / 2, np.pi / 2)


def test_symbol_derivative_conventions():
    """xi_k = 0 reads the symmetric value 0 with no 0 * inf (m < 1, eps = 0);
    a table knot reads the slope of the segment to its right, the last knot
    that of the last segment; mixed orders read 0; beta must match n."""
    t = ScaleParams((2.0, 3.0))
    xi = np.array([[0.0, 1.0], [0.0, -2.0]])
    for spec in (power_symbol(0.5), rotated_power_symbol(0.5, theta0=0.3),
                 smoothed_power_symbol(1.5, epsilon=0.0), smoothed_power_symbol(3.0, epsilon=0.5)):
        with np.errstate(all="raise"):
            assert np.array_equal(symbol_derivative(spec, t, xi, (1, 0)), [0.0, 0.0])
            assert np.array_equal(symbol_derivative(spec, t, xi, (1, 1)), [0.0, 0.0])
    assert symbol_derivative(power_symbol(3.0), t, [-2.0, 1.0], (1, 0)) == -24.0
    table = SymbolSpec(kind="user-table", m=1.0, table=([-1.0, 0.0, 2.0], [3.0, 1.0, 5.0]))
    one = ScaleParams((1.0,))
    knots = np.array([[-1.0], [-0.5], [0.0], [1.0], [2.0]])
    assert np.array_equal(symbol_derivative(table, one, knots, (1,)), [-2.0, -2.0, 2.0, 2.0, 2.0])
    with pytest.raises(OutOfTable):
        symbol_derivative(table, one, [[2.5]], (1,))
    with pytest.raises(ValueError, match="does not match"):
        symbol_derivative(power_symbol(2.0), t, xi, (1,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_knot_table_is_a_constant_symbol():
    """A one-knot table has slope 0, with no 0 / 0."""
    spec = SymbolSpec(kind="user-table", m=2.0, table=([1.0], [1.0]))
    one = ScaleParams((1.0,))
    assert np.array_equal(symbol_derivative(spec, one, [[1.0]], (1,)), [0.0])
    rep = check_symbol_class(spec, [one], [[1.0]])
    assert rep.constants[(1,)] == 0.0
    assert rep.verdict


@pytest.mark.parametrize("spec", [power_symbol(0.5), rotated_power_symbol(0.5, theta0=0.2),
                                  smoothed_power_symbol(0.5, epsilon=0.0)],
                         ids=["power", "rotated-power", "smoothed-power-eps-0"])
def test_slope_unbounded_below_order_one(spec):
    """For m < 1, |D P| = t m |xi|^(m-1) has no finite bound near xi = 0: C_(1,)
    is inf whatever the grid's smallest |xi|, and the verdict fails."""
    t_grid = [ScaleParams.isotropic(v, 1) for v in (1e-2, 1.0)]
    reports = [check_symbol_class(spec, t_grid, np.logspace(lo, 2, 15)[:, None])
               for lo in (-3, -6)]
    assert [r.constants[(1,)] for r in reports] == [math.inf, math.inf]
    assert [r.verdict for r in reports] == [False, False]
    assert reports[0].constants[(0,)] == reports[1].constants[(0,)]


def test_smoothed_slope_stays_bounded_below_order_one():
    """With eps > 0 the smoothed symbol's slope is bounded, so C_(1,) is finite."""
    xi = np.logspace(-6, 2, 15)[:, None]
    rep = check_symbol_class(smoothed_power_symbol(0.5, epsilon=0.5), [ScaleParams((1.0,))], xi)
    assert math.isfinite(rep.constants[(1,)])


def test_symbol_class_takes_the_steeper_segment_at_a_table_knot():
    """check-symbol's grid puts 10**log10(50) one ulp left of the knot 50 of
    pts^2 on linspace(-60, 60, 241); the slope bound there is the steeper right
    segment's, 100.5 / (1 + 50), not the left one's 99.5 / 51."""
    pts = np.linspace(-60.0, 60.0, 241)
    spec = SymbolSpec(kind="user-table", m=2.0, table=(pts, pts**2))
    mags = np.logspace(math.log10(0.5), math.log10(50.0), 9)
    xi = np.concatenate([-mags[::-1], mags])[:, None]
    assert xi[-1, 0] < 50.0  # the sample the segment lookup places left of the knot
    assert symbol_derivative(spec, ScaleParams((1.0,)), xi[-1:], (1,)) == pytest.approx(99.5)
    rep = check_symbol_class(spec, [ScaleParams((1.0,))], xi)
    assert rep.constants[(1,)] == pytest.approx(100.5 / 51.0, rel=1e-12)
    # off the knots, and at a knot of a two-knot table, one segment as before
    far = check_symbol_class(spec, [ScaleParams((1.0,))], [[0.25], [10.2]])
    assert far.constants[(1,)] == pytest.approx(20.5 / 11.2, rel=1e-12)
    two = SymbolSpec(kind="user-table", m=2.0, table=([0.0, 2.0], [0.0, 4.0]))
    assert check_symbol_class(two, [ScaleParams((1.0,))], [[0.0], [2.0]]).constants[(1,)] == 2.0
