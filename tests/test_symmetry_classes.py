"""Symmetry classes of a sweep: each class is evaluated once and its record
copied to the other points (verification._sweep_report).

Class evaluation is checked against evaluating each point alone, as a
one-point sweep, at data_count = 2 so that no random field takes part: on the
four shipped coercivity scenarios, on the benchmark's three probe sweeps and
on an explicit anisotropic t_values sweep.  Sweeps whose symmetry does not
hold must not fold: their records equal the one-point evaluations too, and
they evaluate the points the predicates leave.  A closed form bounds the
coercive ratio on the outer ray.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracles import class_firsts

from psdo import (
    GridSpec,
    ProblemTemplate,
    SectorSweep,
    SymbolSpec,
    coercivity_sweep,
    default_sweep,
    make_model,
    multiplier_family_check,
    power_symbol,
    resolvent_sweep,
    rotated_power_symbol,
    smoothed_power_symbol,
    tasks,
    verification,
)
from psdo.operators import is_real
from psdo.symbols import is_homogeneous, is_real_valued

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
QUARTER = math.pi / 4


def _generated(n_rays, n_radii, radius_range, n_t, t_range):
    return {"phi2": QUARTER, "n_rays": n_rays, "n_radii": n_radii,
            "radius_range": list(radius_range), "n_t": n_t, "t_range": list(t_range)}


SCALAR = {"kind": "scalar", "a": 1.0, "q": 2.0}
GRID_1D = {"n": 1, "M": 64, "L": 2 * math.pi}
# the probe sweeps of perfbench/workloads.py, each with its number of classes
PROBE = {
    "resolvent-scalar": ({"task": "verify-resolvent", "grid": GRID_1D, "model": SCALAR,
                          "symbol": {"kind": "power", "m": 2.0},
                          "sweep": _generated(3, 5, (1.0, 1e6), 3, (1e-4, 1.0))}, 10),
    "resolvent-q3": ({"task": "verify-resolvent", "grid": GRID_1D,
                      "model": {"kind": "tridiagonal", "N": 8, "lower": -1.0, "diag": 2.0,
                                "upper": -1.0, "q": 3.0},
                      "symbol": {"kind": "power", "m": 2.0}, "per_axis": 9,
                      "sweep": _generated(2, 2, (1.0, 1e4), 1, (1e-2, 1.0))}, 2),
    "multipliers": ({"task": "check-multipliers", "grid": GRID_1D, "model": SCALAR,
                     "symbol": {"kind": "power", "m": 2.0}, "rbound_subsample": 2,
                     "tuple_size": 1,
                     "sweep": _generated(3, 5, (1.0, 1e4), 2, (1e-2, 1.0))}, 10),
}
# classes of the shipped scenarios (the ROADMAP baseline "Every sweep repeats its own work")
SHIPPED = {"scalar-reference": 26, "system-n8": 14, "anisotropic-2d": 10, "bvp-dirichlet": 10}
ANISOTROPIC = {"task": "verify-coercivity", "grid": {"n": 2, "M": 8, "L": 2 * math.pi},
               "model": SCALAR, "symbol": {"kind": "power", "m": 2.0},
               # three t of one direction t / t_1 = (1, 1/4), and one of another
               "sweep": {"phi2": QUARTER, "rays": [-QUARTER, 0.0, QUARTER],
                         "radii": [1.0, 1e2, 1e4],
                         "t_values": [[1.0, 0.25], [4.0, 1.0], [1.0, 4.0], [0.5, 0.125]]}}


def _values(cfg):
    return tasks.SCHEMA[cfg["task"]].value(cfg, "config")


def _sweep(values, sweep=None, data_count=2):
    """The report of a checked sweep config, on sweep when given."""
    sweep = sweep or tasks._parse_sweep(values)
    model, symbol, grid = values["model"], values["symbol"], values["grid"]
    if "data_count" in values:
        template = ProblemTemplate(model=model, symbol=symbol, grid=grid, p=values["p"])
        return coercivity_sweep(template, sweep, data_count=data_count, seed=values["seed"])
    if "per_axis" in values:
        template = ProblemTemplate(model=model, symbol=symbol, grid=grid)
        return resolvent_sweep(template, sweep, per_axis=values["per_axis"])
    return multiplier_family_check(model, symbol, sweep, dims=grid.n, rbound_subsample=1,
                                   tuple_size=1)


def _evaluated(monkeypatch) -> list:
    """The sweep indices that the sweep kernels evaluate from here on."""
    seen = []
    report = verification._sweep_report

    def recording(kind, points, kernel, *args, **kwargs):
        def counting(idxs):
            seen.extend(idxs)
            return kernel(idxs)
        return report(kind, points, counting, *args, **kwargs)

    monkeypatch.setattr(verification, "_sweep_report", recording)
    return seen


def _assert_points_alone(points, sweep, alone):
    """Each record equals alone(one-point sweep of its point)'s, to rel 1e-13;
    residuals are roundoff and agree to 1e-12."""
    assert len(points) == len(sweep.points())
    for got, (ray, radius, t) in zip(points, itertools.product(sweep.rays, sweep.radii,
                                                               sweep.t_grid)):
        (want,) = alone(SectorSweep(sweep.phi2, (ray,), (radius,), (t,))).points
        assert (got["ray"], got["radius"], got["t"], got["error"]) \
            == (want["ray"], want["radius"], want["t"], want["error"])
        assert got["ratio"] == pytest.approx(want["ratio"], rel=1e-13)
        assert got["residual"] == pytest.approx(want["residual"], rel=1e-13, abs=1e-12)
        for key in ("sigma_alpha", "fd_sup"):
            assert got.get(key, {}).keys() == want.get(key, {}).keys()
            for k, v in want.get(key, {}).items():
                assert got[key][k] == pytest.approx(v, rel=1e-13)


@pytest.mark.parametrize("name", sorted(SHIPPED) + sorted(PROBE) + ["anisotropic-t"])
def test_class_evaluation_matches_each_point_alone(name, monkeypatch):
    if name in SHIPPED:
        cfg, classes = json.loads((SCENARIOS / f"{name}.json").read_text()), SHIPPED[name]
    elif name in PROBE:
        cfg, classes = PROBE[name]
    else:
        cfg, classes = ANISOTROPIC, 2 * 3 * 2
    values = _values(cfg)
    sweep = tasks._parse_sweep(values)
    evaluated = _evaluated(monkeypatch)
    rep = _sweep(values)
    assert evaluated == sorted(set(class_firsts(sweep.points())))
    assert len(evaluated) == classes
    assert all(p["error"] is None for p in rep.points)
    _assert_points_alone(rep.points, sweep, lambda one: _sweep(values, one))


def test_worst_point_is_its_class_first_point():
    values = _values(json.loads((SCENARIOS / "scalar-reference.json").read_text()))
    rep = _sweep(values, data_count=values["data_count"])
    # the outer ray -pi/4 comes first in sweep order, and the smallest t
    assert (rep.worst["ray"], rep.worst["radius"], rep.worst["t"]) == (-QUARTER, 1e6, [1e-4])


# ---------------------------------------------------------------------------
# sweeps that must not fold


def _small_sweep():
    return default_sweep(phi2=QUARTER, n=1, n_radii=3, radius_range=(1.0, 1e2), n_t=2,
                         t_range=(1e-2, 1.0))


def _table(values):
    pts = np.linspace(-1e4, 1e4, 20001)
    return SymbolSpec(kind="user-table", m=2.0, phi1=0.5, table=(pts, values(pts)))


def _guard(monkeypatch, run, sweep, mirror, dilation):
    """run(sweep) evaluates the first point of each class that the given
    symmetries make, and each record equals its point's alone."""
    evaluated = _evaluated(monkeypatch)
    rep = run(sweep)
    assert evaluated == sorted(set(class_firsts(sweep.points(), mirror, dilation)))
    assert all(p["error"] is None for p in rep.points)
    _assert_points_alone(rep.points, sweep, run)
    return rep.points


def _spread(points, pairs):
    """The largest relative difference of the numbers (the ratio and each
    sigma_alpha) of the index pairs of points."""
    def numbers(point):
        return [point["ratio"], *point.get("sigma_alpha", {}).values()]
    return max(abs(x / y - 1.0) for a, b in pairs
               for x, y in zip(numbers(points[a]), numbers(points[b])))


# rays -pi/4, 0, pi/4 x 3 radii x 2 t: the mirror pairs and the t pairs
MIRRORED = [(k, 12 + k) for k in range(6)]
DILATED = [(k, k + 1) for k in range(0, 18, 2)]


def test_rotated_power_is_not_mirrored(monkeypatch):
    symbol = rotated_power_symbol(m=2.0, theta0=0.3)
    assert not is_real_valued(symbol) and is_homogeneous(symbol)
    template = ProblemTemplate(model=make_model(np.array([[1.0]])), symbol=symbol,
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    points = _guard(monkeypatch, lambda s: coercivity_sweep(template, s, data_count=2),
                    _small_sweep(), mirror=False, dilation=True)
    assert _spread(points, MIRRORED) > 0.1  # a mirror fold would copy wrong ratios
    points = _guard(monkeypatch, lambda s: resolvent_sweep(template, s, per_axis=9),
                    _small_sweep(), mirror=False, dilation=True)
    assert _spread(points, MIRRORED) > 0.01


def test_complex_hermitian_model_is_not_mirrored(monkeypatch):
    model = make_model(np.array([[2.0, 1j], [-1j, 3.0]]))
    assert model.kappa == 1.0 and not is_real(model)
    template = ProblemTemplate(model=model, symbol=power_symbol(m=2.0),
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    _guard(monkeypatch, lambda s: coercivity_sweep(template, s, data_count=2), _small_sweep(),
           mirror=False, dilation=True)
    _guard(monkeypatch, lambda s: multiplier_family_check(model, template.symbol, s,
                                                          rbound_subsample=1, tuple_size=1),
           _small_sweep(), mirror=False, dilation=True)


def test_complex_table_is_neither_mirrored_nor_dilated(monkeypatch):
    symbol = _table(lambda x: x**2 * (1.0 + 0.5j))
    assert not is_real_valued(symbol) and not is_homogeneous(symbol)
    template = ProblemTemplate(model=make_model(np.array([[1.0]])), symbol=symbol,
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    points = _guard(monkeypatch, lambda s: resolvent_sweep(template, s, per_axis=9),
                    _small_sweep(), mirror=False, dilation=False)
    assert _spread(points, MIRRORED) > 0.01


@pytest.mark.parametrize("symbol", [_table(lambda x: x**2 + 0j),
                                    smoothed_power_symbol(m=2.0, epsilon=1.0)],
                         ids=["real-table", "smoothed-power"])
def test_tables_and_smoothed_powers_are_not_dilated(symbol, monkeypatch):
    assert is_real_valued(symbol) and not is_homogeneous(symbol)
    template = ProblemTemplate(model=make_model(np.array([[1.0]])), symbol=symbol,
                               grid=GridSpec(n=1, M=16, L=2 * np.pi))
    for run in (lambda s: coercivity_sweep(template, s, data_count=2),
                lambda s: resolvent_sweep(template, s, per_axis=9),
                lambda s: multiplier_family_check(template.model, symbol, s,
                                                  rbound_subsample=1, tuple_size=1)):
        points = _guard(monkeypatch, run, _small_sweep(), mirror=True, dilation=False)
        assert _spread(points, DILATED) > 0.01  # a dilation fold would copy wrong ratios


def test_fixed_multiplier_frequencies_are_not_dilated(monkeypatch):
    xi = np.linspace(-30.0, 30.0, 13)[:, None]
    points = _guard(monkeypatch, lambda s: multiplier_family_check(
        make_model(np.array([[1.0]])), power_symbol(m=2.0), s, xi_samples=xi,
        rbound_subsample=1, tuple_size=1), _small_sweep(), mirror=True, dilation=False)
    assert _spread(points, DILATED) > 0.01


# ---------------------------------------------------------------------------
# a closed form


def test_outer_ray_ratio_approaches_its_supremum_from_below():
    """With A dropped, the single-mode ratio for m = 2, n = 1 on the ray
    arg lambda = -theta is (1 + sqrt(s) + s) / |e^{i theta} + s|, with
    s = t xi^2 / |lambda|, whose supremum 3 / (2 cos(theta / 2)) is taken at
    s = 1.  A = 1 weighs 1 / |lambda|, so the sweep's ratios on that ray rise
    towards the supremum with the radius and stay below it."""
    bound = 3.0 / (2.0 * math.cos(QUARTER / 2.0))
    assert bound == pytest.approx(1.6235883004, abs=1e-10)
    values = _values(json.loads((SCENARIOS / "scalar-reference.json").read_text()))
    sweep = tasks._parse_sweep(values)
    outer = SectorSweep(sweep.phi2, (-QUARTER,), sweep.radii, sweep.t_grid[:1])
    ratios = [p["ratio"] for p in _sweep(values, outer).points]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < bound and bound - ratios[-1] < 1e-6 * bound
    rep = _sweep(values, data_count=values["data_count"])
    assert rep.max_ratio == ratios[-1]
