"""Command-line front end: JSON-configured scenarios producing a deterministic
report.json, and for a task with `export_fields` the solved field: every value
in solution.npy, and its final time slice as text in solution.txt.

Exit codes: 0 pass, 1 execution failure, 2 config failure, 3 verdict failure.
Reports carry no timestamps and serialize with sorted keys so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .elliptic import (
    EllipticProblem,
    LowerTerm,
    graph_norm,
    solve_full,
)
from .errors import ConfigError, PsdoError
from .operators import (
    OperatorModel,
    build_bvp_operator,
    build_system,
    make_model,
    tridiagonal_matrix,
)
from .parabolic import (
    METHODS,
    ParabolicProblem,
    evolve_spectra,
    parabolic_diagnostics,
    solution_on_grid,
)
from .spaces import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    export_columnar,
    gaussian_field,
    lattice_mesh,
    lp_lq_norm,
    mode_field,
    random_band_limited_field,
)
from .sweep import SectorSweep, default_sweep
from .symbols import (
    MultiIndex,
    ScaleParams,
    SymbolSpec,
    _signed_logspace,
    check_symbol_class,
)
from .verification import (
    KAHANE_MAX,
    ProblemTemplate,
    TUPLE_MAX,
    _kahane_checks,
    coercivity_sweep,
    estimate_rbound,
    lambda_resolvent_family,
    multiplier_family_check,
    probe_norm,
    resolvent_sweep,
)

EXIT_PASS = 0
EXIT_EXECUTION = 1
EXIT_CONFIG = 2
EXIT_VERDICT = 3


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"config {path} is empty")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, sets) -> dict:
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return cfg


# ---------------------------------------------------------------------------
# config schema: each table maps a key to its type, range and default (or
# REQUIRED).  SCHEMA[task].value(cfg, "config") checks every key and value of
# a config before any work starts and returns the typed values the handlers
# read.  `null` for an optional key is the same as leaving the key out.

REQUIRED = object()


def _checked(where: str, make, *args, **kwargs):
    """make(*args, **kwargs); the TypeError, ValueError or KeyError raised by
    a library constructor's own domain checks is a config error, and so is an
    OverflowError of a value beyond the float range."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class _Type:
    """A config value's type: `check` accepts or rejects the raw value, and
    `make`, when given, turns the checked value into the typed one."""

    default: object = field(default=REQUIRED, kw_only=True)
    make: object = field(default=None, kw_only=True)

    def fail(self, value, where: str):
        raise ConfigError(f"{where} must be {self.what}, got {value!r}")

    def value(self, raw, where: str):
        checked = self.check(raw, where)
        return checked if self.make is None else _checked(where, self.make, checked)


@dataclass(frozen=True)
class Scalar(_Type):
    """A JSON value that `test` accepts."""

    what: str
    test: object

    def check(self, value, where):
        if not self.test(value):
            self.fail(value, where)
        return value


def integer(least: int = 1, most: float = math.inf, **kw) -> Scalar:
    what = f"an integer >= {least}" if most == math.inf else f"an integer from {least} to {most}"
    return Scalar(what, lambda v: type(v) is int and least <= v <= most, **kw)


def _finite(value) -> bool:
    """A JSON number other than NaN and +-Infinity (an integer beyond floats fails to convert)."""
    return type(value) in (int, float) and abs(value) < math.inf


def number(what: str = "a number", test=lambda x: True, **kw) -> Scalar:
    """A finite JSON number that `test` accepts, as a float."""
    return Scalar(what, lambda v: _finite(v) and test(v), make=float, **kw)


def choice(*options, **kw) -> Scalar:
    return Scalar(f"one of {list(options)}", lambda v: type(v) is str and v in options, **kw)


def boolean(**kw) -> Scalar:
    return Scalar("true or false", lambda v: type(v) is bool, **kw)


def _numeric(value) -> bool:
    if isinstance(value, list):
        return all(_numeric(v) for v in value)
    return _finite(value)


@dataclass(frozen=True)
class List(_Type):
    """A list of `item` values: exactly `size` of them, or at least `least`."""

    item: _Type
    least: int = 0
    size: int = None

    @property
    def what(self):
        count = f"{self.least} or more" if self.size is None else self.size
        return f"a list of {count} entries, each {self.item.what}"

    def check(self, value, where):
        if not isinstance(value, list) or len(value) < self.least \
                or self.size not in (None, len(value)):
            self.fail(value, where)
        return [self.item.value(v, f"{where}[{i}]") for i, v in enumerate(value)]


@dataclass(frozen=True)
class Table(_Type):
    """An object holding only the keys of `keys`, each checked by its type."""

    keys: dict
    what = "an object"

    def check(self, value, where):
        if not isinstance(value, dict):
            self.fail(value, where)
        missing = [k for k, kind in self.keys.items()
                   if kind.default is REQUIRED and k not in value]
        if missing:
            raise ConfigError(f"{where} missing required keys: {missing}")
        unknown = sorted(set(value) - set(self.keys))
        if unknown:
            raise ConfigError(f"{where} has unknown keys: {unknown}")
        out = {}
        for key, kind in self.keys.items():
            raw = value.get(key)
            if raw is None and kind.default is not REQUIRED:
                raw = kind.default
            out[key] = None if raw is None and kind.default is None \
                else kind.value(raw, f"{where}.{key}")
        return out


@dataclass(frozen=True)
class Switch(_Type):
    """A value checked by the type of `types` that `pick(value)` names."""

    what: str
    pick: object
    types: dict

    def check(self, value, where):
        name = self.pick(value)
        if name not in tuple(self.types):
            self.fail(value, where)
        return self.types[name].value(value, where)


def either(scalar: _Type, nested: List, **kw) -> Switch:
    """`nested` checks a list, `scalar` any value but a list or an object (which fails both)."""
    return Switch(f"{scalar.what} or {nested.what}", lambda v: None if isinstance(v, dict)
                  else isinstance(v, list), {False: scalar, True: nested}, **kw)


def kinds(tag: str, tables: dict, tag_default: str = None, **kw) -> Switch:
    """An object whose `tag` key (`tag_default` when absent) names the table
    of its keys."""
    return Switch(f"an object with {tag} one of {list(tables)}",
                  lambda v: v.get(tag, tag_default) if isinstance(v, dict) else None,
                  {name: Table({tag: choice(name, default=tag_default), **keys})
                   for name, keys in tables.items()}, **kw)


def _model(v: dict) -> OperatorModel:
    kind, q = v["kind"], v["q"]
    if kind == "bvp":
        return build_bvp_operator(v["K"], v["ell"], v["b2"], v["b1"], v["b0"], q=q)
    if kind == "tridiagonal":
        A = tridiagonal_matrix(v["N"], v["lower"], v["diag"], v["upper"])
        return replace(build_system(A), q=q)
    return make_model([[v["a"]]] if kind == "scalar" else v["entries"], q=q)


def _table(v: list) -> tuple:
    """(points, complex values) of a checked [points, real values, imag values]."""
    re, im = np.array(v[1:])  # unequal lengths are a ValueError
    return np.array(v[0]), re + 1j * im


# An l_q or L_p exponent, the one number that may be Infinity: below 1 it is no norm, and
# the L_p quadrature can overflow.
Q = Scalar("a number >= 1 or Infinity", lambda v: type(v) in (int, float) and v >= 1,
           make=float, default=2.0)
POSITIVE = number("a number > 0", lambda x: x > 0)  # a width of 0 would make a field NaN
ARRAY = Scalar("a number or nested lists of numbers", _numeric,
               make=lambda v: np.array(v, dtype=complex))  # ragged nesting is a ValueError
OPTIONAL_ARRAY = replace(ARRAY, default=None)
COMPLEX = either(number(), List(number(), size=2),  # a number or [re, im]
                 make=lambda v: complex(*v) if isinstance(v, list) else complex(v))
SCALE = either(number(), List(number(), least=1))  # one value for every axis, or one per axis
GRID = Table({"n": integer(), "M": Scalar("an even integer >= 4", lambda v: type(v) is int
                                          and v >= 4 and v % 2 == 0), "L": POSITIVE},
             make=lambda v: GridSpec(**v))
MODEL = kinds("kind", {
    "scalar": {"a": number(default=1.0), "q": Q},
    "matrix": {"entries": ARRAY, "q": Q},
    "tridiagonal": {"N": integer(), "lower": number(default=-1.0), "diag": number(default=2.0),
                    "upper": number(default=-1.0), "q": Q},
    "bvp": {"K": integer(3), "ell": number(), "b2": number(default=1.0),
            "b1": number(default=None), "b0": number(default=None), "q": Q},
}, make=_model)
SYMBOL_KEYS = {"m": POSITIVE, "gamma": replace(POSITIVE, default=1.0),
               "phi1": number(default=None)}
SYMBOL = kinds("kind", {
    "power": SYMBOL_KEYS,
    "rotated-power": {**SYMBOL_KEYS, "theta0": number(default=0.0)},
    "smoothed-power": {**SYMBOL_KEYS, "epsilon": number(default=0.0)},
    "user-table": {**SYMBOL_KEYS, "table": List(List(number(), least=1), size=3, make=_table)},
}, make=lambda v: SymbolSpec(**v))  # phi1 defaults to |theta0|
SWEEP = Switch(  # explicit rays and radii, or the generated form; never both
    "an object", lambda v: "explicit" if isinstance(v, dict)
    and not {"rays", "radii", "t_values"}.isdisjoint(v) else "generated", {
        "explicit": Table({"phi2": number(), "rays": List(number(), least=1, default=[0.0]),
                           "radii": List(number("a number >= 0", lambda x: x >= 0), least=1),
                           "t_values": List(SCALE, least=1, default=[1.0])}),
        "generated": Table({"phi2": number(), "n_rays": integer(default=3),
                            "n_radii": integer(default=13),
                            "radius_range": List(POSITIVE, size=2, default=[1.0, 1e6]),
                            "n_t": integer(default=5),
                            "t_range": List(POSITIVE, size=2, default=[1e-4, 1.0])})})
GAUSSIAN = {"kind": choice("gaussian"), "width": replace(POSITIVE, default=None),
            "vector": OPTIONAL_ARRAY}
DATA = kinds("kind", {
    "gaussian": GAUSSIAN,
    "mode": {"xi0": List(number(), default=None), "vector": OPTIONAL_ARRAY},
    "random": {"fraction": number(default=0.25)},
})
FORCING = kinds("time_profile", {"sin": {**GAUSSIAN, "omega": number(default=1.0)},
                                 "ramp": GAUSSIAN, "constant": GAUSSIAN}, tag_default="sin")
LOWER_TERM = Table({"alpha": List(number(), make=lambda a: MultiIndex(tuple(a))),
                    "coefficient": ARRAY})  # a number c is c I
TUPLE_SIZE = integer(most=TUPLE_MAX, default=3)  # its 2^size sign patterns are enumerated
FAMILY = kinds("kind", {
    "lambda-resolvent": {"model": MODEL, "lambdas": List(COMPLEX, least=1)},
    "matrices": {"members": List(ARRAY, least=1)},
})


def _sweep_task(thresholds, **keys) -> dict:
    """The keys of a sweep task; its `thresholds` become the sweep's
    `<key>_threshold` arguments."""
    return {"grid": GRID, "model": MODEL, "symbol": SYMBOL, "sweep": SWEEP,
            "thresholds": Table({k: number(default=None) for k in thresholds}, default={},
                                make=lambda th: {f"{k}_threshold": x for k, x in th.items()}),
            **keys}


TASKS = {}  # task name: handler(checked values, seed)
SCHEMA = {}  # task name: the table of its config


def _task(name: str, keys: dict):
    """Register a task handler with the keys of its config (besides `task`
    and `seed`, which every task accepts)."""
    def register(handler):
        TASKS[name] = handler
        SCHEMA[name] = Table({**keys, "task": choice(name, default=None),
                              "seed": integer(0, default=0)})
        return handler
    return register


# ---------------------------------------------------------------------------
# objects built from checked values whose checks need more than one key


def _parse_scale(v, n: int) -> ScaleParams:
    """The scale parameters of a checked `t` value on n axes."""
    t = v if isinstance(v, list) else [v] * n
    if len(t) != n:
        raise ConfigError(f"t needs n = {n} entries, got {t}")
    return _checked("t", ScaleParams, tuple(t))


def _parse_sweep(v: dict) -> SectorSweep:
    """The sector sweep of a sweep task's checked values."""
    s, n, phi1 = v["sweep"], v["grid"].n, v["symbol"].phi1
    if phi1 + s["phi2"] >= math.pi:
        raise ConfigError(
            f"symbol sector angle plus sweep sector angle must stay below pi "
            f"(phi1 + phi2 = {phi1 + s['phi2']:.6f})")
    if "radii" in s:
        return _checked("sweep", SectorSweep, phi2=s["phi2"], rays=tuple(s["rays"]),
                        radii=tuple(s["radii"]),
                        t_grid=tuple(_parse_scale(t, n) for t in s["t_values"]))
    return _checked("sweep", default_sweep, phi2=s["phi2"], n=n, n_rays=s["n_rays"],
                    n_radii=s["n_radii"], n_t=s["n_t"], radius_range=tuple(s["radius_range"]),
                    t_range=tuple(s["t_range"]))


def _parse_data(v: dict, prob: EllipticProblem, rng=None, where: str = "data") -> SampledField:
    """The field of a checked data value, or the spatial part of a forcing."""
    grid, N = prob.grid, prob.model.N
    if v["kind"] == "random":
        return random_band_limited_field(grid, N, rng, fraction=v["fraction"])
    vector = np.ones(N, dtype=complex) if v["vector"] is None else np.atleast_1d(v["vector"])
    if vector.shape != (N,):
        raise ConfigError(f"{where}.vector must have N = {N} entries, got shape {vector.shape}")
    if v["kind"] == "gaussian":
        return _checked(where, gaussian_field, grid, width=v["width"], vector=vector)
    xi0 = [1.0] * grid.n if v["xi0"] is None else v["xi0"]
    if len(xi0) != grid.n:
        raise ConfigError(f"data.xi0 must have n = {grid.n} entries, got {xi0}")
    return _checked(where, mode_field, grid, xi0, vector)


def _parse_problem(v: dict, lam: complex, lower_terms=()) -> EllipticProblem:
    """The elliptic problem of checked values.  Its own consistency checks
    (angle arithmetic, dimensions, lower-term orders and coefficient shapes)
    are config errors."""
    N = v["model"].N
    terms = tuple(LowerTerm(alpha=item["alpha"], coefficient=c * np.eye(N) if c.ndim == 0 else c)
                  for item in lower_terms for c in [item["coefficient"]])
    return _checked("problem", EllipticProblem, model=v["model"], symbol=v["symbol"],
                    t=_parse_scale(v["t"], v["grid"].n), lam=lam, grid=v["grid"],
                    lower_terms=terms)


def _parse_forcing(v: dict, ell: EllipticProblem) -> tuple:
    """The time profile, sampled at the steps + 1 times of the partition, and
    the spatial base of a solve-parabolic task's forcing."""
    f, Y, J = v["forcing"], v["horizon"], v["steps"]
    base = _parse_data(f, ell, where="forcing")
    times = np.linspace(0.0, Y, J + 1)
    if f["time_profile"] == "sin":
        with np.errstate(over="ignore", invalid="ignore"):  # checked next, as one message
            phases = math.pi * f["omega"] * times / Y
        if not np.isfinite(phases).all():
            raise ConfigError(f"forcing.omega {f['omega']} makes the phase pi omega y / horizon "
                              f"overflow")
        profile = np.sin(phases)
    elif f["time_profile"] == "ramp":
        profile = times / Y
    else:
        profile = np.ones_like(times)
    return profile, base


# ---------------------------------------------------------------------------
# report output


def _sanitize(obj):
    """JSON-ready, deterministic report content: numpy scalars become Python
    numbers, NaN and infinities strings (a complex value fails in json.dumps)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _sanitize(obj.item())
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_reports(out_dir: str, report: dict, export=None):
    """Write report.json to `out_dir`, and the field `export`, when given: its
    values to solution.npy, and its last time slice (a SampledField is one) to
    solution.txt.  These are every file the CLI writes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(_sanitize(report), sort_keys=True, indent=2,
                         allow_nan=False) + "\n"
    (out / "report.json").write_text(payload)
    if export is not None:
        np.save(out / "solution.npy", export.values, allow_pickle=False)
        final = export.slice(-1) if isinstance(export, SpaceTimeField) else export
        (out / "solution.txt").write_text(export_columnar(final))


# ---------------------------------------------------------------------------
# task handlers: each takes the checked values and the seed and returns
# (verdict, result dict, the field to export or None)


def _verdict(ok) -> str:
    return "pass" if ok else "fail"


@_task("solve-elliptic", {
    "grid": GRID, "model": MODEL, "symbol": SYMBOL, "t": SCALE, "lambda": COMPLEX,
    "data": DATA, "p": Q, "lower_terms": List(LOWER_TERM, default=[]),
    "residual_tol": number(default=1e-8), "export_fields": boolean(default=False)})
def _task_solve_elliptic(v, seed):
    prob = _parse_problem(v, v["lambda"], v["lower_terms"])
    f = _parse_data(v["data"], prob, np.random.default_rng(seed))
    u, it = solve_full(prob, f, seed=seed)
    residual = it.residuals[-1]
    onorm, hnorm, gratio = graph_norm(prob, u, p=v["p"])
    result = {
        "residual": residual,
        "residual_tol": v["residual_tol"],
        "iterations": it.iterations,
        "contraction": it.contraction,
        "contraction_exact": it.contraction_exact,
        "solution_norm": lp_lq_norm(u, v["p"], prob.model.q),
        "data_norm": lp_lq_norm(f, v["p"], prob.model.q),
        "graph_norm": {"operator": onorm, "sobolev": hnorm, "ratio": gratio},
    }
    return _verdict(residual < v["residual_tol"]), result, u if v["export_fields"] else None


@_task("solve-parabolic", {
    "grid": GRID, "model": MODEL, "symbol": SYMBOL, "t": SCALE, "horizon": POSITIVE,
    "steps": integer(), "forcing": FORCING, "p": Q, "p1": Q,
    "method": choice(*METHODS, default="duhamel"),
    "residual_tol": number(default=1e-2),  # the time discretization limits the residual
    "export_fields": boolean(default=False)})
def _task_solve_parabolic(v, seed):
    ell = _parse_problem(v, 0.0)
    prob = _checked("forcing", ParabolicProblem, ell, *_parse_forcing(v, ell), v["horizon"])
    u_hat, f0_hat = evolve_spectra(prob, v["method"])
    ratio, residual, forcing_norm, solution_norm = parabolic_diagnostics(
        prob, u_hat, f0_hat, v["p"], v["p1"])
    result = {
        "method": v["method"],
        "steps": v["steps"],
        "horizon": v["horizon"],
        "coercive_ratio": ratio,
        "residual": residual,
        "residual_tol": v["residual_tol"],
        "solution_norm": solution_norm,
        "forcing_norm": forcing_norm,
    }
    ok = (ratio is None or math.isfinite(ratio)) and residual < v["residual_tol"]
    return _verdict(ok), result, solution_on_grid(prob, u_hat) if v["export_fields"] else None


@_task("verify-coercivity", _sweep_task(("flatness", "max_ratio"), p=Q,
                                       data_count=integer(2, default=8)))
def _task_verify_coercivity(v, seed):
    template = ProblemTemplate(model=v["model"], symbol=v["symbol"], grid=v["grid"], p=v["p"])
    rep = coercivity_sweep(template, _parse_sweep(v), data_count=v["data_count"], seed=seed,
                           **v["thresholds"])
    return rep.status, rep.to_dict(), None


@_task("verify-resolvent", _sweep_task(("flatness", "max_ratio"), per_axis=integer(default=33)))
def _task_verify_resolvent(v, seed):
    template = ProblemTemplate(model=v["model"], symbol=v["symbol"], grid=v["grid"])
    rep = resolvent_sweep(template, _parse_sweep(v), per_axis=v["per_axis"], **v["thresholds"])
    return rep.status, rep.to_dict(), None


@_task("check-multipliers", _sweep_task(("flatness", "sigma_sup"),
                                       rbound_subsample=integer(default=8),
                                       tuple_size=TUPLE_SIZE))
def _task_check_multipliers(v, seed):
    rep = multiplier_family_check(
        v["model"], v["symbol"], _parse_sweep(v), dims=v["grid"].n,
        rbound_subsample=v["rbound_subsample"], tuple_size=v["tuple_size"], seed=seed,
        **v["thresholds"])
    return rep.status, rep.to_dict(), None


@_task("estimate-rbound", {"family": FAMILY, "q": Q, "tuple_size": TUPLE_SIZE})
def _task_estimate_rbound(v, seed):
    family, q = v["family"], v["q"]
    if family["kind"] == "lambda-resolvent":
        members = lambda_resolvent_family(family["model"], family["lambdas"])
    else:
        members = [np.atleast_2d(mv) for mv in family["members"]]
        shapes = {mv.shape for mv in members}
        if len(shapes) > 1 or any(len(shape) != 2 for shape in shapes):
            raise ConfigError(f"family.members must be matrices of one shape, got {shapes}")
    est = estimate_rbound(members, q=q, seed=seed, tuple_size=v["tuple_size"])
    result = {
        "rbound_lower": est.value,
        "upper": est.upper,
        "tuple_indices": list(est.tuple_indices),
        "tuples_tried": est.tuples_tried,
        "family_size": len(members),
        "singleton_probe_norm": probe_norm(members[0], q=q, seed=seed + 1)
        if len(members) == 1 else None,
    }
    return _verdict(math.isfinite(est.value)), result, None


@_task("check-kahane", {"q": Q, "scalars": OPTIONAL_ARRAY, "vectors": OPTIONAL_ARRAY,
                      "random": Table({"count": integer(),
                                       "m": integer(most=KAHANE_MAX, default=6),
                                       "N": integer(default=4)}, default=None)})
def _task_check_kahane(v, seed):
    q, scalars, vectors, rand = v["q"], v["scalars"], v["vectors"], v["random"]
    if (scalars is None) != (vectors is None) or (scalars is None and rand is None):
        raise ConfigError("check-kahane needs 'scalars' and 'vectors' together, or 'random'")
    # a vector of length 1 may be given as a number
    if scalars is not None and (scalars.ndim != 1 or vectors.ndim not in (1, 2)
                                or len(vectors) != len(scalars) or not len(scalars)):
        raise ConfigError(f"need m scalars and m vectors of one length, got shapes "
                          f"{scalars.shape} and {vectors.shape}")
    checks = [] if scalars is None else [
        _kahane_checks(scalars[None], vectors.reshape(len(vectors), -1)[None], q)]
    if rand is not None:
        rng = np.random.default_rng(seed)
        m, N, count = rand["m"], rand["N"], rand["count"]
        # every instance's scalars, then every vector as N real, then N imaginary parts
        scal = rng.uniform(-1.0, 1.0, size=(count, m))
        draws = rng.standard_normal((count, m, 2, N))
        # a (count, m, N) view of slot-major storage, the layout the kernel takes
        vecs = np.empty((m, count, N), dtype=complex).transpose(1, 0, 2)
        vecs.real, vecs.imag = draws[:, :, 0], draws[:, :, 1]
        del draws  # no temporaries, and no draws held: peak memory as in one draw per instance
        checks.append(_kahane_checks(scal, vecs, q))
    constants, scales, _, verdicts = (np.concatenate(a) for a in zip(*checks))
    ok = bool(verdicts.all())
    result = {
        "instances": len(constants),
        "worst_normalized_constant": (constants / np.maximum(scales, 1e-300)).max(),
        "all_within_bound": ok,
    }
    return _verdict(ok), result, None


@_task("check-symbol", {"symbol": SYMBOL, "t_values": List(SCALE, least=1),
                      "xi": Table({"lo": POSITIVE, "hi": number(), "count": integer()}),
                      "n": integer(default=1)})
def _task_check_symbol(v, seed):
    n, xi = v["n"], v["xi"]
    if xi["lo"] > xi["hi"]:
        raise ConfigError(f"xi needs lo <= hi, got lo {xi['lo']}, hi {xi['hi']}")
    t_grid = [_parse_scale(t, n) for t in v["t_values"]]
    vals = _signed_logspace(math.log10(xi["lo"]), math.log10(xi["hi"]), xi["count"])
    rep = check_symbol_class(v["symbol"], t_grid, lattice_mesh(vals, n).reshape(-1, n))
    result = {
        "constants": {str(k): c for k, c in rep.constants.items()},
        "sector_ok": rep.sector_ok,
        "lower_margin": rep.lower_margin,
        "samples": rep.samples,
    }
    return _verdict(rep.verdict), result, None


def _run_task(task: str, cfg: dict, args) -> int:
    values = SCHEMA[task].value(cfg, "config")
    seed = args.seed if args.seed is not None else values["seed"]
    verdict, result, export = TASKS[task](values, seed)
    report = {
        "version": __version__,
        "task": task,
        "seed": seed,
        "config": cfg,
        "result": result,
        "verdict": verdict,
    }
    _write_reports(args.out, report, export)
    print(f"{task}: {verdict}")
    return EXIT_PASS if verdict in ("pass", "not-applicable") else EXIT_VERDICT


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="psdo",
        description="Spectral solves and uniform-estimate sweeps for "
                    "parameter-elliptic operator equations.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=list(TASKS) + ["run-scenario"], metavar="COMMAND",
                        help="one of %(choices)s")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a (dotted) config key")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".", help="output directory for reports")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:  # as the config's `seed`
        parser.error(f"--seed must be >= 0, got {args.seed}")
    nearest = Path(args.out).absolute()  # the directory to write in, or to make it in
    while not os.path.exists(nearest):
        nearest = nearest.parent
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        parser.error(f"--out must be a writable directory or a path to make one in, "
                     f"got {args.out}")
    try:
        cfg = _load_config(args.config)
        cfg = _apply_overrides(cfg, args.set)
        # a task command checks the config's own `task` key against its table
        task = cfg.get("task") if args.command == "run-scenario" else args.command
        if task not in tuple(TASKS):
            raise ConfigError(f"scenario must declare a valid 'task', got {task!r}")
        return _run_task(task, cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PsdoError as exc:
        print(f"execution failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EXECUTION


if __name__ == "__main__":
    sys.exit(main())
