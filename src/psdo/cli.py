"""Command-line front end: JSON-configured scenarios producing deterministic
report.json / report.csv artifacts.

Exit codes: 0 pass, 1 execution failure, 2 config failure, 3 verdict failure.
Reports carry no timestamps and serialize with sorted keys so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
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
    ParabolicProblem,
    parabolic_diagnostics,
    solve_duhamel,
    solve_implicit_euler,
)
from .spaces import (
    GridSpec,
    SampledField,
    SpaceTimeField,
    export_columnar,
    gaussian_field,
    lp_lq_norm,
    mixed_norm,
    mode_field,
    product_mesh,
    random_band_limited_field,
)
from .sweep import SectorSweep, default_sweep
from .symbols import (
    MultiIndex,
    ScaleParams,
    _signed_logspace,
    check_symbol_class,
    symbol_from_config,
)
from .verification import (
    ProblemTemplate,
    _kahane_checks,
    coercivity_sweep,
    estimate_rbound,
    kahane_contraction_check,
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


def _expect_keys(d: dict, where: str, required=(), optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{where} missing required keys: {missing}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {unknown}")


def _expect_kind(cfg: dict, where: str, kinds: dict) -> str:
    """The `kind` of a config object that may hold only the keys its kind
    reads; `kinds` maps each kind to its (required, optional) other keys."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    kind = cfg.get("kind")
    if kind not in tuple(kinds):
        raise ConfigError(f"{where} kind must be one of {list(kinds)}, got {kind!r}")
    required, optional = kinds[kind]
    _expect_keys(cfg, f"{where} of kind {kind!r}", required=("kind",) + required,
                 optional=optional)
    return kind


def _positive_int(cfg: dict, key: str, where: str, default=None, least: int = 1) -> int:
    """cfg[key] (or the default when absent), which must be an integer >= least."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{where}.{key} must be an integer >= {least}, got {value!r}")
    return value


def _number(cfg: dict, key: str, where: str, default=None) -> float:
    """cfg[key] (or the default when absent) as a float: a JSON number, not NaN."""
    value = cfg.get(key, default)
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and not math.isnan(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(f"{where}.{key} must be a number, got {value!r}")


def _parse_grid(cfg: dict) -> GridSpec:
    _expect_keys(cfg, "grid", required=("n", "M", "L"))
    try:
        return GridSpec(n=int(cfg["n"]), M=int(cfg["M"]), L=float(cfg["L"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_symbol(cfg: dict):
    try:
        return symbol_from_config(cfg)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"symbol: {exc}") from exc


def _parse_scale(cfg, n: int) -> ScaleParams:
    try:
        if isinstance(cfg, (int, float)):
            return ScaleParams.isotropic(float(cfg), n)
        _expect_keys(cfg, "t", required=("t",), optional=("t0",))
        vals = cfg["t"]
        if isinstance(vals, (int, float)):
            vals = [vals] * n
        return ScaleParams(tuple(float(v) for v in vals),
                           t0=float(cfg.get("t0", max(1.0, max(vals)))))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"t: {exc}") from exc


def _parse_model(cfg: dict) -> OperatorModel:
    _expect_keys(cfg, "model", required=("kind",),
                 optional=("a", "q", "entries", "N", "lower", "diag", "upper",
                           "K", "ell", "b2", "b1", "b0", "system"))
    kind = cfg["kind"]
    q = float(cfg.get("q", 2.0))
    try:
        if kind == "scalar":
            return make_model(np.array([[float(cfg.get("a", 1.0))]]), q=q)
        if kind == "matrix":
            return make_model(np.array(cfg["entries"], dtype=complex), q=q)
        if kind == "tridiagonal":
            A = tridiagonal_matrix(int(cfg["N"]), float(cfg.get("lower", -1.0)),
                                   float(cfg.get("diag", 2.0)), float(cfg.get("upper", -1.0)))
            if cfg.get("system", True):
                return dataclasses.replace(build_system(A), q=q)
            return make_model(A, q=q)
        if kind == "bvp":
            return build_bvp_operator(int(cfg["K"]), float(cfg["ell"]),
                                      cfg.get("b2", 1.0), cfg.get("b1"),
                                      cfg.get("b0"), q=q)
    except KeyError as exc:
        raise ConfigError(f"model kind {kind!r} missing key {exc}") from exc
    except PsdoError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def _parse_sweep(cfg: dict, n: int, phi1: float) -> SectorSweep:
    _expect_keys(cfg, "sweep", required=("phi2",),
                 optional=("n_rays", "n_radii", "radius_range", "n_t", "t_range",
                           "rays", "radii", "t_values"))
    phi2 = float(cfg["phi2"])
    if phi1 + phi2 >= math.pi:
        raise ConfigError(
            f"symbol sector angle plus sweep sector angle must stay below pi "
            f"(phi1 + phi2 = {phi1 + phi2:.6f})")
    try:
        if "rays" in cfg or "radii" in cfg:
            rays = tuple(float(r) for r in cfg.get("rays", (0.0,)))
            radii = tuple(float(r) for r in cfg["radii"])
            tvals = cfg.get("t_values", [1.0])
            t_grid = tuple(_parse_scale(v, n) for v in tvals)
            sweep = SectorSweep(phi2=phi2, rays=rays, radii=radii, t_grid=t_grid)
        else:
            sweep = default_sweep(
                phi2=phi2, n=n, n_rays=int(cfg.get("n_rays", 3)),
                n_radii=int(cfg.get("n_radii", 13)), n_t=int(cfg.get("n_t", 5)),
                radius_range=tuple(cfg.get("radius_range", (1.0, 1e6))),
                t_range=tuple(cfg.get("t_range", (1e-4, 1.0))))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if not (sweep.rays and sweep.radii and sweep.t_grid):
        raise ConfigError("sweep: rays, radii and the t-grid must each be non-empty")
    return sweep


def _parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"expected number or [re, im] pair, got {value!r}")


def _parse_vector(cfg: dict, where: str, N: int) -> np.ndarray:
    """The component `vector` of a data or forcing config (default all ones)."""
    try:
        vector = np.atleast_1d(np.asarray(cfg.get("vector", [1.0] * N), dtype=complex))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.vector: {exc}") from exc
    if vector.shape != (N,):
        raise ConfigError(f"{where}.vector must have N = {N} entries, got shape {vector.shape}")
    return vector


DATA_KINDS = {"gaussian": ((), ("width", "vector")), "mode": ((), ("xi0", "vector")),
              "random": ((), ("fraction",))}


def _parse_data(cfg: dict, grid: GridSpec, N: int, q: float, rng) -> SampledField:
    kind = _expect_kind(cfg, "data", DATA_KINDS)
    if kind == "random":
        fraction = float(cfg.get("fraction", 0.25))
        return random_band_limited_field(grid, N, rng, q=q, fraction=fraction)
    vector = _parse_vector(cfg, "data", N)
    if kind == "gaussian":
        return gaussian_field(grid, width=cfg.get("width"), vector=vector, q=q)
    return mode_field(grid, cfg.get("xi0", [1.0] * grid.n), vector, q=q)


def _parse_problem(cfg: dict, **parts) -> EllipticProblem:
    """The elliptic problem of parsed config parts and the config's lower_terms.

    The problem's consistency checks (angle arithmetic, dimensions, lower-term
    orders and coefficient shapes) are config errors.
    """
    N = parts["model"].N
    terms = []
    try:
        for i, item in enumerate(cfg.get("lower_terms") or []):
            _expect_keys(item, f"lower_terms[{i}]", required=("alpha", "coefficient"))
            alpha = MultiIndex(tuple(float(a) for a in item["alpha"]))
            coeff = item["coefficient"]
            if isinstance(coeff, (int, float)):
                coeff = coeff * np.eye(N)
            else:
                coeff = np.array(coeff, dtype=complex)
            terms.append(LowerTerm(alpha=alpha, coefficient=coeff))
        return EllipticProblem(lower_terms=tuple(terms), **parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc


# ---------------------------------------------------------------------------
# report output


def _csv_row(ray, radius, t, ratio, residual, verdict):
    tstr = "" if t is None else ";".join(repr(float(v)) for v in t)
    fmt = lambda v: "" if v is None else repr(float(v))
    return f"{fmt(ray)},{fmt(radius)},{tstr},{fmt(ratio)},{fmt(residual)},{verdict}"


def _sweep_csv(report_dict: dict):
    rows = []
    for p in report_dict.get("points", []):
        verdict = "ok" if p.get("error") is None else "error"
        rows.append(_csv_row(p.get("ray"), p.get("radius"), p.get("t"),
                             p.get("ratio"), p.get("residual"), verdict))
    return rows


def _sanitize(obj):
    """Make report content JSON-serializable and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _sanitize(obj.item())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_reports(out_dir: str, report: dict, csv_rows, extra_files=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(_sanitize(report), sort_keys=True, indent=2,
                         allow_nan=False) + "\n"
    (out / "report.json").write_text(payload)
    lines = ["ray,radius,t,ratio,residual,verdict"] + list(csv_rows)
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    for name, text in (extra_files or {}).items():
        (out / name).write_text(text)


# ---------------------------------------------------------------------------
# task handlers: each returns (verdict_string, result_dict, csv_rows, extras)


def _task_solve_elliptic(cfg, seed):
    _expect_keys(cfg, "config",
                 required=("grid", "model", "symbol", "t", "lambda", "data"),
                 optional=("task", "p", "lower_terms", "residual_tol",
                           "export_fields", "seed"))
    p = _number(cfg, "p", "config", 2.0)
    tol = _number(cfg, "residual_tol", "config", 1e-8)
    grid = _parse_grid(cfg["grid"])
    model = _parse_model(cfg["model"])
    symbol = _parse_symbol(cfg["symbol"])
    t = _parse_scale(cfg["t"], grid.n)
    lam = _parse_complex(cfg["lambda"])
    rng = np.random.default_rng(seed)
    f = _parse_data(cfg["data"], grid, model.N, model.q, rng)
    prob = _parse_problem(cfg, model=model, symbol=symbol, t=t, lam=lam, grid=grid)
    u, it = solve_full(prob, f, seed=seed)
    residual = it.residuals[-1]
    onorm, hnorm, gratio = graph_norm(prob, u, p=p)
    verdict = "pass" if residual < tol else "fail"
    result = {
        "residual": residual,
        "residual_tol": tol,
        "iterations": it.iterations,
        "contraction": it.contraction,
        "contraction_exact": it.contraction_exact,
        "solution_norm": lp_lq_norm(u, p),
        "data_norm": lp_lq_norm(f, p),
        "graph_norm": {"operator": onorm, "sobolev": hnorm, "ratio": gratio},
    }
    rows = [_csv_row(np.angle(lam) if lam != 0 else 0.0, abs(lam), t.t,
                     gratio, residual, verdict)]
    extras = {}
    if cfg.get("export_fields"):
        extras["solution.txt"] = export_columnar(u)
    return verdict, result, rows, extras


def _parse_forcing(cfg: dict, grid: GridSpec, N: int, q: float, Y: float, J: int,
                   p: float, p1: float) -> SpaceTimeField:
    _expect_kind(cfg, "forcing", {"gaussian": ((), ("width", "vector", "time_profile",
                                                     "omega"))})
    vector = _parse_vector(cfg, "forcing", N)
    base = gaussian_field(grid, width=cfg.get("width"), vector=vector, q=q)
    times = np.linspace(0.0, Y, J + 1)
    profile = cfg.get("time_profile", "sin")
    if "omega" in cfg and profile != "sin":
        raise ConfigError(f"forcing.omega is read only by the 'sin' time profile, not {profile!r}")
    if profile == "sin":
        weights = np.sin(math.pi * _number(cfg, "omega", "forcing", 1.0) * times / Y)
    elif profile == "ramp":
        weights = times / Y
    elif profile == "constant":
        weights = np.ones_like(times)
    else:
        raise ConfigError(f"unknown time profile {profile!r}")
    vals = weights[(...,) + (None,) * (grid.n + 1)] * base.values[None]
    return SpaceTimeField(grid=grid, values=vals, Y=Y, q=q, p=p, p1=p1)


def _task_solve_parabolic(cfg, seed):
    _expect_keys(cfg, "config",
                 required=("grid", "model", "symbol", "t", "horizon", "steps", "forcing"),
                 optional=("task", "p", "p1", "method", "export_fields", "seed",
                           "residual_tol"))
    grid = _parse_grid(cfg["grid"])
    model = _parse_model(cfg["model"])
    symbol = _parse_symbol(cfg["symbol"])
    t = _parse_scale(cfg["t"], grid.n)
    Y = _number(cfg, "horizon", "config")
    if not 0 < Y < math.inf:
        raise ConfigError(f"config.horizon must be a finite number > 0, got {Y!r}")
    J = _positive_int(cfg, "steps", "config")
    p = _number(cfg, "p", "config", 2.0)
    p1 = _number(cfg, "p1", "config", 2.0)
    tol = _number(cfg, "residual_tol", "config", 1e-2)  # time discretization limits this
    forcing = _parse_forcing(cfg["forcing"], grid, model.N, model.q, Y, J, p, p1)
    ell = _parse_problem(cfg, model=model, symbol=symbol, t=t, lam=0.0, grid=grid)
    prob = ParabolicProblem(elliptic=ell, forcing=forcing)
    method = cfg.get("method", "duhamel")
    if method == "duhamel":
        u = solve_duhamel(prob)
    elif method == "implicit-euler":
        u = solve_implicit_euler(prob)
    else:
        raise ConfigError(f"unknown method {method!r}")
    ratio, residual, forcing_norm = parabolic_diagnostics(prob, u)
    verdict = "pass" if (ratio is None or math.isfinite(ratio)) and residual < tol else "fail"
    result = {
        "method": method,
        "steps": J,
        "horizon": Y,
        "coercive_ratio": ratio,
        "residual": residual,
        "residual_tol": tol,
        "solution_norm": mixed_norm(u),
        "forcing_norm": forcing_norm,
    }
    rows = [_csv_row(0.0, 0.0, t.t, ratio, residual, verdict)]
    extras = {}
    if cfg.get("export_fields"):
        extras["solution.txt"] = export_columnar(u)
    return verdict, result, rows, extras


def _sweep_inputs(cfg, thresholds, *optional):
    """(template, sweep, thresholds) of a sweep task; `thresholds` names the
    threshold keys it reads and `optional` its other config keys."""
    _expect_keys(cfg, "config", required=("grid", "model", "symbol", "sweep"),
                 optional=("task", "thresholds", "seed") + optional)
    grid = _parse_grid(cfg["grid"])
    model = _parse_model(cfg["model"])
    symbol = _parse_symbol(cfg["symbol"])
    template = ProblemTemplate(model=model, symbol=symbol, grid=grid,
                               p=float(cfg.get("p", 2.0)))
    sweep = _parse_sweep(cfg["sweep"], grid.n, symbol.phi1)
    th = cfg.get("thresholds", {})
    _expect_keys(th, "thresholds", optional=thresholds)
    return template, sweep, {k: None if th.get(k) is None else float(th[k]) for k in thresholds}


def _sweep_result(rep):
    d = rep.to_dict()
    return rep.status, d, _sweep_csv(d), {}


def _task_verify_coercivity(cfg, seed):
    template, sweep, th = _sweep_inputs(cfg, ("flatness", "max_ratio"), "p", "data_count")
    return _sweep_result(coercivity_sweep(
        template, sweep, data_count=_positive_int(cfg, "data_count", "config", 8, least=2),
        seed=seed, flatness_threshold=th["flatness"], max_ratio_threshold=th["max_ratio"]))


def _task_verify_resolvent(cfg, seed):
    template, sweep, th = _sweep_inputs(cfg, ("flatness", "max_ratio"), "per_axis")
    return _sweep_result(resolvent_sweep(
        template, sweep, per_axis=_positive_int(cfg, "per_axis", "config", 33),
        flatness_threshold=th["flatness"], max_ratio_threshold=th["max_ratio"]))


def _task_check_multipliers(cfg, seed):
    template, sweep, th = _sweep_inputs(cfg, ("flatness", "sigma_sup"), "rbound_subsample",
                                         "tuple_size")
    return _sweep_result(multiplier_family_check(
        template.model, template.symbol, sweep, dims=template.grid.n,
        rbound_subsample=int(cfg.get("rbound_subsample", 8)),
        tuple_size=_positive_int(cfg, "tuple_size", "config", 3), seed=seed,
        flatness_threshold=th["flatness"], sigma_sup_threshold=th["sigma_sup"]))


FAMILY_KINDS = {"lambda-resolvent": (("model", "lambdas"), ()), "matrices": (("members",), ())}


def _task_estimate_rbound(cfg, seed):
    _expect_keys(cfg, "config", required=("family",),
                 optional=("task", "q", "tuple_size", "seed"))
    fam_cfg = cfg["family"]
    q = float(cfg.get("q", 2.0))
    if _expect_kind(fam_cfg, "family", FAMILY_KINDS) == "lambda-resolvent":
        model = _parse_model(fam_cfg["model"])
        if not isinstance(fam_cfg["lambdas"], list) or not fam_cfg["lambdas"]:
            raise ConfigError(f"family.lambdas must be a non-empty list, "
                              f"got {fam_cfg['lambdas']!r}")
        lambdas = [_parse_complex(v) for v in fam_cfg["lambdas"]]
        members = lambda_resolvent_family(model, lambdas).members
    else:
        try:
            members = [np.atleast_2d(np.array(mv, dtype=complex)) for mv in fam_cfg["members"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"family.members: {exc}") from exc
        shapes = {mv.shape for mv in members}
        if len(shapes) > 1 or any(len(shape) != 2 for shape in shapes):
            raise ConfigError(f"family.members must be matrices of one shape, got {shapes}")
    if not members:
        raise ConfigError("family needs at least one member")
    est = estimate_rbound(members, q=q, seed=seed,
                          tuple_size=_positive_int(cfg, "tuple_size", "config", 3))
    singleton_check = None
    if len(members) == 1:
        singleton_check = probe_norm(members[0], q=q, seed=seed + 1)
    verdict = "pass" if math.isfinite(est.value) else "fail"
    result = {
        "rbound_lower": est.value,
        "upper": est.upper,
        "tuple_indices": list(est.tuple_indices),
        "tuples_tried": est.tuples_tried,
        "family_size": len(members),
        "singleton_probe_norm": singleton_check,
    }
    rows = [_csv_row(None, None, None, est.value, None, verdict)]
    return verdict, result, rows, {}


def _task_check_kahane(cfg, seed):
    _expect_keys(cfg, "config", required=(),
                 optional=("task", "q", "scalars", "vectors", "random", "seed"))
    q = float(cfg.get("q", 2.0))
    results = []
    if "scalars" in cfg or "vectors" in cfg:
        if "scalars" not in cfg or "vectors" not in cfg:
            raise ConfigError("check-kahane needs 'scalars' and 'vectors' together")
        try:
            scalars = np.asarray(cfg["scalars"], dtype=complex)
            vectors = np.asarray(cfg["vectors"], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scalars/vectors: {exc}") from exc
        # a vector of length 1 may be given as a number
        if scalars.ndim != 1 or vectors.ndim not in (1, 2) or len(vectors) != len(scalars):
            raise ConfigError(f"need m scalars and m vectors of one length, got shapes "
                              f"{scalars.shape} and {vectors.shape}")
        results.append(kahane_contraction_check(scalars, list(vectors), q=q))
    if "random" in cfg:
        rcfg = cfg["random"]
        _expect_keys(rcfg, "random", required=("count",), optional=("m", "N"))
        rng = np.random.default_rng(seed)
        m = _positive_int(rcfg, "m", "random", 6)
        N = _positive_int(rcfg, "N", "random", 4)
        count = _positive_int(rcfg, "count", "random")
        scal = np.empty((count, m))
        vecs = np.empty((count, m, N), dtype=complex)
        for k in range(count):
            scal[k] = rng.uniform(-1.0, 1.0, size=m)
            draws = rng.standard_normal((m, 2, N))  # per vector: N real, then N imaginary
            vecs[k] = draws[:, 0] + 1j * draws[:, 1]
        results.extend(_kahane_checks(scal, vecs, q))
    if not results:
        raise ConfigError("check-kahane needs 'scalars'/'vectors' or 'random'")
    worst = max(r.constant / max(r.scale, 1e-300) for r in results)
    ok = all(r.verdict for r in results)
    verdict = "pass" if ok else "fail"
    result = {
        "instances": len(results),
        "worst_normalized_constant": worst,
        "all_within_bound": ok,
    }
    rows = [_csv_row(None, None, None, worst, None, verdict)]
    return verdict, result, rows, {}


def _task_check_symbol(cfg, seed):
    _expect_keys(cfg, "config", required=("symbol", "t_values", "xi"),
                 optional=("task", "n", "seed"))
    symbol = _parse_symbol(cfg["symbol"])
    n = _positive_int(cfg, "n", "config", 1)
    if not isinstance(cfg["t_values"], list) or not cfg["t_values"]:
        raise ConfigError(f"t_values must be a non-empty list, got {cfg['t_values']!r}")
    t_grid = [_parse_scale(v, n) for v in cfg["t_values"]]
    xcfg = cfg["xi"]
    _expect_keys(xcfg, "xi", required=("lo", "hi", "count"))
    try:
        lo, hi = float(xcfg["lo"]), float(xcfg["hi"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"xi: {exc}") from exc
    if not (math.isfinite(hi) and 0 < lo <= hi):
        raise ConfigError(f"xi needs finite 0 < lo <= hi, got lo {lo}, hi {hi}")
    vals = _signed_logspace(math.log10(lo), math.log10(hi), _positive_int(xcfg, "count", "xi"))
    xi_grid = product_mesh([vals] * n).reshape(-1, n)
    rep = check_symbol_class(symbol, t_grid, xi_grid)
    verdict = "pass" if rep.verdict else "fail"
    result = {
        "constants": {str(k): v for k, v in rep.constants.items()},
        "sector_ok": rep.sector_ok,
        "lower_margin": rep.lower_margin,
        "samples": rep.samples,
    }
    rows = [_csv_row(None, None, None, rep.lower_margin, None, verdict)]
    return verdict, result, rows, {}


TASKS = {
    "solve-elliptic": _task_solve_elliptic,
    "solve-parabolic": _task_solve_parabolic,
    "verify-coercivity": _task_verify_coercivity,
    "verify-resolvent": _task_verify_resolvent,
    "check-multipliers": _task_check_multipliers,
    "estimate-rbound": _task_estimate_rbound,
    "check-kahane": _task_check_kahane,
    "check-symbol": _task_check_symbol,
}


def _run_task(task: str, cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    verdict, result, rows, extras = TASKS[task](cfg, seed)
    report = {
        "version": __version__,
        "task": task,
        "seed": seed,
        "config": cfg,
        "result": result,
        "verdict": verdict,
    }
    _write_reports(args.out, report, rows, extras)
    print(f"{task}: {verdict}")
    return EXIT_PASS if verdict in ("pass", "not-applicable") else EXIT_VERDICT


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg = _apply_overrides(cfg, args.set)
        if args.command == "run-scenario":
            task = cfg.get("task")
            if task not in TASKS:
                raise ConfigError(f"scenario must declare a valid 'task', got {task!r}")
        else:
            task = args.command
            declared = cfg.get("task")
            if declared is not None and declared != task:
                raise ConfigError(
                    f"config declares task {declared!r} but {task!r} was invoked")
        return _run_task(task, cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PsdoError as exc:
        print(f"execution failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EXECUTION


if __name__ == "__main__":
    sys.exit(main())
