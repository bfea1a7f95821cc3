import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psdo import (
    GridSpec,
    ParabolicProblem,
    __version__,
    cli,
    parabolic,
    rotated_power_symbol,
    solve_implicit_euler,
    tasks,
    verification,
)
from psdo.cli import main
from psdo.operators import eigenbasis
from psdo.parabolic import _phi1, _phi2
from psdo.spaces import export_columnar
from psdo.tasks import _write_reports

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def small_verify_cfg():
    return {
        "task": "verify-coercivity",
        "grid": {"n": 1, "M": 32, "L": 2 * np.pi},
        "model": {"kind": "scalar", "a": 1.0},
        "symbol": {"kind": "power", "m": 2.0},
        "sweep": {"phi2": np.pi / 4, "n_rays": 3, "n_radii": 3,
                  "radius_range": [1.0, 1e4], "n_t": 2, "t_range": [1e-2, 1.0]},
        "thresholds": {"flatness": 1.5},
        "data_count": 4,
        "seed": 0,
    }


def test_run_scenario_pass(tmp_path):
    cfg = write_cfg(tmp_path, small_verify_cfg())
    out = str(tmp_path / "out")
    assert main(["run-scenario", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["task"] == "verify-coercivity"
    assert "version" in report


def test_verdict_failure_exit_code(tmp_path):
    cfg_d = small_verify_cfg()
    cfg_d["thresholds"]["flatness"] = 1.0000001
    cfg = write_cfg(tmp_path, cfg_d)
    assert main(["verify-coercivity", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_empty_config_is_config_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    assert main(["run-scenario", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg_d = small_verify_cfg()
    cfg_d["bogus_key"] = 1
    cfg = write_cfg(tmp_path, cfg_d)
    assert main(["run-scenario", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_angle_sum_validation(tmp_path):
    cfg_d = small_verify_cfg()
    cfg_d["symbol"] = {"kind": "rotated-power", "m": 2.0, "theta0": np.pi / 2,
                       "phi1": np.pi / 2}
    cfg_d["sweep"]["phi2"] = np.pi / 2
    cfg = write_cfg(tmp_path, cfg_d)
    assert main(["run-scenario", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("task", ["verify-coercivity", "verify-resolvent", "check-multipliers"])
@pytest.mark.parametrize("sweep", [{"n_t": 0}, {"n_radii": 0}, {"n_rays": 0},
                                   {"radii": [1.0], "t_values": []},
                                   {"radii": []}, {"rays": [], "radii": [1.0]}],
                         ids=["n_t", "n_radii", "n_rays", "t_values", "radii", "rays"])
def test_empty_sweep_is_config_error(tmp_path, task, sweep):
    cfg_d = small_verify_cfg()
    cfg_d["task"] = task
    del cfg_d["data_count"]
    cfg_d["sweep"].update(sweep)  # explicit radii take precedence over n_radii etc.
    cfg = write_cfg(tmp_path, cfg_d)
    assert main([task, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_task_mismatch_rejected(tmp_path):
    cfg = write_cfg(tmp_path, small_verify_cfg())
    assert main(["verify-resolvent", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_set_override(tmp_path):
    cfg = write_cfg(tmp_path, small_verify_cfg())
    out = str(tmp_path / "out")
    assert main(["run-scenario", "--config", cfg, "--out", out,
                 "--set", "sweep.n_radii=2"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["sweep"]["n_radii"] == 2
    assert len(report["result"]["points"]) == 3 * 2 * 2


def test_solve_elliptic_with_export(tmp_path):
    cfg = write_cfg(tmp_path, {
        "task": "solve-elliptic",
        "grid": {"n": 1, "M": 32, "L": 2 * np.pi},
        "model": {"kind": "scalar", "a": 1.0},
        "symbol": {"kind": "power", "m": 2.0},
        "t": 1.0,
        "lambda": 1.0,
        "data": {"kind": "gaussian"},
        "export_fields": True,
    })
    out = str(tmp_path / "out")
    assert main(["solve-elliptic", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["residual"] < 1e-10
    assert np.load(tmp_path / "out" / "solution.npy").shape == (32, 1)
    assert (tmp_path / "out" / "solution.txt").exists()


def small_parabolic_cfg(**changes):
    """parabolic-reference.json with the given keys replaced."""
    return {**json.loads((SCENARIOS / "parabolic-reference.json").read_text()), **changes}


def parabolic_problem(cfg):
    """The ParabolicProblem that solve-parabolic builds from `cfg`."""
    v = tasks.SCHEMA["solve-parabolic"].value(cfg, "config")
    ell = tasks._parse_problem(v, 0.0)
    return ParabolicProblem(ell, *tasks._parse_forcing(v, ell), v["horizon"])


def test_solve_parabolic_export_writes_every_slice(tmp_path):
    cfg = small_parabolic_cfg(grid={"n": 2, "M": 8, "L": 2 * np.pi}, steps=6,
                              method="implicit-euler", model={"kind": "tridiagonal", "N": 3},
                              export_fields=True,
                              residual_tol=1.0)  # six implicit-Euler steps are coarse
    assert main(["solve-parabolic", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0
    solution = solve_implicit_euler(parabolic_problem(cfg))
    stack = np.load(tmp_path / "out" / "solution.npy", allow_pickle=False)
    assert stack.dtype == np.complex128 and stack.shape == (6 + 1, 8, 8, 3)
    np.testing.assert_array_equal(stack.view(np.int64), solution.values.view(np.int64))
    assert (tmp_path / "out" / "solution.txt").read_text() == export_columnar(solution.slice(6))


@pytest.mark.parametrize("changes, per_block", [
    ({}, 0),
    ({"method": "implicit-euler", "p1": float("inf"), "residual_tol": 1.0}, 0),
    ({"export_fields": True}, 1),
    ({"p": 3.0}, 2),
    ({"model": {"kind": "scalar", "q": 3.0}}, 2),
], ids=["p2", "implicit-euler-p1-inf", "export", "p3", "q3"])
def test_solve_parabolic_grid_transforms(tmp_path, monkeypatch, changes, per_block):
    """One forward FFT per task, of the forcing's base, one field with no time
    axis; at p = q = 2 the diagnostics use no inverse FFT and export_fields
    one per block of time slices, other exponents two per block, which give
    the exported field as well.  No transform takes more than a block's
    slices and the two beyond its ends."""
    calls = {"fft": [], "ifft": []}
    for name in calls:
        def counting(grid, values, name=name, transform=getattr(GridSpec, name)):
            calls[name].append(values.shape)
            return transform(grid, values)
        monkeypatch.setattr(GridSpec, name, counting)
    cfg = small_parabolic_cfg(**changes)
    slices = 16  # 5 blocks for the 65 slices of the 64 steps
    monkeypatch.setattr(parabolic, "BLOCK_ENTRIES", slices * cfg["grid"]["M"])  # n = N = 1
    assert run_with_sets(tmp_path, "solve-parabolic", cfg, []) == 0
    assert calls["fft"] == [(cfg["grid"]["M"], 1)]
    assert len(calls["ifft"]) == 5 * per_block
    assert all(shape[0] <= slices + 2 for shape in calls["ifft"])


@pytest.mark.parametrize("task, make_cfg, export", [
    ("verify-coercivity", lambda: small_verify_cfg(), False),
    ("solve-elliptic", lambda: small_elliptic_cfg(), True),
    ("solve-parabolic", lambda: small_parabolic_cfg(), True),
], ids=["sweep", "solve-elliptic-export", "solve-parabolic-export"])
def test_out_holds_the_reports_and_a_rerun_is_byte_identical(tmp_path, task, make_cfg, export):
    """--out holds report.json, and solution.npy and solution.txt with
    export_fields, and a rerun writes every file byte for byte again."""
    cfg = {**make_cfg(), "export_fields": True} if export else make_cfg()
    path = write_cfg(tmp_path, cfg)
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main([task, "--config", path, "--out", str(out)]) == 0
        runs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(runs[0]) == (["report.json", "solution.npy", "solution.txt"] if export
                               else ["report.json"])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [["bogus", "--config", "c.json"], ["solve-elliptic"], [],
                                  ["solve-elliptic", "--config", "c.json", "--seed", "-1"]],
                         ids=["unknown-command", "no-config", "nothing", "negative-seed"])
def test_bad_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: psdo" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_exits_2_before_the_task(tmp_path, monkeypatch, capsys,
                                                                  out):
    (tmp_path / "afile").write_text("kept")
    monkeypatch.setitem(tasks.TASKS, "verify-coercivity",
                        lambda v, seed: pytest.fail("the task ran"))
    with pytest.raises(SystemExit) as exc:
        main(["run-scenario", "--config", write_cfg(tmp_path, small_verify_cfg()),
              "--out", str(tmp_path / out)])
    assert exc.value.code == 2
    assert "error: --out must be a writable directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_parser_is_built_once_after_import_and_keeps_no_state(tmp_path, capsys):
    run = subprocess.run([sys.executable, "-c", "import psdo.cli as c; "
                          "print(c._parser.cache_info().currsize)"], capture_output=True,
                         text=True, env={"PYTHONPATH": str(Path(cli.__file__).parent.parent)},
                         timeout=120)
    assert run.stdout.strip() == "0", run.stderr  # importing the CLI builds no parser
    kahane = {"task": "check-kahane", "random": {"count": 5}}
    cfg = write_cfg(tmp_path, kahane)
    reports = {}
    for tag, sets in (("count", ["random.count=7"]), ("q", ["q=3.0"]), ("none", [])):
        argv = ["check-kahane", "--config", cfg, "--out", str(tmp_path / tag)]
        assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 0
        reports[tag] = json.loads((tmp_path / tag / "report.json").read_text())
    assert reports["count"]["config"] == {"task": "check-kahane", "random": {"count": 7}}
    assert reports["count"]["result"]["instances"] == 7
    assert reports["q"]["config"] == {**kahane, "q": 3.0}
    assert reports["q"]["result"]["instances"] == 5
    assert reports["none"]["config"] == kahane
    assert cli._parser() is cli._parser()
    (tmp_path / "afile").write_text("kept")
    for argv, code in ((["--version"], 0),
                       (["check-kahane", "--config", cfg, "--seed", "-1"], 2),
                       (["check-kahane", "--config", cfg, "--out", str(tmp_path / "afile")], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    err = capsys.readouterr().err
    assert "--seed must be >= 0" in err and "--out must be a writable directory" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sets", [["forcing.omega=1e308"],
                                  ["forcing.omega=1e306", "horizon=1000.0"]],
                         ids=["omega", "omega-times-horizon"])
def test_overflowing_sin_phase_is_config_error_without_warnings(tmp_path, capsys, sets):
    assert run_with_sets(tmp_path, "solve-parabolic", small_parabolic_cfg(), sets) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: forcing.omega") and "overflow" in err
    assert not (tmp_path / "out").exists()


def test_solve_parabolic_subcommand(tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve-parabolic", "--config",
                 str(SCENARIOS / "parabolic-reference.json"), "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["coercive_ratio"] >= 1.0 - 1e-9


def test_solve_parabolic_without_eigenbasis_is_execution_failure(tmp_path, capsys):
    # a Jordan block: the per-mode evolution needs an eigenbasis of A
    cfg = small_parabolic_cfg(model={"kind": "matrix", "entries": [[1.0, 1.0], [0.0, 1.0]]})
    assert run_with_sets(tmp_path, "solve-parabolic", cfg, []) == 1
    assert "NotDiagonalizable" in capsys.readouterr().err


@pytest.mark.parametrize("profile", ["constant", "ramp"])
def test_solve_parabolic_constant_and_ramp_exports_match_the_closed_form(tmp_path, profile):
    """Duhamel is exact for piecewise-linear forcing a(y) f0(x): per eigen-channel
    g = P_t(xi) + w_j the solution at y = Y is Y phi1(-g Y) f0_hat for a = 1 and
    Y phi2(-g Y) f0_hat for a = y / Y."""
    cfg = small_parabolic_cfg()
    sets = [f"forcing.time_profile={profile}", "export_fields=true"]
    assert run_with_sets(tmp_path, "solve-parabolic", cfg, sets) == 0
    last = (tmp_path / "out" / "solution.txt").read_text().split("\n\n")[-1].splitlines()[1:]
    numbers = np.array([[float(v) for v in row.split()[1:]] for row in last])
    got = numbers[:, 0::2] + 1j * numbers[:, 1::2]
    cfg["forcing"]["time_profile"] = profile
    prob = parabolic_problem(cfg)
    ell, Y = prob.elliptic, prob.Y
    w, V, Vinv = eigenbasis(ell.model)
    z = -Y * (ell.symbol_values()[..., None] + w)
    h = Y * (_phi1(z) if profile == "constant" else _phi2(z))
    f0_hat = ell.grid.fft(prob.base.values)
    exact = ell.grid.ifft((h * (f0_hat @ Vinv.T)) @ V.T)
    assert np.linalg.norm(got - exact) <= 1e-13 * np.linalg.norm(exact)


@pytest.mark.parametrize("text, sets, message", [
    ("{not json", [], "is not valid JSON"),
    ("[1, 2]", [], "top-level config must be a JSON object"),
    (None, [], "cannot read config"),
    (json.dumps(small_verify_cfg()), ["seed"], "--set expects key=value"),
    (json.dumps(small_verify_cfg()), ["grid.n.x=1"], "crosses a non-object"),
    (json.dumps({k: v for k, v in small_verify_cfg().items() if k != "task"}), [],
     "scenario must declare a valid 'task'"),
], ids=["not-json", "top-level-list", "unreadable-path", "set-without-value",
        "set-through-a-number", "scenario-without-task"])
def test_config_file_and_override_errors_exit_2(tmp_path, capsys, text, sets, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    argv = ["run-scenario", "--config", str(path), "--out", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "out").exists()


def test_estimate_rbound_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "task": "estimate-rbound",
        "family": {"kind": "matrices",
                   "members": [[[1.0, 0.0], [0.0, 0.5]]]},
        "tuple_size": 2,
    })
    out = str(tmp_path / "out")
    assert main(["estimate-rbound", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["rbound_lower"] == pytest.approx(1.0, abs=1e-8)
    assert report["result"]["singleton_probe_norm"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("q, upper", [(2.0, np.sqrt(2.0)), (3.0, None)])
def test_estimate_rbound_reports_upper_at_q2(tmp_path, q, upper):
    cfg = write_cfg(tmp_path, {
        "task": "estimate-rbound",
        "family": {"kind": "matrices", "members": [[[1.0, 0.0], [0.0, 0.5]]]},
        "q": q,
        "tuple_size": 2,
    })
    out = str(tmp_path / "out")
    assert main(["estimate-rbound", "--config", cfg, "--out", out]) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["upper"] == (pytest.approx(upper, rel=1e-14) if upper else None)


def test_estimate_rbound_lambda_resolvent_family(tmp_path):
    lambdas = [1.0, 10.0, 300.0]
    cfg = write_cfg(tmp_path, {
        "task": "estimate-rbound",
        "family": {"kind": "lambda-resolvent", "model": {"kind": "matrix",
                                                         "entries": [[2.0, 1.0], [0.0, 1.0]]},
                   "lambdas": lambdas},
        "tuple_size": 2,
    })
    assert main(["estimate-rbound", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    # the largest member norm S bounds the R-bound from below, sqrt(2) S from above at q = 2
    S = max(np.linalg.norm(lam * np.linalg.inv(A + lam * np.eye(2)), 2) for lam in lambdas)
    assert S * (1 - 1e-12) <= result["rbound_lower"] <= 2 * S
    assert result["family_size"] == 3


def test_check_kahane_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "task": "check-kahane",
        "random": {"count": 25, "m": 5, "N": 3},
        "seed": 0,
    })
    out = str(tmp_path / "out")
    assert main(["check-kahane", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["worst_normalized_constant"] <= 1.0 + 1e-12


def test_check_symbol_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "task": "check-symbol",
        "symbol": {"kind": "power", "m": 2.0},
        "t_values": [0.01, 1.0],
        "xi": {"lo": 0.1, "hi": 100.0, "count": 15},
    })
    out = str(tmp_path / "out")
    assert main(["check-symbol", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["result"]["sector_ok"]


def test_check_symbol_below_order_one_fails(tmp_path):
    """power with m < 1 has an unbounded slope at xi = 0: C_(1,) reads inf and
    the verdict fails (exit 3)."""
    cfg = {"task": "check-symbol", "symbol": {"kind": "power", "m": 0.5}, "t_values": [1.0],
           "xi": {"lo": 1e-5, "hi": 100.0, "count": 15}}
    assert run_with_sets(tmp_path, "check-symbol", cfg, []) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["constants"]["(1,)"] == "inf"


def test_shipped_scenarios_parse():
    for name in ("scalar-reference", "system-n8", "bvp-dirichlet",
                 "parabolic-reference", "anisotropic-2d"):
        cfg = json.loads((SCENARIOS / f"{name}.json").read_text())
        assert "task" in cfg


def test_reports_are_strict_json(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = {"ratio": float("nan"), "nested": [np.float64("nan"), float("inf")]}
    _write_reports(str(tmp_path), report)
    back = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    assert back == {"ratio": "nan", "nested": ["nan", "inf"]}


def test_check_symbol_user_table(tmp_path):
    pts = np.linspace(-60.0, 60.0, 241)
    cfg = write_cfg(tmp_path, {
        "task": "check-symbol",
        "symbol": {"kind": "user-table", "m": 2.0,
                   "table": [pts.tolist(), (pts**2).tolist(), [0.0] * len(pts)]},
        "t_values": [1.0],
        "xi": {"lo": 0.5, "hi": 50.0, "count": 9},
    })
    assert main(["run-scenario", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["samples"] == 18


def symbol_value(cfg):
    """The SymbolSpec that tasks.SYMBOL builds from `cfg` after a JSON round trip."""
    return tasks.SYMBOL.value(json.loads(json.dumps(cfg)), "symbol")


def test_symbol_config_builds_the_symbol_spec():
    rotated = rotated_power_symbol(2.0, theta0=0.25)  # phi1 defaults to |theta0|
    assert symbol_value({"kind": "rotated-power", "m": 2, "theta0": 0.25}) == rotated
    assert symbol_value({"kind": "rotated-power", "m": 2.0, "theta0": 0.25,
                         "phi1": None}) == rotated
    assert symbol_value({"kind": "rotated-power", "m": 2.0, "theta0": None}) == \
        rotated_power_symbol(2.0, theta0=0.0)
    pts = np.linspace(-10, 10, 41)
    table = symbol_value({"kind": "user-table", "m": 2.0,
                          "table": [pts.tolist(), (pts**2).tolist(), (0.5 * pts).tolist()]})
    assert table.kind == "user-table" and table.m == 2.0 and table.phi1 == 0.0
    assert np.array_equal(table.table[0], pts)
    assert np.array_equal(table.table[1], pts**2 + 0.5j * pts)


def scalar_leaves(name, kind):
    """(path, Scalar) of every scalar value type below `kind`, walked as
    schema_tables() walks tasks.SCHEMA."""
    if isinstance(kind, tasks.Scalar):
        yield name, kind
    elif isinstance(kind, tasks.List):
        yield from scalar_leaves(name + "[]", kind.item)
    elif isinstance(kind, tasks.Switch):
        for sub in kind.types.values():
            yield from scalar_leaves(name, sub)
    elif isinstance(kind, tasks.Table):
        for key, sub in kind.keys.items():
            yield from scalar_leaves(f"{name}.{key}", sub)


def refuses(kind, value) -> bool:
    try:
        kind.value(value, "x")
    except tasks.ConfigError:
        return True
    return False


def test_every_number_is_finite_unless_it_is_an_exponent():
    """One number rule for every key, those added later included: a value type
    that takes the number 4 refuses NaN, -Infinity, "4" and true, and
    Infinity too unless it is the exponent type Q."""
    numeric = [(path, kind) for task, table in tasks.SCHEMA.items()
               for path, kind in scalar_leaves(task, table) if not refuses(kind, 4)]
    assert len(numeric) > 50
    bad = [(path, value) for path, kind in numeric
           for value in [float("nan"), -float("inf"), "4", True]
           + ([] if kind is tasks.Q else [float("inf")]) if not refuses(kind, value)]
    assert bad == []
    assert not refuses(tasks.Q, float("inf"))


def small_elliptic_cfg():
    return {
        "task": "solve-elliptic",
        "grid": {"n": 1, "M": 32, "L": 2 * np.pi},
        "model": {"kind": "tridiagonal", "N": 2},
        "symbol": {"kind": "power", "m": 2.0},
        "t": 1.0,
        "lambda": 100.0,
        "data": {"kind": "gaussian"},
        "lower_terms": [{"alpha": [1.0], "coefficient": 0.5}],
    }


def run_with_sets(tmp_path, task, cfg, sets):
    argv = [task, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item]
    return main(argv)


def test_small_elliptic_cfg_passes(tmp_path):
    assert run_with_sets(tmp_path, "solve-elliptic", small_elliptic_cfg(), []) == 0


@pytest.mark.parametrize("q, exact", [(2.0, True), (3.0, False)])
def test_solve_elliptic_reports_contraction_exact(tmp_path, q, exact):
    cfg = small_elliptic_cfg()
    cfg["model"] = {**cfg["model"], "q": q}
    assert run_with_sets(tmp_path, "solve-elliptic", cfg, []) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["contraction_exact"] is exact
    assert 0.0 < result["contraction"] < 1.0


# The message of a --set item below, where it is pinned: an object is neither
# kind of an `either` value, and is reported against both
BAD_VALUE_MESSAGES = {
    't={"t": 1.0}': "config.t must be a number or a list of 1 or more entries, each a number, "
                    "got {'t': 1.0}",
    'lambda={"re": 1.0}': "config.lambda must be a number or a list of 2 entries, each a "
                          "number, got {'re': 1.0}",
}


@pytest.mark.parametrize("sets", [
    ["data.vector=[1.0, 2.0, 3.0]"],
    ['data.vector="one"'],
    ["lower_terms=[{\"alpha\": [1.0], \"coefficient\": [[1.0, 0.0, 0.0]]}]"],
    ["lower_terms=[{\"alpha\": [2.0], \"coefficient\": 0.5}]"],
    ["lower_terms=[{\"alpha\": [1.0, 0.0], \"coefficient\": 0.5}]"],
    ["lambda=-1.0"],
    ["t=[1.0, 1.0]"],
    ['data={"kind": "gaussian", "xi0": [1.0]}'],
    ['data={"kind": "gaussian", "fraction": 0.5}'],
    ['data={"kind": "mode", "width": 0.1}'],
    ['data={"kind": "mode", "fraction": 0.5}'],
    ['data={"kind": "random", "width": 0.1}'],
    ['data={"kind": "random", "vector": [1.0, 1.0]}'],
    ['data={"kind": "random", "xi0": [1.0]}'],
    ['data={"kind": "nonsense"}'],
    ["t=0.0"],
    ["t=[-1.0]"],
    ["p=abc"],
    ["residual_tol=abc"],
    ["p=true"],
    ["residual_tol=NaN"],
    ['data={"kind": "random", "fraction": "abc"}'],
    ["data.width=abc"],
    ["grid.n=1.5"],
    ["seed=1.7"],
    ['model={"kind": "tridiagonal", "N": 2.9}'],
    ['model={"kind": "scalar", "K": 64, "entries": [[2.0]]}'],
    ['export_fields="no"'],
    ['data={"kind": "mode", "xi0": [1.0, 2.0]}'],
    ["data.width=0"],
    ["p=0.5"],
    ['t={"t": 1.0}'],
    ['t={"t": [1.0], "t0": 2.0}'],
    ["model.system=true"],
    ["grid.L=4.0", 'data={"kind": "mode"}'],
    ['lambda={"re": 1.0}'],
], ids=["vector-length", "vector-type", "coefficient-shape", "order-m", "alpha-dimension",
        "angle", "t-dimension", "gaussian-xi0", "gaussian-fraction", "mode-width",
        "mode-fraction", "random-width", "random-vector", "random-xi0", "data-kind",
        "t-zero", "t-negative", "p-text", "residual-tol-text", "p-bool", "residual-tol-nan",
        "fraction-text", "width-text", "grid-n-fractional", "seed-fractional",
        "tridiagonal-N-fractional", "scalar-model-other-kinds-keys", "export-fields-text",
        "xi0-dimension", "width-0", "p-below-1", "t-object", "t-object-t0",
        "tridiagonal-system", "mode-off-lattice", "lambda-object"])
def test_solve_elliptic_bad_value_is_config_error(tmp_path, capsys, sets):
    assert run_with_sets(tmp_path, "solve-elliptic", small_elliptic_cfg(), sets) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert all(BAD_VALUE_MESSAGES.get(item, "") in err for item in sets)
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("lower_terms", [[], small_elliptic_cfg()["lower_terms"]],
                         ids=["principal", "lower-term"])
def test_overflowing_solve_is_execution_failure(tmp_path, capsys, lower_terms):
    """Gaussian data of 1e308 pass the schema and give a finite field, but the
    solve overflows: an execution failure that says so, with or without the
    Neumann iteration of a lower term."""
    cfg = {**small_elliptic_cfg(), "data": {"kind": "gaussian", "vector": [1e308, 1e308]},
           "lower_terms": lower_terms}
    assert run_with_sets(tmp_path, "solve-elliptic", cfg, []) == 1
    assert "execution failed: Overflow: residual nan at iteration 1: the solve overflows" \
        in capsys.readouterr().err


@pytest.mark.parametrize("export", [False, True], ids=["report", "export"])
@pytest.mark.parametrize("method", ["duhamel", "implicit-euler"])
def test_overflowing_evolution_is_execution_failure(tmp_path, capsys, method, export):
    """A forcing of 1e308 passes the schema and gives a finite field, but the
    evolution overflows: an execution failure that says so, not a verdict fail
    on a nan residual nor a traceback from the exported field."""
    cfg = json.loads((SCENARIOS / "parabolic-reference.json").read_text())
    cfg = {**cfg, "forcing": {**cfg["forcing"], "vector": [1e308]}, "method": method,
           "export_fields": export}
    assert run_with_sets(tmp_path, "solve-parabolic", cfg, []) == 1
    assert "execution failed: Overflow: residual nan: the evolution overflows" \
        in capsys.readouterr().err


def test_list_t_runs_on_a_2d_grid(tmp_path):
    """A list `t` gives one value per axis; equal values are the isotropic number."""
    cfg = {**small_elliptic_cfg(), "grid": {"n": 2, "M": 8, "L": 2 * np.pi}, "lower_terms": []}
    results = []
    for t in ([0.5, 0.5], 0.5, [1.0, 0.25]):
        assert run_with_sets(tmp_path, "solve-elliptic", {**cfg, "t": t}, []) == 0
        results.append(json.loads((tmp_path / "out" / "report.json").read_text())["result"])
    assert results[0] == results[1] != results[2]


@pytest.mark.parametrize("data", [{"kind": "gaussian", "width": 0.5, "vector": [1.0, 2.0]},
                                  {"kind": "mode", "xi0": [2.0], "vector": [1.0, 2.0]},
                                  {"kind": "random", "fraction": 0.5}],
                         ids=["gaussian", "mode", "random"])
def test_data_kind_accepts_the_keys_it_reads(tmp_path, data):
    assert run_with_sets(tmp_path, "solve-elliptic", {**small_elliptic_cfg(), "data": data},
                         []) == 0


@pytest.mark.parametrize("sets", [["steps=0"], ["steps=-3"], ["horizon=-1"], ["horizon=0"],
                                  ["forcing.vector=[1.0, 1.0]"], ["forcing.kind=nonsense"],
                                  ["forcing.time_profile=ramp", "forcing.omega=0.5"],
                                  ["forcing.time_profile=constant", "forcing.omega=0.5"],
                                  ["horizon=abc"], ["steps=abc"], ["steps=2.5"],
                                  ["horizon=NaN"], ["horizon=Infinity"], ["horizon=true"],
                                  ["p=abc"], ["p1=abc"], ["residual_tol=abc"],
                                  ["forcing.omega=abc"], ["p1=NaN"], ["forcing.omega=true"],
                                  ["horizon=" + "9" * 400], ["forcing.width=abc"],
                                  ["p=0.001"], ["p1=0.5"]],
                         ids=["steps-0", "steps-negative", "horizon-negative", "horizon-0",
                              "vector-length", "forcing-kind", "omega-ramp", "omega-constant",
                              "horizon-text", "steps-text", "steps-fractional", "horizon-nan",
                              "horizon-inf", "horizon-bool", "p-text", "p1-text",
                              "residual-tol-text", "omega-text", "p1-nan", "omega-bool",
                              "horizon-400-digits", "forcing-width-text", "p-below-1",
                              "p1-below-1"])
def test_solve_parabolic_bad_value_is_config_error(tmp_path, capsys, sets):
    cfg = json.loads((SCENARIOS / "parabolic-reference.json").read_text())
    assert run_with_sets(tmp_path, "solve-parabolic", cfg, sets) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def task_cfgs():
    resolvent = {**small_verify_cfg(), "task": "verify-resolvent"}
    multipliers = {**small_verify_cfg(), "task": "check-multipliers",
                   "rbound_subsample": 2, "tuple_size": 1}
    for cfg in (resolvent, multipliers):
        del cfg["data_count"]
    return {
        "verify-coercivity": small_verify_cfg(),
        "verify-resolvent": resolvent,
        "check-multipliers": multipliers,
        "solve-elliptic": small_elliptic_cfg(),
        "solve-parabolic": json.loads((SCENARIOS / "parabolic-reference.json").read_text()),
        "estimate-rbound": {"task": "estimate-rbound", "family": {
            "kind": "matrices", "members": [[[1.0, 0.0], [0.0, 0.5]]]}},
        "check-kahane": {"task": "check-kahane", "random": {"count": 5}},
        "check-symbol": {"task": "check-symbol", "symbol": {"kind": "power", "m": 2.0},
                         "t_values": [1.0], "xi": {"lo": 0.1, "hi": 10.0, "count": 5}},
    }


@pytest.mark.parametrize("task, key", [
    ("verify-coercivity", "thresholds.sigma_sup=0.0001"),
    ("verify-resolvent", "thresholds.sigma_sup=0.0001"),
    ("verify-resolvent", "p=3.0"),
    ("check-multipliers", "thresholds.max_ratio=0.0001"),
    ("check-multipliers", "p=3.0"),
    ("solve-elliptic", "thresholds.flatness=1.5"),
    ("solve-parabolic", "thresholds.flatness=1.5"),
    ("estimate-rbound", "thresholds.flatness=1.5"),
    ("check-kahane", "thresholds.flatness=1.5"),
    ("check-symbol", "thresholds.flatness=1.5"),
])
def test_key_the_task_does_not_read_is_config_error(tmp_path, capsys, task, key):
    cfg = task_cfgs()[task]
    assert run_with_sets(tmp_path, task, cfg, [key]) == 2
    assert "unknown keys" in capsys.readouterr().err
    assert run_with_sets(tmp_path, task, cfg, []) != 2  # the config without it is valid


CHECK_SYMBOL = {"symbol": {"kind": "power", "m": 2.0}, "t_values": [1.0],
                "xi": {"lo": 0.1, "hi": 10.0, "count": 5}}
NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity


@pytest.mark.parametrize("task, cfg", [
    ("estimate-rbound", {"family": {"kind": "nonsense", "members": [[[1.0]]]}}),
    ("estimate-rbound", {"family": {"kind": "lambda-resolvent", "model": {"kind": "scalar"}}}),
    ("estimate-rbound", {"family": {"kind": "lambda-resolvent", "lambdas": [1.0, 10.0]}}),
    ("estimate-rbound", {"family": {"kind": "matrices"}}),
    ("estimate-rbound", {"family": {"kind": "matrices", "members": []}}),
    ("estimate-rbound", {"family": {"kind": "matrices",
                                    "members": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]}}),
    ("estimate-rbound", {"family": {"kind": "matrices", "members": [[[1.0, 0.0], [1.0]]]}}),
    ("estimate-rbound", {"family": {"kind": "matrices", "members": [[[1.0]]],
                                    "lambdas": [1.0]}}),
    ("check-kahane", {"scalars": [0.5, -1.0]}),
    ("check-kahane", {"vectors": [[1.0], [2.0]], "random": {"count": 2}}),
    ("check-kahane", {"scalars": [0.5, -1.0], "vectors": [[1.0, 0.0]]}),
    ("estimate-rbound", {"family": {"kind": "lambda-resolvent", "model": {"kind": "scalar"},
                                    "lambdas": 5}}),
    ("estimate-rbound", {"family": {"kind": "lambda-resolvent", "model": {"kind": "scalar"},
                                    "lambdas": []}}),
    ("check-kahane", {"random": {"count": -1}}),
    ("check-kahane", {"random": {"count": 0}}),
    ("check-kahane", {"random": {"count": 2.5}}),
    ("check-kahane", {"random": {"count": 2, "m": 0}}),
    ("check-kahane", {"random": {"count": 2, "N": -3}}),
    ("check-symbol", {**CHECK_SYMBOL, "xi": {"lo": 0, "hi": 10.0, "count": 5}}),
    ("check-symbol", {**CHECK_SYMBOL, "xi": {"lo": -1.0, "hi": 10.0, "count": 5}}),
    ("check-symbol", {**CHECK_SYMBOL, "xi": {"lo": 10.0, "hi": 1.0, "count": 5}}),
    ("check-symbol", {**CHECK_SYMBOL, "xi": {"lo": 0.1, "hi": float("inf"), "count": 5}}),
    ("check-symbol", {**CHECK_SYMBOL, "xi": {"lo": 0.1, "hi": 10.0, "count": 0}}),
    ("check-symbol", {**CHECK_SYMBOL, "n": 0}),
    ("check-symbol", {**CHECK_SYMBOL, "t_values": []}),
    ("check-symbol", {**CHECK_SYMBOL, "t_values": [0.0]}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"], "data_count": 0}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"], "data_count": 1}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"], "data_count": 4.5}),
    ("verify-resolvent", {**task_cfgs()["verify-resolvent"], "per_axis": 0}),
    ("check-multipliers", {**task_cfgs()["check-multipliers"], "tuple_size": 0}),
    ("estimate-rbound", {**task_cfgs()["estimate-rbound"], "tuple_size": 0}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"], "p": "abc"}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"], "p": 0.5}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"], "thresholds": {"flatness": "abc"}}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "model": {"kind": "scalar", "a": 1.0, "q": "abc"}}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "sweep": {**small_verify_cfg()["sweep"], "phi2": "abc"}}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"], "seed": "abc"}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "sweep": {**small_verify_cfg()["sweep"], "n_rays": 2.7}}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "sweep": {**small_verify_cfg()["sweep"], "rays": [0.0],
                                     "radii": [1.0, 10.0]}}),
    ("check-multipliers", {**task_cfgs()["check-multipliers"], "rbound_subsample": "abc"}),
    ("check-multipliers", {**task_cfgs()["check-multipliers"], "rbound_subsample": -2}),
    ("check-multipliers", {**task_cfgs()["check-multipliers"], "rbound_subsample": 0}),
    ("estimate-rbound", {**task_cfgs()["estimate-rbound"], "q": "abc"}),
    ("estimate-rbound", {**task_cfgs()["estimate-rbound"], "q": 0.5}),
    ("check-kahane", {**task_cfgs()["check-kahane"], "q": "abc"}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "grid": {"n": 2, "M": 8, "L": 2 * np.pi},
                           "sweep": {"phi2": 0.5, "radii": [1.0], "t_values": [[1.0]]}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "power", "m": "2"}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "power", "m": 2.0, "gamma": True}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "power", "m": 2.0, "gamma": "0.5"}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "power", "m": NAN}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "power", "m": INF}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "power", "m": 2.0, "theta0": 0.3}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "power", "m": 2.0, "bogus": 1}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "user-table", "m": 2.0, "table": [
        [-10.0, 1.0, 0.0, 10.0], [100.0, 1.0, 0.0, 100.0], [0.0] * 4]}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "user-table", "m": 2.0, "table": [
        [-10.0, 0.0, 10.0], [100.0, 0.0], [0.0, 0.0]]}}),
    ("check-symbol", {**CHECK_SYMBOL, "symbol": {"kind": "user-table", "m": 2.0, "table": [
        [-10.0, 0.0, 10.0], [100.0, 0.0, 100.0], [0.0]]}}),
    ("solve-elliptic", {**small_elliptic_cfg(), "lambda": INF}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "model": {"kind": "bvp", "K": 8, "ell": INF}}),
    ("solve-elliptic", {**small_elliptic_cfg(), "grid": {"n": 1, "M": 32, "L": INF}}),
    ("solve-elliptic", {**small_elliptic_cfg(), "t": INF}),
    ("solve-parabolic", {**task_cfgs()["solve-parabolic"],
                         "forcing": {"kind": "gaussian", "omega": INF}}),
    ("estimate-rbound", {"family": {"kind": "lambda-resolvent", "model": {"kind": "scalar"},
                                    "lambdas": [INF]}}),
    ("estimate-rbound", {"family": {"kind": "matrices", "members": [[[1.0, NAN], [0.0, 1.0]]]}}),
    ("solve-elliptic", {**small_elliptic_cfg(),
                        "lower_terms": [{"alpha": [1.0], "coefficient": NAN}]}),
    ("solve-elliptic", {**small_elliptic_cfg(), "data": {"kind": "gaussian",
                                                         "vector": [1.0, NAN]}}),
    ("check-kahane", {"scalars": [0.5, NAN], "vectors": [[1.0], [2.0]]}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "sweep": {"phi2": 0.5, "radii": [-10.0, 5.0]}}),
    ("verify-coercivity", {**task_cfgs()["verify-coercivity"],
                           "sweep": {"phi2": 0.5, "radii": [1.0, NAN]}}),
    # schema-valid values whose fields are not finite
    ("solve-elliptic", {**small_elliptic_cfg(), "data": {"kind": "gaussian", "width": 1e-200}}),
    ("solve-parabolic", {**task_cfgs()["solve-parabolic"],
                         "forcing": {"kind": "gaussian", "width": 1e-200}}),
    ("solve-parabolic", {**task_cfgs()["solve-parabolic"],
                         "forcing": {"kind": "gaussian", "omega": 1e308}}),
    ("solve-elliptic", {**small_elliptic_cfg(), "grid": {"n": 1, "M": 32, "L": 1e308}}),
    ("solve-elliptic", {**small_elliptic_cfg(), "grid": {"n": 1, "M": 32, "L": 1e-300}}),
    ("check-kahane", {"scalars": [], "vectors": []}),
], ids=["family-kind", "resolvent-no-lambdas", "resolvent-no-model", "matrices-no-members", "no-members",
        "mixed-shapes", "ragged-member", "matrices-lambdas", "scalars-only", "vectors-only",
        "unequal-lengths", "lambdas-number", "lambdas-empty", "count-negative", "count-0",
        "count-fraction", "m-0", "N-negative", "xi-lo-0", "xi-lo-negative", "xi-hi-below-lo",
        "xi-hi-inf", "xi-count-0", "n-0", "t-values-empty", "t-value-0", "data-count-0",
        "data-count-1", "data-count-fraction", "per-axis-0", "multipliers-tuple-size-0",
        "rbound-tuple-size-0", "coercivity-p-text", "coercivity-p-below-1",
        "flatness-text", "model-q-text",
        "phi2-text", "seed-text", "n-rays-fractional", "rays-beside-n-rays",
        "subsample-text", "subsample-negative", "subsample-0", "rbound-q-text",
        "rbound-q-below-1", "kahane-q-text", "t-values-dimension", "symbol-m-text",
        "symbol-gamma-bool", "symbol-gamma-text", "symbol-m-nan", "symbol-m-inf",
        "symbol-theta0-on-power", "symbol-unknown-key", "table-unsorted",
        "table-value-count", "table-imag-count", "lambda-inf", "bvp-ell-inf", "grid-L-inf",
        "t-inf", "omega-inf", "lambdas-inf", "members-nan", "coefficient-nan", "vector-nan",
        "scalars-nan", "radii-negative", "radii-nan", "data-width-tiny", "forcing-width-tiny",
        "omega-huge", "grid-L-huge", "grid-L-tiny", "kahane-no-scalars"])
def test_malformed_family_or_instance_is_config_error(tmp_path, capsys, task, cfg):
    assert run_with_sets(tmp_path, task, {"task": task, **cfg}, []) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_singular_resolvent_family_is_execution_failure(tmp_path, capsys):
    # A + I is exactly singular, but the computed eigenvalues of this Jordan
    # block miss -1 by more than the spectrum guard's roundoff window
    cfg = {"task": "estimate-rbound", "family": {
        "kind": "lambda-resolvent", "model": {"kind": "matrix", "entries": [[0, 1], [-1, -2]]},
        "lambdas": [1.0]}}
    assert run_with_sets(tmp_path, "estimate-rbound", cfg, []) == 1
    assert "execution failed: ModeSingular: Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("task, model", [
    ("verify-resolvent", {"kind": "tridiagonal", "N": 3, "q": 3}),
    ("check-multipliers", {"kind": "matrix", "entries": [[1, 0.5], [0, 2]]})])
def test_overflowing_symbol_gives_mode_singular_records(tmp_path, task, model):
    """|xi|^400 overflows on the sampled frequencies, so each point's mode
    shifts are not finite: a ModeSingular record naming the frequency."""
    cfg = {**task_cfgs()[task], "model": model, "symbol": {"kind": "power", "m": 400},
           "sweep": {"phi2": 0.7, "n_rays": 2, "n_radii": 2, "n_t": 1}}
    assert run_with_sets(tmp_path, task, cfg, []) == 3
    points = json.loads((tmp_path / "out" / "report.json").read_text())["result"]["points"]
    assert len(points) == 4
    assert all(p["error"].startswith("ModeSingular: shift (inf") and
               p["error"].endswith("is not finite") for p in points)


def test_kahane_beyond_enumeration_limit_is_execution_failure(tmp_path, capsys):
    # 13 explicit scalars: the library check refuses them before any work
    cfg = {"task": "check-kahane", "scalars": [0.5] * 13, "vectors": [[1.0]] * 13}
    assert run_with_sets(tmp_path, "check-kahane", cfg, []) == 1
    assert "TooManyForEnumeration" in capsys.readouterr().err


@pytest.mark.parametrize("task, key, limit", [
    ("check-kahane", "random.m", verification.KAHANE_MAX),
    ("estimate-rbound", "tuple_size", verification.TUPLE_MAX),
    ("check-multipliers", "tuple_size", verification.TUPLE_MAX)])
def test_enumeration_size_beyond_its_limit_is_config_error(tmp_path, capsys, task, key, limit,
                                                           monkeypatch):
    # checked by the schema, so no instance is drawn and no tuple is scored
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for name in ("_kahane_checks", "estimate_rbound", "multiplier_family_check"):
        monkeypatch.setattr(tasks, name, no_work)
    cfg = dict(task_cfgs()[task])
    if task == "estimate-rbound":  # a two-member family: a mixed tuple would be searched
        cfg["family"] = {"kind": "matrices", "members": [[[1.0, 0.3], [0.0, 0.5]],
                                                         [[0.2, 0.0], [0.7, 1.0]]]}
    assert run_with_sets(tmp_path, task, cfg, [f"{key}={limit + 1}"]) == 2
    err = capsys.readouterr().err
    assert f"config error: config.{key} must be an integer from 1 to {limit}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_rays", [0, -1])
def test_no_rays_is_config_error_at_phi2_zero(tmp_path, n_rays):
    cfg_d = small_verify_cfg()
    cfg_d["sweep"].update(phi2=0.0, n_rays=n_rays)
    cfg = write_cfg(tmp_path, cfg_d)
    assert main(["verify-coercivity", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def key_note(key, kind):
    """`key` (its type unless it is an object, and its default)."""
    notes = [] if kind.what.startswith("an object") else [kind.what]
    if kind.default not in (tasks.REQUIRED, None, {}):
        notes.append(f"default {json.dumps(kind.default)}")
    return f"`{key}`" + (f" ({', '.join(notes)})" if notes else "")


def key_columns(table, form=""):
    """The required and the optional keys of a table, without the tag that
    names its form."""
    keys = [(k, kind) for k, kind in table.keys.items()
            if not (form and kind.what == f"one of {[form]}")]
    return [", ".join(key_note(k, kind) for k, kind in keys
                      if (kind.default is tasks.REQUIRED) == required) or "none"
            for required in (True, False)]


def schema_tables():
    """The README's CLI key tables, rendered from tasks.SCHEMA: one row per task,
    then one row per form of every config object."""
    task_rows = ["| task | required keys | optional keys | `thresholds` keys |", "|---|---|---|---|"]
    objects = ["| object | form | required keys | optional keys |", "|---|---|---|---|"]
    seen = set()

    def walk(name, kind, form=""):
        if id(kind) in seen and isinstance(kind, (tasks.Table, tasks.Switch)):
            return
        seen.add(id(kind))
        if isinstance(kind, tasks.List):
            walk(name + "[]", kind.item)
        elif isinstance(kind, tasks.Switch):
            for label, sub in kind.types.items():
                walk(name, sub, "" if isinstance(label, bool) else label)
        elif isinstance(kind, tasks.Table):
            required, optional = key_columns(kind, form)
            label = f"`{form}`" if form else ""
            objects.append(f"| `{name}` | {label} | {required} | {optional} |")
            for key, sub in kind.keys.items():
                walk(f"{name}.{key}", sub)

    for task, table in tasks.SCHEMA.items():
        keys = {k: kind for k, kind in table.keys.items()
                if k not in ("task", "seed", "thresholds")}
        required, optional = key_columns(tasks.Table(keys))
        thresholds = table.keys.get("thresholds")
        th = ", ".join(f"`{k}`" for k in thresholds.keys) if thresholds else "none"
        task_rows.append(f"| `{task}` | {required} | {optional} | {th} |")
        for key, kind in keys.items():
            walk(key, kind)
    return "\n".join(task_rows) + "\n\n" + "\n".join(objects) + "\n"


def test_readme_key_tables_are_the_schema():
    """After a schema change, paste the output of schema_tables() into the
    README's CLI section."""
    assert schema_tables() in README.read_text()
