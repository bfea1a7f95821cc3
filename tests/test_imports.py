"""Import hygiene: no module of the package imports scipy, so a run pays
only for numpy at start-up; importing psdo loads none of its modules and
importing psdo.cli only the entry, each export loading on first access;
every module (the re-exporting __init__.py aside) uses each name it
imports, only operators.py makes spectral decisions about A (dense
inverses, solves and eigendecompositions, the eigenbasis condition
limit KAPPA_LIMIT, numpy's LinAlgError, and reads of a
model's eigen-data kappa, eigvals, eigvecs and eigvecs_inv), only GridSpec.fft/ifft in
spaces.py transform sampled fields, only symbols.py names the axis factor
of (i xi)^alpha, so i_xi_power stays its one product, no module takes the
modulus of i_xi_power, which verification._symbol_weights forms from real
powers, outside symbols.py
only elliptic._shifts and EllipticProblem.symbol_values evaluate the symbol,
so every mode shift lambda + P_t(xi) is formed in one place, the CLI's task
handlers read config values only through its schema, and every public
function or class is used by the package or named in PUBLIC_API."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "psdo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def scipy_imports(source: str) -> list:
    """Line numbers of every import of scipy or of a scipy submodule,
    wherever it stands (module level, in a function, under try)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_scipy_import_is_detected():
    source = ("import numpy as np\nfrom scipy import optimize\n"
              "def f():\n    import scipy.linalg as la\n    return la\n"
              "try:\n    import scipy\nexcept ImportError:\n    scipy = None\n"
              "from .scipy_like import x\nimport scipyx\n")
    assert scipy_imports(source) == [2, 4, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    assert scipy_imports(path.read_text()) == []


def fresh(*args):
    """A fresh interpreter run with `args`, importing psdo from the source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={"PYTHONPATH": str(PACKAGE.parent)}, timeout=120)


def test_cli_runs_without_loading_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI and running an R-bound search
    at q = 1 on a mixed tuple and a multiplier check leaves scipy unloaded."""
    rbound = {"task": "estimate-rbound", "q": 1.0, "tuple_size": 2, "family": {
        "kind": "matrices", "members": [[[1.0, 0.3], [0.0, 0.5]], [[0.2, 0.0], [0.7, 1.0]]]}}
    multipliers = {"task": "check-multipliers", "grid": {"n": 1, "M": 16, "L": 6.0},
                   "model": {"kind": "scalar", "a": 1.0}, "symbol": {"kind": "power", "m": 2.0},
                   "sweep": {"phi2": 0.7, "n_rays": 2, "n_radii": 2, "radius_range": [1.0, 1e3],
                             "n_t": 1, "t_range": [1.0, 1.0]},
                   "rbound_subsample": 2, "tuple_size": 2}
    for name, cfg in (("rbound", rbound), ("multipliers", multipliers)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    script = ("import sys\n"
              "import psdo.cli\n"
              "loaded = 'scipy' in sys.modules\n"
              "for name in ('rbound', 'multipliers'):\n"
              "    path = sys.argv[1] + '/' + name\n"
              "    code = psdo.cli.main(['run-scenario', '--config', path + '.json', '--out', path])\n"
              "    assert code == 0, (name, code)\n"
              "print(loaded, 'scipy' in sys.modules)\n")
    run = fresh("-c", script, str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False False"
    report = json.loads((tmp_path / "rbound" / "report.json").read_text())
    assert report["result"]["tuple_indices"] == [0, 1]


def test_cli_import_loads_the_entry_only():
    """`import psdo` loads none of the package's modules, and `import psdo.cli`
    only the entry and the errors (and no numpy): the schema, the handlers and
    the library load on first use.  The entry still answers --version and
    rejects an unknown command."""
    script = ("import sys\n"
              "def loaded():\n"
              "    return [m for m in sorted(sys.modules) if m.split('.')[0] in ('psdo', 'numpy')]\n"
              "import psdo\n"
              "print(loaded())\n"
              "import psdo.cli\n"
              "print(loaded())\n")
    run = fresh("-c", script)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [str(["psdo"]), str(["psdo", "psdo.cli", "psdo.errors"])]
    version = fresh("-m", "psdo.cli", "--version")
    assert (version.returncode, version.stdout.strip()) == (0, "0.1.0"), version.stderr
    unknown = fresh("-m", "psdo.cli", "no-such-command", "--config", "cfg.json")
    assert unknown.returncode == 2
    assert "invalid choice: 'no-such-command'" in unknown.stderr


def test_cli_ends_before_a_task_without_the_library(tmp_path):
    """--help, a usage error and a config error found before the task exit
    with their codes in a fresh interpreter that has loaded no module of the
    library: the parser takes the task names from cli.COMMANDS, not from
    psdo.tasks."""
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "no-task.json").write_text(json.dumps({"task": "no-such-task"}))
    script = ("import sys\n"
              "from psdo.cli import main\n"
              "for argv in (['--help'], ['verify-coercivity'], ['--seed', '-1'],\n"
              "             ['check-symbol', '--config', sys.argv[1] + '/missing.json'],\n"
              "             ['check-symbol', '--config', sys.argv[1] + '/empty.json'],\n"
              "             ['run-scenario', '--config', sys.argv[1] + '/no-task.json']):\n"
              "    try:\n"
              "        code = main(argv)\n"
              "    except SystemExit as exc:\n"
              "        code = exc.code\n"
              "    print('exit', code)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('psdo', 'numpy')))\n")
    run = fresh("-c", script, str(tmp_path))
    assert run.returncode == 0, run.stderr
    lines = [line for line in run.stdout.splitlines() if line.startswith(("exit", "["))]
    assert lines == ["exit 0"] + ["exit 2"] * 5 + [str(["psdo", "psdo.cli", "psdo.errors"])]
    assert "scenario must declare a valid 'task', got 'no-such-task'" in run.stderr


def test_cli_commands_are_the_registered_tasks():
    from psdo import cli, tasks
    assert cli.COMMANDS == tuple(tasks.TASKS)


def test_every_export_is_the_attribute_of_its_defining_module():
    import psdo
    for name in psdo.__all__:
        value = getattr(psdo, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__.startswith("psdo."), name
    assert set(psdo.__all__) <= set(dir(psdo))


def test_star_import_binds_every_export():
    script = ("import psdo\n"
              "from psdo import *\n"
              "print(all(globals()[name] is getattr(psdo, name) for name in psdo.__all__))\n")
    run = fresh("-c", script)
    assert (run.returncode, run.stdout.strip()) == (0, "True"), run.stderr


def test_missing_package_attribute_is_an_attribute_error():
    import psdo
    with pytest.raises(AttributeError, match="'psdo' has no attribute 'no_such_name'"):
        psdo.no_such_name


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_detected():
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["np", "os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


SPECTRAL_KERNELS = {"inv", "solve", "eig", "eigh"}
SPECTRAL_NAMES = {"KAPPA_LIMIT", "LinAlgError"}
EIGEN_DATA = {"kappa", "eigvals", "eigvecs", "eigvecs_inv"}


def spectral_decisions(source: str) -> list:
    """linalg inv/solve/eig/eigh calls, KAPPA_LIMIT and LinAlgError names,
    _mode_matrices imports from elliptic and attribute reads of a model's
    eigen-data, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in SPECTRAL_KERNELS:
            base = node.func.value
            if getattr(base, "attr", getattr(base, "id", None)) == "linalg":
                found.append((node.lineno, f"linalg.{node.func.attr}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for a in node.names:
                if module.endswith("linalg") and a.name in SPECTRAL_KERNELS:
                    found.append((node.lineno, f"linalg.{a.name}"))
                elif a.name in SPECTRAL_NAMES:
                    found.append((node.lineno, a.name))
                elif a.name == "_mode_matrices" and module.split(".")[-1] == "elliptic":
                    found.append((node.lineno, "_mode_matrices"))
        elif isinstance(node, (ast.Name, ast.Attribute)) and (
                name := getattr(node, "id", getattr(node, "attr", None))) in SPECTRAL_NAMES:
            found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr in EIGEN_DATA:
            found.append((node.lineno, f".{node.attr}"))
    return [name for _, name in sorted(found)]


def test_spectral_decision_is_detected():
    source = ("import numpy as np\nfrom numpy.linalg import eigh\n"
              "from .operators import KAPPA_LIMIT\nfrom .elliptic import _mode_matrices\n"
              "x = np.linalg.inv(a)\ny = scipy.linalg.solve(a, b)\nz = ops.KAPPA_LIMIT\n"
              "w = np.linalg.svd(a)\nif model.kappa == 1.0:\n    v = model.eigvecs[:, 0]\n"
              "d = m.eigvals + s\nr = prob.model.eigvecs_inv\nkappa = 0.0\n"
              "w, V, Vinv = eigenbasis(model)\n"
              "from numpy.linalg import LinAlgError\n"
              "try:\n    x = f(a)\nexcept np.linalg.LinAlgError:\n    x = None\n"
              "errors = (ValueError, LinAlgError)\nLinAlgErrors = 0\n")
    assert spectral_decisions(source) == ["linalg.eigh", "KAPPA_LIMIT", "_mode_matrices",
                                          "linalg.inv", "linalg.solve", "KAPPA_LIMIT",
                                          ".kappa", ".eigvecs", ".eigvals", ".eigvecs_inv",
                                          "LinAlgError", "LinAlgError", "LinAlgError"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "operators.py"],
                         ids=lambda p: p.name)
def test_only_operators_decides_about_the_spectrum(path):
    assert spectral_decisions(path.read_text()) == []


def np_fft_names(source: str) -> list:
    """(enclosing class/function path, name) for each use of np.fft, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Attribute) \
                    and child.value.attr == "fft" and getattr(child.value.value, "id", None) == "np":
                found.append((child.lineno, inner, child.attr))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [getattr(child, "module", None) or ""] + [a.name for a in child.names]
                if any(name == "fft" or name.startswith("numpy.fft") for name in names):
                    found.append((child.lineno, inner, "import"))
            visit(child, inner)

    visit(ast.parse(source), "")
    return [(scope, name) for _, scope, name in sorted(found)]


def test_np_fft_use_is_detected():
    source = ("import numpy as np\nfrom numpy.fft import fftn\n"
              "class G:\n    def f(self, v):\n        return np.fft.fftn(v)\n"
              "def h(v):\n    return np.fft.fftfreq(4) + np.linalg.norm(v)\n")
    assert np_fft_names(source) == [("", "import"), ("G.f", "fftn"), ("h", "fftfreq")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "spaces.py"],
                         ids=lambda p: p.name)
def test_only_spaces_names_np_fft(path):
    assert np_fft_names(path.read_text()) == []


def test_grid_spec_owns_the_transforms():
    names = np_fft_names((PACKAGE / "spaces.py").read_text())
    transforms = [(scope, name) for scope, name in names if name != "fftfreq"]
    assert transforms == [("GridSpec.fft", "fftn"), ("GridSpec.ifft", "ifftn")]


def axis_factor_names(source: str) -> list:
    """Line numbers of every import, name, attribute or definition called
    i_xi_power_factor."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if "i_xi_power_factor" in (getattr(node, "id", None),
                                             getattr(node, "attr", None),
                                             getattr(node, "name", None)))


def test_axis_factor_use_is_detected():
    source = ("from .symbols import i_xi_power_factor as f\nimport psdo.symbols as s\n"
              "y = s.i_xi_power_factor(x, 1.0)\ndef i_xi_power_factor(x, a):\n"
              "    return x\nz = i_xi_power(x, a) + i_xi_power_factor\n")
    assert axis_factor_names(source) == [1, 3, 4, 6]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "symbols.py"],
                         ids=lambda p: p.name)
def test_only_symbols_names_the_axis_factor(path):
    assert axis_factor_names(path.read_text()) == []


def complex_power_moduli(source: str) -> list:
    """Line numbers of every abs, np.abs or np.absolute call whose argument is
    an i_xi_power call, as a bare name or an attribute."""
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and name(node.func) in ("abs", "absolute")
                  and node.args and isinstance(node.args[0], ast.Call)
                  and name(node.args[0].func) == "i_xi_power")


def test_complex_power_modulus_is_detected():
    source = ("import numpy as np\nfrom .symbols import i_xi_power\n"
              "a = np.abs(i_xi_power(xi, alpha))\nb = abs(symbols.i_xi_power(xi, alpha))\n"
              "c = np.absolute(\n    i_xi_power(xi, alpha))\n"
              "d = np.abs(i_xi_power_factor(x, 1.0)) + i_xi_power(np.abs(xi), alpha)\n"
              "e = np.abs(xi) ** 2 * np.abs(f(i_xi_power(xi, alpha)))\n")
    assert complex_power_moduli(source) == [3, 4, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_takes_the_modulus_of_the_complex_power(path):
    """|(i xi)^alpha| is the product of real powers |xi_k|^alpha_k, taken in
    verification._symbol_weights; no complex power is formed for its modulus."""
    assert complex_power_moduli(path.read_text()) == []


def eval_symbol_uses(source: str) -> list:
    """Enclosing class/function path of each use of the name eval_symbol, as a
    bare name or an attribute (imports do not count), in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if "eval_symbol" in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.append((child.lineno, child.col_offset, inner))
            visit(child, inner)

    visit(ast.parse(source), "")
    return [scope for _, _, scope in sorted(found)]


def test_eval_symbol_use_is_detected():
    source = ("from .symbols import eval_symbol\nimport psdo.symbols as s\n"
              "class P:\n    def values(self, xi):\n        return eval_symbol(self.s, self.t, xi)\n"
              "def f(spec, t, xi):\n    g = functools.partial(s.eval_symbol, spec)\n"
              "    return g(t, xi)\nh = lambda x: eval_symbol(a, b, x)\n")
    assert eval_symbol_uses(source) == ["P.values", "f", ""]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "symbols.py"],
                         ids=lambda p: p.name)
def test_only_the_shift_builder_evaluates_the_symbol(path):
    """Every mode shift lambda + P_t(xi) is formed, and checked against the
    spectrum of A, in elliptic._shifts; symbol_values gives the lattice P_t(xi)
    of the forward operator and the graph norm."""
    expected = ["EllipticProblem.symbol_values", "_shifts"] if path.name == "elliptic.py" else []
    assert eval_symbol_uses(path.read_text()) == expected


def config_value_reads(source: str) -> list:
    """(function, call) for each int(...), float(...) or .get(...) call in the
    body of a _task_* handler or _parse_* helper, in source order."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith(("_task_", "_parse_"))):
            continue
        for node in (n for stmt in fn.body for n in ast.walk(stmt)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) if isinstance(node.func, ast.Name) \
                else getattr(node.func, "attr", None)
            if name in ("int", "float") and isinstance(node.func, ast.Name) \
                    or name == "get" and isinstance(node.func, ast.Attribute):
                found.append((node.lineno, node.col_offset, fn.name, name))
    return [(fn, name) for _, _, fn, name in sorted(found)]


def test_config_value_read_is_detected():
    source = ("@_task('x', {'n': int})\ndef _task_x(cfg, seed):\n"
              "    return int(cfg['n']) + cfg.get('p', 2)\n"
              "def _parse_y(v):\n    def inner():\n        return float(v)\n    return inner\n"
              "def helper(cfg):\n    return int(cfg.get('n'))\n")
    assert config_value_reads(source) == [("_task_x", "int"), ("_task_x", "get"),
                                          ("_parse_y", "float")]


def test_cli_handlers_read_only_checked_values():
    """The config schema in tasks.py is the one place raw config values are read
    and converted: no task handler or parse helper calls int(), float() or .get()."""
    source = (PACKAGE / "tasks.py").read_text()
    readers = [node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef) and node.name.startswith(("_task_", "_parse_"))]
    assert sum(name.startswith("_task_") for name in readers) == 8
    assert config_value_reads(source) == []


# Public functions and classes that no package code uses, each kept for a reason.
PUBLIC_API = {
    "solve_principal": "the exact per-mode solve of one field; acceptance pins its exactness",
    "contraction_estimate": "the contraction of the Neumann solve on its own; oracle tests pin it "
                            "against dense norms",
    "check_positivity": "the sector-positivity certificate of A; acceptance checks a BVP's",
    "solve_duhamel": "the Duhamel solution on the grid; acceptance uses it as the fine reference",
    "solve_implicit_euler": "the implicit-Euler solution on the grid; acceptance checks its order",
    "sector_sum_constant": "C of |lam + nu| >= C (|lam| + |nu|); acceptance checks its closed form",
    "power_symbol": "builds the power symbol for library callers; configs build it in tasks.SYMBOL",
    "rotated_power_symbol": "builds the rotated power symbol for library callers",
    "smoothed_power_symbol": "builds the smoothed power symbol for library callers",
    "kahane_contraction_check": "one instance's Kahane check as a KahaneResult; acceptance "
                                "checks random real instances with it",
}


def unreferenced_public_names(sources: dict) -> list:
    """(module, name) of each public top-level function or class of the
    modules {name: source} that no code of them names outside its own
    definition.  A name counts as a bare name or as an attribute; strings
    and docstrings do not count."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.append((module, own))
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) if isinstance(sub, ast.Name) \
                    else getattr(sub, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return [(module, name) for module, name in defined if name not in used]


def test_unreferenced_public_name_is_detected():
    sources = {"a.py": ('def used(x):\n    return used(x - 1)\n'
                        'def dead():\n    """calls used and Kept"""\n    return "dead"\n'
                        'class Kept:\n    pass\n'
                        'def _private():\n    return 0\n'),
               "b.py": "from .a import used\nimport a\ny = a.Kept()\nz = used(3)\n"}
    assert unreferenced_public_names(sources) == [("a.py", "dead")]
    assert unreferenced_public_names({"a.py": sources["a.py"]}) == [
        ("a.py", "used"), ("a.py", "dead"), ("a.py", "Kept")]


def test_every_public_name_is_used_or_kept_for_a_reason():
    """Dead public code fails here: delete it, or add it to PUBLIC_API with
    the reason it stays."""
    found = unreferenced_public_names({p.name: p.read_text() for p in MODULES})
    assert [name for _, name in found if name not in PUBLIC_API] == []
    assert sorted(name for _, name in found) == sorted(PUBLIC_API)  # no stale entry
