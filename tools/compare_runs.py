"""Run the same configs on two checkouts of this repository and compare the outputs.

    python tools/compare_runs.py PARENT CHANGE [--seeds 0 7 43]

PARENT and CHANGE are checkout roots.  The runs are every `scenarios/*.json`
and every task of `perfbench/workloads.WORKLOADS`, each at every seed, and
each solve (`solve-elliptic`, `solve-parabolic`) once more with
`export_fields` set; runs with the same config and seed are run once.
Each checkout supplies its own run list, and each run is a fresh interpreter
on that checkout's `src/`, with PYTHONDONTWRITEBYTECODE=1 so that neither
tree gains a `__pycache__`.  From `perfbench/` only `workloads.py` is
imported; nothing there is written.

The tool prints the run count, every run whose exit code changed, and the
number of byte-identical output files.  For each differing `report.json` it
prints the values that moved (list indices folded to `[]`) with their
largest absolute change, for each differing `solution.txt` the largest
absolute change of its numbers, and for each differing `solution.npy` the
largest absolute change of its values' real and imaginary parts.  A changed
layout (key paths, number count, or the array's shape or dtype) is a change
of inf.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SOLVES = ("solve-elliptic", "solve-parabolic")
MAIN = "import sys; from psdo.cli import main; sys.exit(main(sys.argv[1:]))"


def _workloads(root: Path):
    """The WORKLOADS table of a checkout's perfbench/workloads.py."""
    path = root / "perfbench" / "workloads.py"
    name = f"_workloads_{len(sys.modules)}"  # a fresh name: each checkout has its own
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_list(root: Path, seeds) -> dict:
    """{run name: (config dict, seed)} of one checkout."""
    configs = [(f"scenario/{p.stem}", json.loads(p.read_text()), None)
               for p in sorted((root / "scenarios").glob("*.json"))]
    workloads, runs, seen = _workloads(root), {}, set()
    for seed in seeds:
        tasks = [(f"{workload}/{task.name}", task.config, task.seed)
                 for workload, make in workloads.items() for task in make(seed)]
        for name, cfg, fixed in configs + tasks:
            run_seed = seed if fixed is None else fixed
            variants = {"": cfg}
            if cfg.get("task") in SOLVES:
                variants["+export"] = {**cfg, "export_fields": True}
            for suffix, variant in variants.items():
                key = json.dumps([variant, run_seed], sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    runs[f"{name}@{seed}{suffix}"] = (variant, run_seed)
    return runs


def run_all(root: Path, runs: dict, work: Path) -> dict:
    """{run name: exit code}; the outputs of run r are under work/r/out."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    codes = {}
    for name, (cfg, seed) in runs.items():
        here = work / name.replace("/", "__")
        here.mkdir(parents=True)
        (here / "config.json").write_text(json.dumps(cfg))
        argv = [sys.executable, "-c", MAIN, "run-scenario", "--config", "config.json",
                "--seed", str(seed), "--out", "out"]
        codes[name] = subprocess.run(argv, cwd=here, env=env, capture_output=True).returncode
    return codes


def _leaves(obj, path=""):
    """(path, value) of every leaf of parsed JSON; list indices become []."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, f"{path}[]")
    else:
        yield path, obj


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if value in ("nan", "inf", "-inf"):
        return float(value)
    return None


def _change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def report_changes(old: bytes, new: bytes) -> dict:
    """{value path: largest absolute change} of two report.json files."""
    a, b = list(_leaves(json.loads(old))), list(_leaves(json.loads(new)))
    if [p for p, _ in a] != [p for p, _ in b]:
        return {"(layout)": math.inf}
    moved = {}
    for (path, x), (_, y) in zip(a, b):
        if x == y:
            continue
        nx, ny = _number(x), _number(y)
        change = math.inf if nx is None or ny is None else _change(nx, ny)
        if change > 0:
            moved[path] = max(moved.get(path, 0.0), change)
    return moved


def _columns(text: bytes) -> list:
    return [float(v) for line in text.decode().splitlines()
            if line and not line.startswith("#") for v in line.split()]


def solution_change(old: bytes, new: bytes) -> float:
    """Largest absolute change between the numbers of two solution.txt files."""
    a, b = _columns(old), _columns(new)
    if len(a) != len(b):
        return math.inf
    return max((_change(x, y) for x, y in zip(a, b)), default=0.0)


def array_change(old: bytes, new: bytes) -> float:
    """Largest absolute change between the values of two solution.npy files,
    real and imaginary parts apart; inf if the shape or dtype differ."""
    a, b = (np.load(io.BytesIO(raw), allow_pickle=False) for raw in (old, new))
    if a.shape != b.shape or a.dtype != b.dtype:
        return math.inf
    x, y = (v.view(np.float64) if v.dtype == np.complex128 else v.astype(float) for v in (a, b))
    with np.errstate(invalid="ignore"):
        change = np.abs(x - y)  # nan where either is nan, or both are infinities of one sign
    change[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
    change[np.isnan(change)] = math.inf
    return float(change.max(initial=0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7, 43])
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # importing workloads.py leaves no __pycache__
    roots = [args.parent.resolve(), args.change.resolve()]
    lists = [run_list(root, args.seeds) for root in roots]
    names = [n for n in lists[1] if n in lists[0]]
    for side, runs, other in (("parent", lists[0], lists[1]), ("change", lists[1], lists[0])):
        for name in runs:
            if name not in other:
                print(f"only in {side}: {name}")
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / "parent", Path(tmp) / "change"]
        codes = [run_all(root, {n: runs[n] for n in names}, work)
                 for root, runs, work in zip(roots, lists, works)]
        print(f"runs: {len(names)} a side")
        changed = [n for n in names if codes[0][n] != codes[1][n]]
        for name in changed:
            print(f"exit code changed: {name}: {codes[0][name]} -> {codes[1][name]}")
        if not changed:
            print("exit codes: all unchanged")
        total = same = 0
        lines, largest = [], {}
        for name in names:
            outs = [work / name.replace("/", "__") / "out" for work in works]
            files = sorted({p.name for out in outs if out.is_dir() for p in out.iterdir()})
            for fname in files:
                total += 1
                paths = [out / fname for out in outs]
                if not all(p.is_file() for p in paths):
                    lines.append(f"{name}/{fname}: only on one side")
                    continue
                old, new = (p.read_bytes() for p in paths)
                if old == new:
                    same += 1
                    continue
                if fname == "report.json":
                    moved = report_changes(old, new)
                else:
                    compare = array_change if fname.endswith(".npy") else solution_change
                    moved = {fname: compare(old, new)}
                lines.append(f"{name}/{fname}: " + ", ".join(
                    f"{path} {change:.2g}" for path, change in sorted(moved.items())))
                for path, change in moved.items():
                    largest[path] = max(largest.get(path, 0.0), change)
        print(f"files: {same} of {total} byte-identical")
        for line in lines:
            print(line)
        print("largest absolute change over all runs: " + (", ".join(
            f"{path} {change:.2g}" for path, change in sorted(largest.items())) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
