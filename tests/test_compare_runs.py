"""The output comparison of tools/compare_runs.py on in-memory files: the
largest absolute and relative change of report.json values, solution.txt
numbers and solution.npy entries, and inf for a changed layout."""

import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def report(**values) -> bytes:
    return json.dumps({"task": "check-multipliers", "details": values}).encode()


def npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.asarray(array), allow_pickle=False)
    return buf.getvalue()


def test_report_changes_gives_absolute_and_relative_change():
    old = report(fd_sup={"(1,)": 0.5, "(0, 1)": 2.0}, sup=[1.0, 4.0, 0.0], ok=True, name="a")
    new = report(fd_sup={"(1,)": 0.5, "(0, 1)": 2.5}, sup=[1.5, 3.0, 0.0], ok=True, name="a")
    assert compare_runs.report_changes(old, new) == {
        "details.fd_sup.(0, 1)": (0.5, 0.25),
        "details.sup[]": (1.0, 0.5),  # the largest of each kind: |3 - 4| and |1.5 - 1| / 1
    }
    assert compare_runs.report_changes(old, old) == {}


def test_report_changes_marks_zero_old_values_and_layout():
    assert compare_runs.report_changes(report(x=0.0), report(x=1e-300)) == {
        "details.x": (1e-300, math.inf)}
    assert compare_runs.report_changes(report(x=1.0), report(x="inf")) == {
        "details.x": (math.inf, math.inf)}
    assert compare_runs.report_changes(report(x=True), report(x=False)) == {
        "details.x": (math.inf, math.inf)}
    assert compare_runs.report_changes(report(x="nan"), report(x="nan")) == {}
    assert compare_runs.report_changes(report(x=1.0), report(y=1.0)) == {
        "(layout)": (math.inf, math.inf)}


def test_solution_change_reads_numbers_only():
    old = b"# x u\n0.0 2.0\n1.0 -4.0\n"
    assert compare_runs.solution_change(old, old) == (0.0, 0.0)
    assert compare_runs.solution_change(old, b"# x u\n0.0 2.0\n1.0 -3.0\n") == (1.0, 0.25)
    assert compare_runs.solution_change(old, b"0.0 2.0\n") == (math.inf, math.inf)


def test_array_change_parts_apart():
    old = np.array([[1.0 + 2.0j, 0.0 - 4.0j], [np.nan, np.inf]])
    new = np.array([[1.0 + 2.5j, 0.0 - 4.0j], [np.nan, np.inf]])
    assert compare_runs.array_change(npy(old), npy(old)) == (0.0, 0.0)
    assert compare_runs.array_change(npy(old), npy(new)) == (0.5, 0.25)
    assert compare_runs.array_change(npy(old), npy(old + 1e-300)) == (1e-300, math.inf)
    assert compare_runs.array_change(npy([1.0, 2.0]), npy([1.0, np.nan])) == (math.inf, math.inf)
    assert compare_runs.array_change(npy([1.0, np.inf]), npy([1.0, -np.inf])) == (math.inf,
                                                                                  math.inf)
    assert compare_runs.array_change(npy(old), npy(old[0])) == (math.inf, math.inf)
    assert compare_runs.array_change(npy(old), npy(old.real)) == (math.inf, math.inf)
