"""Output checks: each returns a list of failure messages for one task run.

The oracles do not depend on the seed.  A failed check marks the task run as
failed; it never stops the benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Acceptance-suite constants of the shipped scalar-reference sweep at seed 0.
PINNED_MAX_RATIO = 1.623588029840643
PINNED_FLATNESS = 1.0052362115134845
PINNED_REL = 1e-9
# Implicit Euler is first order in the step dy and Duhamel second order, so
# their final slices differ by O(dy); this constant bounds the O().
FIRST_ORDER_CONSTANT = 2.0


def _close(value, expected, rel):
    return value is not None and abs(value - expected) <= rel * abs(expected)


def final_slice(solution_txt: str) -> np.ndarray:
    """Complex values of the last time slice of an exported space-time field."""
    lines = solution_txt.strip().splitlines()
    header = max(i for i, line in enumerate(lines) if line.startswith("#"))
    n = sum(1 for col in lines[header][1:].split() if col.startswith("x"))
    rows = np.array([[float(v) for v in line.split()] for line in lines[header + 1:]])
    vals = rows[:, n:]
    return vals[:, 0::2] + 1j * vals[:, 1::2]


def check_task(task, code: int, report: dict) -> list:
    """Exit code, verdict and the task kind's seed-independent oracle."""
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if report.get("verdict") != "pass":
        failures.append(f"verdict {report.get('verdict')!r}")
    result = report.get("result", {})
    cfg = task.config
    if task.kind in ("verify-coercivity", "verify-resolvent", "check-multipliers"):
        summary = result.get("summary", {})
        errors = [p["error"] for p in result.get("points", []) if p.get("error")]
        if errors:
            failures.append(f"{len(errors)} sweep points failed: {errors[0]}")
        limit = cfg.get("thresholds", {}).get("flatness")
        if limit is not None and not (summary.get("flatness") or math.inf) <= limit:
            failures.append(f"flatness {summary.get('flatness')} above {limit}")
        if task.kind == "check-multipliers":
            # sigma = a / (a + lam + P) with Re lam > 0 and P >= 0 has modulus <= 1
            sup = result.get("details", {}).get("sigma_sup", math.inf)
            if not sup <= 1.0 + 1e-12:
                failures.append(f"sigma_sup {sup} above 1")
    elif task.kind == "estimate-rbound":
        est = result.get("rbound_lower", math.nan)
        family = cfg["family"]
        if family["kind"] == "lambda-resolvent":
            a = family["model"]["a"]
            s = max(abs(lam / (a + lam)) for lam in family["lambdas"])
            if not s - 1e-9 <= est <= 2.0 * s + 1e-9:
                failures.append(f"rbound_lower {est} outside [S, 2S] with S = {s}")
        else:
            # a singleton's R-bound is its operator norm, which probe_norm reaches
            probe = result.get("singleton_probe_norm")
            norm = float(np.linalg.norm(np.array(family["members"][0]), 2))
            if probe is None or not abs(est - probe) <= 1e-6:
                failures.append(f"rbound_lower {est} differs from probe norm {probe}")
            if not est <= norm * (1.0 + 1e-9):
                failures.append(f"rbound_lower {est} above the operator norm {norm}")
    elif task.kind == "check-kahane":
        if result.get("all_within_bound") is not True:
            failures.append("a Kahane instance exceeds its bound")
        if not result.get("worst_normalized_constant", math.inf) <= 1.0 + 1e-12:
            failures.append("real-scalar Kahane constant above 1")
    elif task.kind == "solve-elliptic":
        if not result.get("residual", math.inf) < cfg["residual_tol"]:
            failures.append(f"residual {result.get('residual')} not below tolerance")
        if not result.get("contraction", math.inf) < 1.0:
            failures.append(f"contraction {result.get('contraction')} not below 1")
    elif task.kind == "solve-parabolic":
        # f = du/dy + P u + A u up to the residual, so the ratio is at least 1 - residual
        ratio, residual = result.get("coercive_ratio"), result.get("residual", math.inf)
        if ratio is None or not ratio >= 1.0 - residual - 1e-9:
            failures.append(f"coercive ratio {ratio} below 1 - residual")
    return failures


def check_first_order(euler_dir: Path, duhamel_dir: Path, steps: int, horizon: float) -> list:
    """Implicit-Euler and Duhamel final slices of one problem agree to O(dy)."""
    u_e = final_slice((euler_dir / "solution.txt").read_text())
    u_d = final_slice((duhamel_dir / "solution.txt").read_text())
    rel = float(np.linalg.norm(u_e - u_d) / np.linalg.norm(u_d))
    bound = FIRST_ORDER_CONSTANT * horizon / steps
    if not rel <= bound:
        return [f"implicit-Euler and Duhamel final slices differ by {rel:.3e} > {bound:.3e}"]
    return []


def check_pinned(report: dict) -> list:
    """The acceptance suite's pinned scalar-reference constants."""
    summary = report.get("result", {}).get("summary", {})
    failures = []
    if not _close(summary.get("max_ratio"), PINNED_MAX_RATIO, PINNED_REL):
        failures.append(f"max_ratio {summary.get('max_ratio')} != {PINNED_MAX_RATIO}")
    if not _close(summary.get("flatness"), PINNED_FLATNESS, PINNED_REL):
        failures.append(f"flatness {summary.get('flatness')} != {PINNED_FLATNESS}")
    return failures


def load_report(out_dir: Path):
    """(bytes, parsed) of a task's report.json, or (None, {}) if it is missing."""
    path = out_dir / "report.json"
    if not path.is_file():
        return None, {}
    raw = path.read_bytes()
    return raw, json.loads(raw)
