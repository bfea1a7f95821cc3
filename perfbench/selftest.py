"""Tests of the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's test collection;
they run psdo workloads and take about half a minute.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

import env

env.import_psdo()

import checks  # noqa: E402
from runner import Client  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Public functions each workload must call at least once (per the per-layer
# metric list); a zero count means a binding of the function was not patched.
EXPECTED_CALLS = {
    "coercivity": [
        "cli.main", "verification.coercivity_sweep", "verification.coercive_ratio",
        "operators.operator_norm", "operators.make_model", "operators.build_bvp_operator",
        "symbols.i_xi_power", "symbols.eval_symbol", "elliptic.solve_principal",
        "elliptic.apply_operator", "spaces.lp_lq_norm", "spaces.liouville_derivative",
        "spaces.gaussian_field", "spaces.mode_field", "spaces.random_band_limited_field",
    ],
    "probe": [
        "cli.main", "verification.resolvent_sweep", "verification.multiplier_family_check",
        "verification.estimate_rbound", "verification.rademacher_average",
        "verification.probe_norm", "verification.kahane_contraction_check",
        "operators.operator_norm", "operators.resolvent", "symbols.i_xi_power",
        "symbols.eval_symbol",
    ],
    "evolution": [
        "cli.main", "parabolic.solve_duhamel", "parabolic.solve_implicit_euler",
        "parabolic.parabolic_coercive_ratio", "parabolic.equation_residual",
        "spaces.mixed_norm", "spaces.lp_lq_norm", "elliptic.solve_full",
        "elliptic.contraction_estimate", "elliptic.solve_principal",
        "elliptic.apply_operator",
    ],
}
# Functions a workload must never reach: the "[workload: none]" predictions.
EXPECTED_ABSENT = {
    "coercivity": ["verification.rademacher_average", "parabolic.solve_duhamel"],
    "probe": ["elliptic.solve_principal", "parabolic.solve_duhamel"],
    "evolution": ["verification.coercivity_sweep", "verification.rademacher_average",
                  "operators.operator_norm"],
}


def test_self_times_subtract_union_of_children():
    #  0 root [0, 10]
    #  1   child [1, 3]      3   grandchild of 1 [1.5, 2]
    #  2   child [2, 5]      overlaps 1 on [2, 3]
    #  4   child [6, 7]
    start = [0.0, 1.0, 2.0, 1.5, 6.0]
    end = [10.0, 3.0, 5.0, 2.0, 7.0]
    parent = [-1, 0, 0, 1, 0]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10.0 - 5.0, 2.0 - 0.5, 3.0, 0.5, 1.0])


def test_aggregate_scales_and_counts_recursion_once():
    tracer = Tracer(package="no-such-package")
    tracer.names = ["m.f"]
    for fn, s, e, p, nested in [(0, 0.0, 4.0, -1, 0), (0, 1.0, 2.0, 0, 1)]:
        tracer.fn.append(fn)
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.task.append(0)
        tracer.nested.append(nested)
    agg = tracer.aggregate({0: 0.5})["m.f"]
    assert agg == {"calls": 2, "total_s": 2.0, "self_s": pytest.approx(2.0)}


def test_same_seed_same_configs_other_seed_other_inputs():
    for make in WORKLOADS.values():
        assert [t.config for t in make(7)] == [t.config for t in make(7)]
        assert [t.config for t in make(7)] != [t.config for t in make(8)]


def test_failed_check_is_a_failed_task():
    task = WORKLOADS["probe"](0)[-1]
    report = {"verdict": "pass", "result": {"all_within_bound": False,
                                            "worst_normalized_constant": 1.5}}
    assert len(checks.check_task(task, 0, report)) == 2
    assert checks.check_task(task, 3, {"verdict": "fail", "result": {
        "all_within_bound": True, "worst_normalized_constant": 0.5}}) \
        == ["exit code 3", "verdict 'fail'"]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def three_passes(request):
    """Untraced, traced and untraced pass of one workload with one seed."""
    work = Path(tempfile.mkdtemp(dir=env.BENCH))
    try:
        client = Client(request.param, 3, work, SpeedProbe(repeats=1))
        tracer = Tracer()
        passes = [client.run_pass(), client.run_pass(tracer), client.run_pass()]
        yield request.param, client, tracer, passes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_every_output_check_passes(three_passes):
    _, client, _, _ = three_passes
    assert client.attempted == 3 * len(client.tasks)
    assert client.failures == []


def test_traced_and_repeated_runs_write_identical_reports(three_passes):
    _, client, _, (first, traced, again) = three_passes
    assert set(first.reports) == {t.name for t in client.tasks}
    assert traced.reports == first.reports
    assert again.reports == first.reports


def test_wrapped_functions_are_called_where_expected(three_passes):
    workload, _, tracer, (_, traced, _) = three_passes
    agg = tracer.aggregate(traced.scale)
    missing = [f for f in EXPECTED_CALLS[workload] if agg.get(f, {"calls": 0})["calls"] == 0]
    assert missing == []
    reached = [f for f in EXPECTED_ABSENT[workload] if agg[f]["calls"] > 0]
    assert reached == []
