"""Closed-loop benchmark of the psdo CLI: one client runs a workload's task
list pass after pass, checks every output and reports medians over passes.

Imported by run.py after the BLAS thread count is pinned.
"""

from __future__ import annotations

import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from psdo import cli

import checks
import env
from speed import SpeedProbe
from tracer import COUNTERS, Tracer
from workloads import DEFAULT_SEED, FIRST_ORDER_PAIRS, WORKLOADS, Task, scalar_reference, write_configs

SETUP_REPEATS = 5
STAGES = (1, 2)
SWEEP_KINDS = ("verify-coercivity", "verify-resolvent", "check-multipliers")
FIELD_FUNCTIONS = ("spaces.gaussian_field", "spaces.mode_field",
                   "spaces.random_band_limited_field")
# Per-layer metrics of the traced run: (name, unit).  Names of the form
# <module>.<function>.<calls|total_s|self_s> come from spans.
LAYER_METRICS = [
    ("verification.coercivity_sweep.self_s", "s"),
    ("verification.resolvent_sweep.self_s", "s"),
    ("verification.multiplier_family_check.self_s", "s"),
    ("verification.coercive_ratio.calls", "count"),
    ("verification.coercive_ratio.total_s", "s"),
    ("verification.estimate_rbound.total_s", "s"),
    ("verification.estimate_rbound.tuples_tried", "count"),
    ("verification.rademacher_average.calls", "count"),
    ("verification.rademacher_average.total_s", "s"),
    ("verification.rademacher_average.calls_per_tuple", "count"),
    ("verification.probe_norm.total_s", "s"),
    ("verification.kahane_contraction_check.total_s", "s"),
    ("verification.points_ok_ratio", "ratio"),
    ("operators.operator_norm.calls", "count"),
    ("operators.operator_norm.total_s", "s"),
    ("operators.operator_norm.bracket_calls", "count"),
    ("operators.make_model.total_s", "s"),
    ("operators.build_bvp_operator.total_s", "s"),
    ("operators.resolvent.calls", "count"),
    ("symbols.i_xi_power.calls", "count"),
    ("symbols.i_xi_power.total_s", "s"),
    ("symbols.eval_symbol.calls", "count"),
    ("symbols.eval_symbol.total_s", "s"),
    ("elliptic.solve_principal.calls", "count"),
    ("elliptic.solve_principal.total_s", "s"),
    ("elliptic.solve_principal.mode_systems", "count"),
    ("elliptic.solve_principal.bytes_computed", "B"),
    ("elliptic.apply_operator.calls", "count"),
    ("elliptic.apply_operator.total_s", "s"),
    ("elliptic.solve_full.total_s", "s"),
    ("elliptic.solve_full.iterations", "count"),
    ("elliptic.contraction_estimate.total_s", "s"),
    ("spaces.lp_lq_norm.calls", "count"),
    ("spaces.lp_lq_norm.total_s", "s"),
    ("spaces.liouville_derivative.calls", "count"),
    ("spaces.liouville_derivative.total_s", "s"),
    ("spaces.mixed_norm.calls", "count"),
    ("spaces.mixed_norm.total_s", "s"),
    ("spaces.fields.total_s", "s"),
    ("parabolic.solve_duhamel.total_s", "s"),
    ("parabolic.solve_implicit_euler.total_s", "s"),
    ("parabolic.parabolic_coercive_ratio.total_s", "s"),
    ("parabolic.equation_residual.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("sweep.points", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class SetupFailed(RuntimeError):
    pass


@dataclass
class PassResult:
    task_ids: list
    traced: bool
    seconds: dict                       # task name -> seconds at the reference speed
    wall: dict                          # task name -> raw wall seconds
    points: int = 0                     # sweep points attempted
    points_ok: int = 0
    report_bytes: int = 0
    reports: dict = field(default_factory=dict)   # task name -> report.json bytes
    stage_s: dict = field(default_factory=dict)
    kind_s: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def scale(self) -> dict:
        """Task id -> factor from the task's wall seconds to reference seconds."""
        return {tid: self.seconds[name] / self.wall[name]
                for tid, name in zip(self.task_ids, self.seconds)}


def measure_setup(workload: str, seed: int, work, speed: SpeedProbe):
    """Seconds from starting a fresh interpreter until it has imported
    psdo.cli and generated and loaded the workload's configs.

    Returns (reference seconds, wall seconds), one of each per repeat."""
    times, walls = [], []
    before = speed.seconds()
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(env.BENCH / "setup_child.py"), workload, str(seed),
               str(work / f"setup-{i}")]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise SetupFailed(f"set-up probe exited {proc.returncode}: {line!r}")
        after = speed.seconds()
        walls.append(t1 - t0)
        times.append((t1 - t0) * speed.scale(before, after))
        before = after
    return times, walls


class Client:
    """Runs the task list through `psdo run-scenario` and checks each output."""

    def __init__(self, workload: str, seed: int, work, speed: SpeedProbe):
        self.workload = workload
        self.speed = speed
        self.seed = seed
        self.tasks = WORKLOADS[workload](seed)
        self.configs = write_configs(self.tasks, work / "configs")
        self.out = work / "reports"
        self.first_report = {}          # task name -> report.json bytes of the first run
        self.attempted = 0
        self.failures = []              # (task name, message)
        self.next_task_id = 0

    def _run(self, task: Task, config_path, tracer):
        """Run one task; returns (seconds, exit code, captured output)."""
        out = self.out / task.name
        shutil.rmtree(out, ignore_errors=True)
        seed = self.seed if task.seed is None else task.seed
        argv = ["run-scenario", "--config", str(config_path), "--out", str(out),
                "--seed", str(seed)]
        if tracer is not None:
            tracer.task_id = self.next_task_id
        self.next_task_id += 1
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else -1
            except Exception:  # a crash is a failed task, not a failed benchmark
                code = -1
                sink.write(traceback.format_exc())
            seconds = perf_counter() - t0
        return seconds, code, sink.getvalue()

    def _record(self, task: Task, messages: list, output: str):
        self.attempted += 1
        if messages:
            detail = "; ".join(messages)
            if output.strip():
                detail += " | " + output.strip().splitlines()[-1]
            self.failures.append((task.name, detail))

    def run_pass(self, tracer: Tracer = None) -> PassResult:
        ids = list(range(self.next_task_id, self.next_task_id + len(self.tasks)))
        runs, scale = {}, {}
        with tracer.installed() if tracer is not None else nullcontext():
            before = self.speed.seconds()
            for task in self.tasks:
                runs[task.name] = self._run(task, self.configs[task.name], tracer)
                after = self.speed.seconds()
                scale[task.name] = self.speed.scale(before, after)
                before = after
        result = PassResult(task_ids=ids, traced=tracer is not None,
                            seconds={name: run[0] * scale[name] for name, run in runs.items()},
                            wall={name: run[0] for name, run in runs.items()})
        pair_failures = {}
        for euler, duhamel in FIRST_ORDER_PAIRS.get(self.workload, []):
            cfg = next(t.config for t in self.tasks if t.name == euler)
            try:
                pair_failures[euler] = checks.check_first_order(
                    self.out / euler, self.out / duhamel, cfg["steps"], cfg["horizon"])
            except (OSError, ValueError) as exc:
                pair_failures[euler] = [f"final slices unreadable: {exc}"]
        for task in self.tasks:
            _, code, output = runs[task.name]
            raw, report = checks.load_report(self.out / task.name)
            messages = checks.check_task(task, code, report) if raw else ["no report.json"]
            messages += pair_failures.get(task.name, [])
            if raw is not None:
                result.reports[task.name] = raw
                first = self.first_report.setdefault(task.name, raw)
                if raw != first:
                    messages.append("report.json differs from the first run of this task")
                result.report_bytes += len(raw)
                csv = self.out / task.name / "report.csv"
                result.report_bytes += csv.stat().st_size if csv.is_file() else 0
            if task.kind in SWEEP_KINDS:
                points = report.get("result", {}).get("points", [])
                result.points += len(points)
                result.points_ok += sum(1 for p in points if p.get("error") is None)
            self._record(task, messages, output)
        for task in self.tasks:
            s = result.seconds[task.name]
            result.stage_s[task.stage] = result.stage_s.get(task.stage, 0.0) + s
            result.kind_s[task.kind] = result.kind_s.get(task.kind, 0.0) + s
        return result

    def check_pinned(self, work):
        """The shipped scalar-reference sweep reproduces the pinned constants."""
        task = Task("scalar-reference", 0, "verify-coercivity", scalar_reference(DEFAULT_SEED))
        path = write_configs([task], work / "configs")[task.name]
        _, code, output = self._run(task, path, None)
        raw, report = checks.load_report(self.out / task.name)
        messages = checks.check_task(task, code, report) + checks.check_pinned(report)
        self._record(task, messages if raw else ["no report.json"], output)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setup_times) -> dict:
    """The gated metrics (BENCHMARK.json end_to_end), from untraced passes."""
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "pass_s": (_median([p.total_s for p in passes]), "s"),
    }
    for stage in STAGES:
        metrics[f"stage{stage}_s"] = (_median([p.stage_s.get(stage, 0.0) for p in passes]), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def task_kind_table(passes, client: Client) -> dict:
    """Per-task-kind seconds per pass (verify_coercivity_s, ...), sweep
    throughput and error rate: printed and recorded, not gated, because each
    exists on only some workloads."""
    rows = {}
    for kind in sorted({t.kind for t in client.tasks}):
        rows[kind.replace("-", "_") + "_s"] = (_median([p.kind_s[kind] for p in passes]), "s")
    sweep_rates = []
    for p in passes:
        sweep_s = sum(s for k, s in p.kind_s.items() if k in SWEEP_KINDS)
        if p.points and sweep_s > 0:
            sweep_rates.append(p.points / sweep_s)
    if sweep_rates:
        rows["points_per_s"] = (_median(sweep_rates), "1/s")
    rows["error_rate"] = (len(client.failures) / max(client.attempted, 1), "ratio")
    return rows


def _layer_value(name, agg, tracer: Tracer, p: PassResult):
    """Value of one per-layer metric over one traced pass; None if absent."""
    if name in COUNTERS:
        fn = COUNTERS[name][0]
        if not tracer.has(fn) or (agg[fn]["calls"] and not tracer.counter_seen(name)):
            return None
        return tracer.counter(name, p.task_ids)
    if name == "verification.rademacher_average.calls_per_tuple":
        tuples = tracer.counter("verification.estimate_rbound.tuples_tried", p.task_ids)
        if not tracer.has("verification.rademacher_average"):
            return None
        calls = tracer.calls_under("verification.rademacher_average",
                                   "verification.estimate_rbound", p.task_ids)
        return calls / tuples if tuples else 0.0
    if name == "verification.points_ok_ratio":
        return p.points_ok / p.points if p.points else None
    if name == "sweep.points":
        return p.points
    if name == "cli.report_bytes":
        return p.report_bytes
    if name == "spaces.fields.total_s":
        present = [f for f in FIELD_FUNCTIONS if f in agg]
        return sum(agg[f]["total_s"] for f in present) if present else None
    fn, stat = name.rsplit(".", 1)
    return agg[fn][stat] if fn in agg else None


def per_layer(traced, untraced, tracer: Tracer):
    """(metrics, absent names) of the traced run: medians over traced passes."""
    samples = {name: [] for name, _ in LAYER_METRICS}
    absent = set()
    for p in traced:
        agg = tracer.aggregate(p.scale)
        for name, _ in LAYER_METRICS:
            if name.startswith("trace."):
                continue
            value = _layer_value(name, agg, tracer, p)
            if value is None:
                absent.add(name)
            else:
                samples[name].append(value)
    traced_s = _median([p.total_s for p in traced])
    untraced_s = _median([p.total_s for p in untraced])
    samples["trace.overhead_s"] = [traced_s - untraced_s]
    samples["trace.overhead_ratio"] = [(traced_s - untraced_s) / untraced_s]
    metrics = {name: (_median(samples[name]), unit) for name, unit in LAYER_METRICS}
    return metrics, sorted(absent)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    out_dir = env.BENCH / "out"
    work = out_dir / f"{workload}-{os.getpid()}"
    try:
        speed = SpeedProbe()
        setup_times, setup_walls = measure_setup(workload, seed, work, speed)
        client = Client(workload, seed, work, speed)
        if seed == DEFAULT_SEED:
            client.check_pinned(work)
        client.run_pass()  # warm-up: lazy imports, caches, first reports to compare with
        tracer = Tracer() if trace else None
        passes = []
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline or (trace and len(passes) < 2):
            use_tracer = tracer if trace and len(passes) % 2 == 0 else None
            passes.append(client.run_pass(use_tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    table = task_kind_table(untraced, client)
    table["setup_wall_s"] = (_median(setup_walls), "s")
    table["pass_wall_s"] = (_median([sum(p.wall.values()) for p in untraced]), "s")
    e2e = end_to_end(untraced, setup_times)
    absent = []
    if trace:
        metrics, absent = per_layer(traced, untraced, tracer)
        tracer.save(out_dir / f"{workload}.spans.npz")
    else:
        metrics = e2e
    record = {
        "workload": workload,
        "trace": int(trace),
        "environment": env.environment(seed),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples_s": setup_times,
        "setup_samples_wall_s": setup_walls,
        "pass_samples_s": [p.total_s for p in untraced],
        "pass_samples_wall_s": [sum(p.wall.values()) for p in untraced],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "task_kinds": {k: v for k, (v, _) in table.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "absent": absent,
        "failures": client.failures,
    }
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {workload}  seed {seed}  untraced passes {len(untraced)}"
          f"  traced passes {len(traced)}  setup samples {len(setup_times)}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, (value, unit) in {**table, **metrics}.items():
        note = "  (absent)" if name in absent else ""
        print(f"  {name:50s} {value:>16.6g} {unit}{note}")
    for name, message in client.failures[:20]:
        print(f"FAILED {name}: {message}")
    summary = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0
