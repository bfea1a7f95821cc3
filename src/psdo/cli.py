"""Command-line front end: JSON-configured scenarios producing a deterministic
report.json, and for a task with `export_fields` the solved field: every value
in solution.npy, and its final time slice as text in solution.txt.

Exit codes: 0 pass, 1 execution failure, 2 config failure, 3 verdict failure.
Reports carry no timestamps and serialize with sorted keys so repeated runs
are byte-identical.  The config schema and the task handlers are in
psdo.tasks, which imports the whole library; this module imports only the
standard library and psdo.errors, and loads psdo.tasks when a task runs, so
--help, --version and an error found before the task load no library module.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, PsdoError

EXIT_PASS = 0
EXIT_EXECUTION = 1
EXIT_CONFIG = 2
EXIT_VERDICT = 3

# The task names, in the order of psdo.tasks.TASKS, which registers a handler for each.
COMMANDS = ("solve-elliptic", "solve-parabolic", "verify-coercivity", "verify-resolvent",
            "check-multipliers", "estimate-rbound", "check-kahane", "check-symbol")


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


def _run_task(task: str, cfg: dict, args) -> int:
    from . import tasks  # the schema, the handlers and the library, loaded by the first task
    values = tasks.SCHEMA[task].value(cfg, "config")
    seed = args.seed if args.seed is not None else values["seed"]
    verdict, result, export = tasks.TASKS[task](values, seed)
    report = {
        "version": __version__,
        "task": task,
        "seed": seed,
        "config": cfg,
        "result": result,
        "verdict": verdict,
    }
    tasks._write_reports(args.out, report, export)
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
    parser.add_argument("command", choices=[*COMMANDS, "run-scenario"],
                        metavar="COMMAND", help="one of %(choices)s")
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
        if task not in COMMANDS:
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
