"""Print the benchmark record of each checked-in BENCH_<n>.json, in order of n.

    python tools/bench_trajectory.py [ROOT]

ROOT is the checkout root (default: this repository).  Each file gives one
line: its number, its title, the workload and metric it claims, and its
claim's result where the file records one.  The files' keys grew over time,
so every key is optional.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def records(root: Path) -> list:
    """(n, record) of each BENCH_<n>.json under root, in order of n."""
    paths = root.glob("BENCH_*.json")
    return sorted((int(p.stem.split("_")[1]), json.loads(p.read_text())) for p in paths)


def line(n: int, record: dict) -> str:
    claim = record.get("claim") or {}
    parts = [f"BENCH_{n}: {record.get('title', '-')}",
             f"claim {claim.get('workload', '-')} {claim.get('metric', '-')}"]
    if claim.get("result"):
        parts.append(f"result {claim['result']}")
    return " | ".join(parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for n, record in records(root):
        print(line(n, record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
