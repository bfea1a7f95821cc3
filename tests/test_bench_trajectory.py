"""tools/bench_trajectory.py over the repository's BENCH_*.json files and over
records that lack the optional keys."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_trajectory.py"


def run(root: Path) -> list:
    out = subprocess.run([sys.executable, str(TOOL), str(root)], capture_output=True, text=True,
                         check=True)
    return out.stdout.splitlines()


def test_one_line_per_checked_in_record_in_order():
    numbers = sorted(int(p.stem.split("_")[1]) for p in ROOT.glob("BENCH_*.json"))
    lines = run(ROOT)
    assert numbers and len(lines) == len(numbers)
    for n, text in zip(numbers, lines):
        record = json.loads((ROOT / f"BENCH_{n}.json").read_text())
        assert text.startswith(f"BENCH_{n}: {record['title']} | claim ")
        assert ("| result " in text) == bool(record["claim"].get("result"))


def test_missing_keys_print_dashes(tmp_path):
    (tmp_path / "BENCH_10.json").write_text(json.dumps({"claim": {"metric": "pass_s"}}))
    (tmp_path / "BENCH_9.json").write_text("{}")
    assert run(tmp_path) == ["BENCH_9: - | claim - -", "BENCH_10: - | claim - pass_s"]
