"""Set-up probe for one fresh interpreter.

Imports psdo.cli from the source tree, generates the workload's configs and
loads them back, then prints "ready".  The benchmark times this from process
start to that line.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED DIRECTORY
"""

import json
import sys
from pathlib import Path

import env


def main(argv) -> int:
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    env.pin_blas_threads()
    env.import_psdo()
    from workloads import WORKLOADS, write_configs
    paths = write_configs(WORKLOADS[workload](seed), directory)
    configs = [json.loads(path.read_text()) for path in paths.values()]
    print(f"ready {len(configs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
