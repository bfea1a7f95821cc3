"""psdo benchmark: three CLI workloads, end-to-end timings and, with
--trace 1, a per-module breakdown from spans around psdo's public functions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coercivity --seed 1 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with the environment, is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import sys

import env

# The keys of workloads.WORKLOADS; that module imports numpy, which has to
# wait until the BLAS threads are pinned.
WORKLOAD_NAMES = ("coercivity", "probe", "evolution")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env.pin_blas_threads()
    env.pin_cpu()
    try:
        env.import_psdo()
    except env.SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import runner  # imports numpy, so only after the BLAS threads are pinned
    try:
        return runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except runner.SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
