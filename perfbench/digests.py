"""Print the sha256 of each workload's text report for one seed.

    python3 perfbench/digests.py [--seed N]

Each report comes from one cold pipeline run, checked like a benchmark
operation.  A change that keeps every verdict keeps these digests.
"""

import argparse
import hashlib
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    status = 0
    for name in run.WORKLOADS:
        op = run.operate(*run.prepare(name, args.seed))[0]
        problems = op["problems"]
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            status = 1
            continue
        print(f"{hashlib.sha256(op['report'].encode()).hexdigest()}  {name} seed {args.seed}")
    return status


if __name__ == "__main__":
    sys.exit(main())
