"""Gate a `perfbench/run.py --workload all` run in CI.

The run's last output line holds every workload's result; each workload must
be present, `"correct": true`, and have no failed operation.  Exits non-zero,
naming the workloads that fall short, otherwise.

usage: python3 .github/bench_gate.py RUN_OUTPUT.txt
"""

import json
import sys

WORKLOADS = ("paper_examples", "random_sweep", "composites")


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    bad = [name for name in WORKLOADS
           if not (name in result and result[name]["correct"] is True
                   and result[name]["failed"] == 0)]
    if bad:
        sys.exit(f"{path}: not correct, or failed operations: {', '.join(bad)}")


if __name__ == "__main__":
    main(sys.argv[1])
