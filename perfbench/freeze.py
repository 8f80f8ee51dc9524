"""Freeze the sha256 of stdout for every run of every workload.

    python3 perfbench/freeze.py

Runs each workload's pass once, untraced, from the checkout's `src/`, and
writes digests.json: one digest per distinct argv (without the cache path).
The benchmark then counts any run whose stdout differs as failed, so the
file must only be made on a commit whose output is known to be right.
Freezing refuses a run that exits non-zero, reports a failing check, or
prints different bytes for the same argv (a cache hit replaying a miss).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from run import HERE, Runner, failing_check, scratch
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    with scratch() as work:
        runner = Runner(work)
        for name, workload in WORKLOADS.items():
            for run in runner.run_pass(workload, random.Random(0),
                                       False).runs:
                key = run.inv.key
                if run.code != 0 or failing_check(run.inv.fmt, run.stdout):
                    print(f"{name}: {key} failed (exit {run.code})",
                          file=sys.stderr)
                    return 1
                digest = hashlib.sha256(run.stdout).hexdigest()
                if digests.setdefault(key, digest) != digest:
                    print(f"{name}: {key} printed different bytes twice",
                          file=sys.stderr)
                    return 1
            print(f"{name}: {len(workload.rounds[0])} runs per round frozen")
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
