"""Record the golden SHA-256 digests of every workload's inputs and artifacts.

  python3 bench/record_goldens.py            # seeds 7 and 11, all workloads

Run it only from a commit whose outputs are known good: every later benchmark
run on these seeds fails any operation whose artifact differs from them.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import worker

SEEDS = (7, 11)  # 7 is the measured reference season; 11 is held out for claims


def main() -> int:
    work = os.path.join(run.WORK, "goldens")
    shutil.rmtree(work, ignore_errors=True)
    goldens = {}
    for workload in sorted(worker.WORKLOADS):
        for seed in SEEDS:
            d = os.path.join(work, f"{workload}-{seed}")
            deadline = time.monotonic() + run.DEADLINE_S
            setup = run.spawn(["setup", "--workload", workload, "--seed", str(seed),
                               "--dir", d + "-in"], d + "-setup.json", deadline)
            res = setup and run.spawn(["run", "--workload", workload, "--seed", str(seed),
                                       "--inputs", d + "-in", "--dir", d],
                                      d + "-run.json", deadline)
            if not res or run.score(res, {}):
                print(f"{workload} seed {seed}: the run failed; no goldens written",
                      file=sys.stderr)
                return 1
            goldens.setdefault(workload, {})[str(seed)] = {"inputs": setup["digests"],
                                                           **res["digests"]}
            print(f"{workload} seed {seed}: {len(res['digests'])} artifacts", file=sys.stderr)
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
