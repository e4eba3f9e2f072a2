"""Record the stdout digest of every request the workloads can draw.

    python3 bench/record_refs.py [WORKLOAD ...]

Run from a checkout whose outputs are the reference (the commit that defined
the benchmark).  Each request must pass its semantic check first.  Writes
bench/refs.json, keeping the entries of workloads not named.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads as wl


def main(names: list[str]) -> int:
    refs = checks.load_refs() if os.path.exists(checks.REFS_PATH) else {}
    os.makedirs(run.OUT, exist_ok=True)
    runner = run.Runner(os.path.join(run.OUT, "record_refs.stderr.log"))
    try:
        for workload in names or wl.WORKLOADS:
            reqs = wl.space(workload)
            for argv, _wall, _cpu, rc, out in run.run_round(runner, workload, reqs):
                reason = checks.CHECKS[argv[0]](argv, rc, out)
                if reason is not None:
                    sys.stderr.write(f"{checks.request_key(argv)}: {reason}\n")
                    return 1
                refs[checks.request_key(argv)] = checks.digest(out)
            print(f"{workload}: {len(reqs)} requests recorded", flush=True)
    finally:
        runner.close()
    with open(checks.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
