"""Record the reference output digests that run.py compares against.

    python3 perfbench/make_reference.py

Runs one pass of every workload for seeds 0..REFERENCE_SEEDS-1 and writes
perfbench/reference.json. Rerun it only when a change to the program is
meant to change outputs (for example an announced reseeding), and say so.
"""

from __future__ import annotations

import json
import os
import sys

import run

REFERENCE_SEEDS = 20


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not run._import_silab():
        print(f"error: silab sources not found under {run.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    reference: dict[str, dict[str, dict]] = {}
    for name, cls in WORKLOADS.items():
        for seed in range(REFERENCE_SEEDS):
            result = cls(seed, run.OUT_DIR).run_pass()
            if result.failed:
                print(f"error: {name} seed {seed}: {result.failures[:3]}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = result.digest
            print(name, seed, result.digest, flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
