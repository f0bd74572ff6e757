#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and writes
perfbench/reference.json: the digest of every operation's canonical output
per backend, and the digest of each workload's inputs.  It refuses to write
when an operation raises or Q and Fp disagree.  Run it only when an output
change is intended, and say so in the change that updates the file.
"""

from __future__ import annotations

import json
import os
import sys

import run
from gate import Gate
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    out = {}
    for name, workload in WORKLOADS.items():
        eng, inputs, inputs_digest, units, _ = run.setup(workload, DEFAULT_SEED, 1)
        gate = Gate(None)
        result = run.run_pass(units, gate)
        if result["failed"] or gate.failures:
            for msg in gate.failures:
                print(f"FAILED {msg}", file=sys.stderr)
            return 1
        seeds = str(DEFAULT_SEED) if workload.seeded_inputs else "any"
        out[name] = {"inputs": {seeds: inputs_digest},
                     "ops": gate.recorded}
        print(f"{name}: {result['attempted']} operations recorded")
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
