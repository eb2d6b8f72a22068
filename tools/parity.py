"""Digests of the benchmark's job outputs, for comparing two checkouts.

Runs passes 0 and 1 of every workload of ``perfbench/jobs.py`` at one seed
and prints one JSON object, a key a line, that maps
``workload/seed/pass/template`` to the sha256 of the exact text the job
produced (stdout, or the exit code and stderr, or the repr of a library
result).  Run it from the root of each checkout and diff the two:

    python3 tools/parity.py --seed 0 > /tmp/before.json   # parent checkout
    python3 tools/parity.py --seed 0 > /tmp/after.json    # changed checkout
    diff /tmp/before.json /tmp/after.json

The package is imported from the checkout's ``src/``; ``jobs.py`` is only
imported, never changed.
"""

from __future__ import annotations

import os

# One BLAS thread, as perfbench/run.py runs the jobs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = (0, 1)


def digests(seed: int) -> dict[str, str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import jobs

    out = {}
    for workload in jobs.WORKLOADS:
        templates = jobs.make_templates(workload, seed)
        for p in PASSES:
            for k, job in jobs.make_pass(workload, seed, templates, p):
                text = jobs.run_job(job).output
                out[f"{workload}/{seed}/{p}/{k}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    os.chdir(ROOT)  # jobs name the shipped models by relative path
    print(json.dumps(digests(args.seed), indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
