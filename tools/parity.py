"""Output texts of the benchmark's jobs, for comparing two checkouts.

Runs passes 0 and 1 of every workload of ``perfbench/jobs.py`` at one seed
and prints one JSON object that maps ``workload/seed/pass/template`` to
``{"kind": job kind, "text": output text}``, the exact text the job
produced (stdout, or the exit code and stderr, or the repr of a library
result).  Run it from the root of each checkout, then ``--compare`` the
two files:

    python3 tools/parity.py --seed 0 > /tmp/before.json   # parent checkout
    python3 tools/parity.py --seed 0 > /tmp/after.json    # changed checkout
    python3 tools/parity.py --compare /tmp/before.json /tmp/after.json

``--compare BEFORE AFTER`` runs no job.  It prints one line per job whose
text differs: its key, its kind and the largest relative change among the
numbers in its text, or ``non-numeric`` when the texts also differ outside
their numbers (or the job is missing from one file).  Its last line counts
the jobs that differ; ``0 of N jobs differ`` means every output is
byte-identical.  It exits 1 when any job differs and 0 when none does.

The package is imported from the checkout's ``src/``; ``jobs.py`` is only
imported, never changed.
"""

from __future__ import annotations

import os

# One BLAS thread, as perfbench/run.py runs the jobs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = (0, 1)
# a decimal or exponent float literal, or a non-finite one as repr and json print it
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf(?:inity)?|nan|-?Infinity|NaN)")


def outputs(seed: int) -> dict[str, tuple[str, str]]:
    """(kind, text) of every job of passes 0 and 1 at this seed."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import jobs

    out = {}
    for workload in jobs.WORKLOADS:
        templates = jobs.make_templates(workload, seed)
        for p in PASSES:
            for k, job in jobs.make_pass(workload, seed, templates, p):
                out[f"{workload}/{seed}/{p}/{k}"] = (job.kind, jobs.run_job(job).output)
    return out


def largest_relative_change(before: str, after: str) -> float | None:
    """max |a - b| / max(|a|, |b|) over the numbers of two texts, paired in
    order; None when the texts differ outside their numbers."""
    a_parts, b_parts = NUMBER.split(before), NUMBER.split(after)
    # split with one group alternates text, number, text, ...
    if len(a_parts) != len(b_parts) or a_parts[::2] != b_parts[::2]:
        return None
    worst = 0.0
    for x, y in zip(a_parts[1::2], b_parts[1::2]):
        a, b = float(x), float(y)  # float() also reads json's Infinity and NaN
        if x == y or a == b:  # the same text, or the same value written differently (0.0, -0.0)
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def compare(before_path: str, after_path: str) -> list[str]:
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    lines = []
    for key in sorted(before.keys() | after.keys()):
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        kind = (old or new)["kind"]
        change = None if old is None or new is None else largest_relative_change(old["text"], new["text"])
        lines.append(f"{key} {kind} {'non-numeric' if change is None else f'{change:.3g}'}")
    lines.append(f"{len(lines)} of {len(before.keys() | after.keys())} jobs differ")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="report the jobs whose texts differ")
    args = parser.parse_args()
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines))
        return 1 if len(lines) > 1 else 0  # one line per differing job, then the count
    os.chdir(ROOT)  # jobs name the shipped models by relative path
    out = {key: {"kind": kind, "text": text} for key, (kind, text) in outputs(args.seed).items()}
    print(json.dumps(out, indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
