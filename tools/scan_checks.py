"""The benchmark's own checks over a range of passes, with no timing.

Runs every job of passes A to B - 1 of one workload of
``perfbench/jobs.py`` at one seed, the same jobs ``perfbench/run.py`` runs
in those passes, and checks each with the check ``jobs.py`` gives it.  A
benchmark run stops after the passes that fit in its time; this reaches a
failure that only a later pass shows, without running the earlier passes'
other jobs at benchmark speed.  For example, the rigidity density jobs of
passes 0 to 89 at seed 2:

    python3 tools/scan_checks.py --workload rigidity --seed 2 --passes 0:90 --kind density_probe

It prints one line per failing job: its pass, template index, kind and
reason.  Its last line counts the failing and the checked jobs.  It exits 1
when any job fails and 0 when none does.

The package is imported from the checkout's ``src/``; ``jobs.py`` is only
imported, never changed.
"""

from __future__ import annotations

import os

# One BLAS thread, as perfbench/run.py runs the jobs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402


def passes(text: str) -> range:
    """``A:B``, the passes A to B - 1."""
    start, sep, stop = text.partition(":")
    try:
        span = range(int(start), int(stop))
    except ValueError:
        span = None
    if not sep or span is None or span.start < 0 or not span:
        raise argparse.ArgumentTypeError(f"expected A:B with 0 <= A < B, got {text!r}")
    return span


def failures(workload: str, seed: int, span: range, kind: str | None) -> tuple[list[tuple], int]:
    """(pass, template, kind, reason) of every failing job, and the number of jobs checked."""
    templates = jobs.make_templates(workload, seed)
    failed, checked = [], 0
    for p in span:
        # every template draws its twin, so a pass's jobs do not depend on --kind
        for k, job in jobs.make_pass(workload, seed, templates, p):
            if kind is not None and job.kind != kind:
                continue
            checked += 1
            reason = jobs.check_outcome(job, jobs.run_job(job))
            if reason is not None:
                failed.append((p, k, job.kind, reason))
    return failed, checked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=passes, required=True, metavar="A:B", help="passes A to B - 1")
    parser.add_argument("--kind", help="check only the jobs of this kind (e.g. density_probe)")
    args = parser.parse_args()
    os.chdir(ROOT)  # jobs name the shipped models by relative path
    failed, checked = failures(args.workload, args.seed, args.passes, args.kind)
    if not checked:
        parser.error(f"no {args.kind} job in the {args.workload} workload")
    for p, k, kind, reason in failed:
        print(f"pass {p} template {k} {kind}: {reason}")
    print(f"{len(failed)} of {checked} jobs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
