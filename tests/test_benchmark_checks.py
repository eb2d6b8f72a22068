"""The benchmark's own output checks, run as tests: every job of passes 0
and 1 of each workload must pass the check ``perfbench/jobs.py`` gives it.

A change that breaks one of those checks (a twin compare that no longer
says ``equal: true``, a classify that misses the twin, a density probe
with a non-member trial) fails here rather than only in a benchmark run.
``jobs.py`` is imported, never changed.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import jobs  # noqa: E402

PASSES = (0, 1)
SEEDS = (0, 1, 2, 9001)  # 0: perfbench/run.py's default --seed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_every_job_passes_its_check(workload, seed, monkeypatch):
    monkeypatch.chdir(ROOT)  # jobs name the shipped models by relative path
    templates = jobs.make_templates(workload, seed)
    failures = [
        f"pass {p} template {k} ({job.kind}): {reason}"
        for p in PASSES
        for k, job in jobs.make_pass(workload, seed, templates, p)
        if (reason := jobs.check_outcome(job, jobs.run_job(job))) is not None
    ]
    assert not failures, "\n".join(failures)
