"""Benchmark of markovspectra: one closed-loop client over a seeded job mix.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

One process and one thread run the jobs; each job starts when the previous
one has finished.  A workload is a seeded list of job templates (jobs.py).
The run makes *passes*, each running one cost twin of every template (the
same potential plus a constant: the same work on different bytes) in a
shuffled order, until ``--seconds`` have passed and at least MIN_PASSES
passes are done.  Pass p of a seed is the same for every build, so builds
differ only in how many passes fit in the time.

Every time reported is scaled to a host of fixed speed by a reference
computation timed before and after each job (see hostspeed.py), because
the shared host's own speed drifts by 30% from one run to the next.  A
template's latency is the median of its twins' scaled latencies.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median, over several fresh interpreters started one at a
  time at even intervals over the run, of the scaled time to import the
  package and its CLI and run one small warm-up job of every job kind in
  the workload;
- ``ok_jobs_per_s``: passed jobs per pass / the sum of all templates'
  latencies (the scaled time of one pass);
- ``job_p50_ms``, ``job_p90_ms``: percentiles, over the templates with a
  passed twin, of the median scaled latency of their passed twins;
- ``ok_ratio``: passed / attempted jobs (1 - failed ratio, which is 0 on
  some workloads);
- ``peak_rss_mib``: peak resident memory of this process.

The same figures from the raw times are printed before the result line.

``--trace 1`` runs TRACE_PASSES passes twice, untraced and then
with spans recorded around every public function of the package's modules
(see spans.py), checks that both passes produced byte-identical output,
and reports per-layer counts and times.  It also checks the Perron-solve
counts pinned in jobs.py.

Results and spans are also written under ``.perfbench/`` with the host
description (CPU count, Python/numpy/scipy versions, BLAS build), so
numbers from different machines are not compared by mistake.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A job fails on an exception, an unexpected
exit code or a result outside its reference check; the run goes on.
``correct`` is false only when a job returned a wrong result, or the traced
and untraced outputs differ, or a pinned count does not match.

Claims made with this benchmark must also hold on the held-out seed below,
which was not used while the benchmark was tuned.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HELD_OUT_SEED = 9001
SETUP_PROBES = 5
WORKLOADS = ("spectra", "rigidity", "cylinders")
# Fewest passes of an untraced run: twins a template's median is taken over.
MIN_PASSES = 5
# Passes of a traced run, a fixed number so that its counts repeat exactly.
TRACE_PASSES = 2
OUT_DIR = Path(".perfbench")


def _src() -> Path:
    src = Path.cwd() / "src"
    if not (src / "markovspectra" / "__init__.py").is_file():
        sys.exit("error: run from the root of a markovspectra checkout (src/markovspectra not found)")
    return src


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def setup_probe(workload: str) -> None:
    """Body of one fresh-interpreter set-up measurement."""
    import jobs

    for job in jobs.warmup_jobs(workload):
        if jobs.check_outcome(job, jobs.run_job(job)) is not None:
            sys.exit(f"error: warm-up {job.kind} failed")


def setup_probe_time(workload: str) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def run_passes(passes, tracer=None, between=None, speed=None) -> tuple[list, list, list]:
    """Closed loop over the jobs, pass after pass.

    Returns the (template index, job) pairs and their outcomes in run order
    and, with a HostSpeed ``speed``, each job's time scale: REFERENCE_S /
    the mean of the reference timings just before and just after it.
    ``between(p)`` runs before pass p, outside every job's timing.
    """
    import jobs

    job_list, outcomes, scales = [], [], []
    gc.collect()
    before = speed.reference() if speed is not None else None
    for p, job_pass in enumerate(passes):
        if between is not None:
            between(p)
        for item in job_pass:
            if tracer is not None:
                tracer.current_job = len(outcomes)
            job_list.append(item)
            outcomes.append(jobs.run_job(item[1]))
            if speed is not None:
                after = speed.reference()
                scales.append(hostspeed.REFERENCE_S * 2 / (before + after))
                before = after
    return job_list, outcomes, scales


def grade(job_list, outcomes):
    """Per-job failure reasons (None for a pass) and the wrong-result count."""
    import jobs

    reasons = [jobs.check_outcome(job, o) for (_, job), o in zip(job_list, outcomes)]
    wrong = sum(1 for r, o in zip(reasons, outcomes) if r is not None and o.error is None)
    return reasons, wrong


def template_latencies(n_templates, job_list, latencies, reasons):
    """Per template, the median latency of its twins and of its passed twins
    (None where none passed)."""
    every = [[] for _ in range(n_templates)]
    passed = [[] for _ in range(n_templates)]
    for (k, _), latency, reason in zip(job_list, latencies, reasons):
        every[k].append(latency)
        if reason is None:
            passed[k].append(latency)
    return (
        [statistics.median(x) for x in every],
        [statistics.median(x) if x else None for x in passed],
    )


def mix_metrics(n_templates, n_passes, job_list, latencies, reasons) -> dict:
    """Throughput and latency percentiles from per-job latencies (s)."""
    import numpy as np

    every, passed_median = template_latencies(n_templates, job_list, latencies, reasons)
    ok = [x for x in passed_median if x is not None]
    p50, p90 = np.percentile(ok, [50, 90])
    passed = sum(1 for r in reasons if r is None)
    return {
        "ok_jobs_per_s": (passed / n_passes / sum(every), "jobs/s"),
        "job_p50_ms": (float(p50) * 1e3, "ms"),
        "job_p90_ms": (float(p90) * 1e3, "ms"),
    }


def summarize(job_list, latencies, reasons) -> list[str]:
    """One line per job kind (median of its templates' latencies) and per
    failure reason."""
    lines = []
    kinds = {k: job.kind for k, job in job_list}
    _, passed_median = template_latencies(max(kinds) + 1, job_list, latencies, reasons)
    for kind in sorted(set(kinds.values())):
        mine = [r for (_, j), r in zip(job_list, reasons) if j.kind == kind]
        ok = [x * 1e3 for k, x in enumerate(passed_median) if kinds[k] == kind and x is not None]
        lines.append(
            f"kind {kind}: {sum(1 for k in kinds.values() if k == kind)} templates, {len(mine)} jobs, "
            f"{sum(1 for r in mine if r is not None)} failed, "
            f"median {statistics.median(ok) if ok else math.nan:.2f} ms"
        )
    counts: dict[tuple[str, str], int] = {}
    for (_, job), reason in zip(job_list, reasons):
        if reason is not None:
            key = (job.kind, reason.split(":")[0][:60])
            counts[key] = counts.get(key, 0) + 1
    lines += [f"failed {kind}: {reason} x{n}" for (kind, reason), n in sorted(counts.items())]
    return lines


def end_to_end(args, templates) -> tuple[dict, int, int, bool, list[str]]:
    """Untraced run: the end-to-end metrics."""
    import jobs

    speed = hostspeed.HostSpeed()
    start = time.perf_counter()
    n_passes = 0

    def passes():
        nonlocal n_passes
        while n_passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            yield jobs.make_pass(args.workload, args.seed, templates, n_passes)
            n_passes += 1

    # Set-up probes are spread over the run, so that their median samples
    # the host over the same stretch of time as the jobs.
    setup_raw, setup = [], []

    def probe():
        before = speed.scale()
        setup_raw.append(setup_probe_time(args.workload))
        setup.append(setup_raw[-1] * (before + speed.scale()) / 2)

    def between(p):
        due = (time.perf_counter() - start) * SETUP_PROBES / args.seconds
        while len(setup) < min(SETUP_PROBES - 1, due + 1):
            probe()

    job_list, outcomes, scales = run_passes(passes(), between=between, speed=speed)
    while len(setup) < SETUP_PROBES:
        probe()
    n_templates = len(templates)

    reasons, wrong = grade(job_list, outcomes)
    raw = [o.latency for o in outcomes]
    scaled = [x * c for x, c in zip(raw, scales)]
    passed = sum(1 for r in reasons if r is None)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        **mix_metrics(n_templates, n_passes, job_list, scaled, reasons),
        "ok_ratio": (passed / len(job_list), "1"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw_metrics = mix_metrics(n_templates, n_passes, job_list, raw, reasons)
    ok = [x for x in template_latencies(n_templates, job_list, scaled, reasons)[1] if x is not None]
    beyond = sum(1 for x in ok if x * 1e3 > metrics["job_p90_ms"][0])
    notes = [
        f"setup probes s (scaled): {' '.join(f'{t:.4f}' for t in setup)}",
        f"setup probes s (raw): {' '.join(f'{t:.4f}' for t in setup_raw)}",
        f"time scale: median {statistics.median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f}",
        f"mix {sum(raw):.3f} s raw, {sum(scaled):.3f} s scaled, over {n_passes} passes",
        f"{len(ok)} templates with a passed twin, {beyond} beyond p90",
        "raw " + " ".join(f"{name} {value:.4f}" for name, (value, _) in raw_metrics.items()),
        *summarize(job_list, scaled, reasons),
    ]
    return metrics, len(job_list), len(job_list) - passed, wrong == 0, notes


def per_layer(args, templates) -> tuple[dict, int, int, bool, list[str]]:
    """Traced run: the same jobs untraced, then traced; outputs must match."""
    import jobs
    import spans

    passes = [jobs.make_pass(args.workload, args.seed, templates, p) for p in range(TRACE_PASSES)]
    notes = []
    pinned_ok = True
    for argv, expected in jobs.PINNED_PERRON_CALLS:
        got = spans.perron_calls(argv)
        if got != expected:
            pinned_ok = False
            notes.append(f"pinned count mismatch: {argv[0]} {got} != {expected}")

    start = time.perf_counter()
    job_list, plain, _ = run_passes(passes)
    plain_wall = time.perf_counter() - start
    tracer = spans.Tracer()
    with tracer:
        start = time.perf_counter()
        _, traced, _ = run_passes(passes, tracer)
        traced_wall = time.perf_counter() - start
    reasons, wrong = grade(job_list, traced)
    differ = sum(1 for a, b in zip(plain, traced) if a.output != b.output)
    failed = sum(1 for r in reasons if r is not None)

    metrics = spans.layer_metrics(tracer, len(job_list))
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "1")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")
    solves = metrics["perron.perron.calls"][0]
    closed = metrics["perron.perron.closed_form_calls"][0]
    notes += [
        f"untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, {len(tracer.start)} spans",
        f"outputs differing between untraced and traced pass: {differ}",
        f"closed-form share of Perron solves: {closed / solves if solves else 0.0:.4f}",
        *summarize(job_list, [o.latency for o in traced], reasons),
    ]
    return metrics, len(job_list), failed, wrong == 0 and differ == 0 and pinned_ok, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    sys.path.insert(0, str(_src()))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import jobs

    templates = jobs.make_templates(args.workload, args.seed)
    for job in jobs.warmup_jobs(args.workload):
        jobs.run_job(job)

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, correct, notes = measure(args, templates)

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload={args.workload} seed={args.seed} held_out_seed={HELD_OUT_SEED} "
        f"templates={len(templates)} jobs={attempted} failed={failed} trace={args.trace}"
    )
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, env=env, workload=args.workload, seed=args.seed, trace=args.trace)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
