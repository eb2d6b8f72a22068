"""Self-tests of the benchmark's tracing: the wrappers must see every call
and must not change any result."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize(
    "argv, expected", jobs.PINNED_PERRON_CALLS, ids=[argv[0] for argv, _ in jobs.PINNED_PERRON_CALLS]
)
def test_pinned_perron_calls(argv, expected, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    assert spans.perron_calls(argv) == expected


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "markovspectra" or name.startswith("markovspectra.")
        for attr, value in vars(module).items()
    }


def test_install_rebinds_imported_copies_and_uninstall_restores():
    import markovspectra.spectrum
    import markovspectra.thermo

    perron_module = sys.modules["markovspectra.perron"]
    original = perron_module.perron
    before = _bindings()
    with spans.Tracer():
        assert markovspectra.thermo.perron is not original
        assert markovspectra.spectrum.perron is markovspectra.thermo.perron
        assert perron_module.perron is markovspectra.thermo.perron
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert markovspectra.spectrum.BetaFunction.triple.__qualname__ == "BetaFunction.triple"
    assert not hasattr(markovspectra.spectrum.BetaFunction.triple, "__wrapped__")


def test_traced_pass_gives_identical_outputs():
    job_pass = [job for _, job in jobs.make_pass("rigidity", 0, jobs.make_templates("rigidity", 0), 0)]
    plain = [jobs.run_job(job) for job in job_pass]
    tracer = spans.Tracer()
    with tracer:
        traced = []
        for k, job in enumerate(job_pass):
            tracer.current_job = k
            traced.append(jobs.run_job(job))
    assert [o.output for o in plain] == [o.output for o in traced]
    assert all(jobs.check_outcome(j, o) is None for j, o in zip(job_pass, traced))
    cli_jobs = sum(1 for job in job_pass if job.argv is not None)
    assert tracer.calls("cli.main") == cli_jobs
    metrics = spans.layer_metrics(tracer, len(job_pass))
    assert metrics["perron.perron.closed_form_calls"][0] == metrics["perron.perron.calls"][0] > 0


def test_twins_of_a_template_differ_but_do_the_same_work():
    """Twins are distinct requests with the same Perron work."""
    templates = jobs.make_templates("spectra", 0)
    twins = [[job for _, job in sorted(jobs.make_pass("spectra", 0, templates, p), key=lambda kj: kj[0])] for p in (0, 1)]
    for a, b in zip(*twins):
        assert a.kind == b.kind
        assert a.argv is None or a.argv != b.argv
    pressure = [(a, b) for a, b in zip(*twins) if a.kind == "pressure"]
    for a, b in pressure[:3]:
        with spans.Tracer() as first:
            jobs.run_job(a)
        with spans.Tracer() as second:
            jobs.run_job(b)
        assert first.calls("perron.perron") == second.calls("perron.perron")
        assert first.perron_iterations == second.perron_iterations
