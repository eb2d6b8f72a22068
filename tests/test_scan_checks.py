"""``tools/scan_checks.py``: the jobs it checks, its report and its exit status."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("scan_checks", ROOT / "tools" / "scan_checks.py")
scan_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan_checks)
jobs = scan_checks.jobs


def scan(monkeypatch, capsys, *argv) -> tuple[int, str]:
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "argv", ["scan_checks.py", *argv])
    code = scan_checks.main()
    return code, capsys.readouterr().out


def test_a_clean_range_exits_0(monkeypatch, capsys):
    # 26 audit templates a cylinders pass
    argv = ("--workload", "cylinders", "--seed", "0", "--passes", "0:2", "--kind", "gibbs_audit")
    code, out = scan(monkeypatch, capsys, *argv)
    assert code == 0 and out == "0 of 52 jobs failed\n"


def test_each_failing_job_is_listed_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(jobs, "run_job", lambda job: None)
    monkeypatch.setattr(jobs, "check_outcome", lambda job, outcome: "wrong" if job.kind == "sample" else None)
    code, out = scan(monkeypatch, capsys, "--workload", "cylinders", "--seed", "5", "--passes", "3:5")
    templates = jobs.make_templates("cylinders", 5)
    ran = [(p, k, job.kind) for p in (3, 4) for k, job in jobs.make_pass("cylinders", 5, templates, p)]
    failed = [f"pass {p} template {k} sample: wrong" for p, k, kind in ran if kind == "sample"]
    assert code == 1 and len(failed) == 16
    assert out.splitlines() == failed + [f"16 of {len(ran)} jobs failed"]


@pytest.mark.parametrize("passes", ["3:3", "4:3", "3", "a:b", "-1:2"])
def test_an_empty_or_malformed_range_is_refused(monkeypatch, capsys, passes):
    with pytest.raises(SystemExit) as done:
        scan(monkeypatch, capsys, "--workload", "rigidity", "--seed", "0", f"--passes={passes}")
    assert done.value.code == 2 and "expected A:B with 0 <= A < B" in capsys.readouterr().err


def test_a_kind_the_workload_lacks_is_refused(monkeypatch, capsys):
    with pytest.raises(SystemExit) as done:
        scan(monkeypatch, capsys, "--workload", "rigidity", "--seed", "0", "--passes", "0:1", "--kind", "sample")
    assert done.value.code == 2 and "no sample job in the rigidity workload" in capsys.readouterr().err
