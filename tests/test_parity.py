"""``tools/parity.py --compare``: its report and its exit status."""

import json
import subprocess
import sys
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def run_compare(tmp_path, before: dict, after: dict) -> subprocess.CompletedProcess:
    paths = []
    for name, jobs in (("before", before), ("after", after)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(jobs))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(PARITY), "--compare", *paths], capture_output=True, text=True, timeout=60
    )


JOBS = {
    "rigidity/0/0/1": {"kind": "compare", "text": '{"equal": true, "beta_gap": null}\n'},
    "rigidity/0/0/2": {"kind": "classify", "text": '{"margin": 0.25}\n'},
}


def test_identical_files_exit_0(tmp_path):
    done = run_compare(tmp_path, JOBS, JOBS)
    assert done.returncode == 0
    assert done.stdout == "0 of 2 jobs differ\n"


def test_a_differing_job_exits_1(tmp_path):
    after = {**JOBS, "rigidity/0/0/2": {"kind": "classify", "text": '{"margin": 0.5}\n'}}
    done = run_compare(tmp_path, JOBS, after)
    assert done.returncode == 1
    assert done.stdout == "rigidity/0/0/2 classify 0.5\n1 of 2 jobs differ\n"


def test_a_missing_job_exits_1(tmp_path):
    done = run_compare(tmp_path, JOBS, {"rigidity/0/0/1": JOBS["rigidity/0/0/1"]})
    assert done.returncode == 1
    assert done.stdout == "rigidity/0/0/2 classify non-numeric\n1 of 2 jobs differ\n"
