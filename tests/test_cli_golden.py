"""Golden CLI output: stdout, stderr and exit code of a fixed command set.

Each command runs through ``cli.main`` and must reproduce
``tests/golden/cli.json`` byte for byte.  After a deliberate change of
output, regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from markovspectra.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.json"

MODELS = sorted(f"models/{p.name}" for p in (ROOT / "models").glob("*.json"))
FULL2 = [[1, 1], [1, 1]]
RING3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def inline_model(transition, order: int, values: dict) -> str:
    """A model given on the command line as a JSON document."""
    model = {"transition": transition, "potential": {"order": order, "values": values}}
    return json.dumps(model, separators=(",", ":"))


COMMANDS = [
    argv
    for model in MODELS
    for argv in (
        ("pressure", model, "--oracle-depth", "60"),
        ("spectrum", model),
        ("classify", model),
        ("gibbs-audit", model, "--depth", "10"),
        ("sample", model, "--n", "200", "--trials", "200"),
    )
] + [
    ("compare", "models/full2_p1_third.json", "models/full2_p2_third.json"),
    ("compare", "models/full2_p1_third.json", "models/full2_p1_quarter.json"),
    # library failures: invalid input (2), numerical failure (3), resource cap (5)
    ("pressure", inline_model(FULL2, 1, {"1": True, "2": 0})),
    ("pressure", inline_model(FULL2, 1, {"1": 800, "2": 0})),
    # exp(-460) off the diagonal: the 2x2 closed form's b*c underflows to 0
    ("pressure", inline_model(FULL2, 2, {"11": 0, "12": -460, "21": -460, "22": 0})),
    ("spectrum", inline_model(RING3, 1, {"1": 40, "2": -40, "3": 0})),
    ("spectrum", inline_model(RING3, 2, {"12": 40, "13": -40, "21": -40, "23": 40, "31": 40, "32": -40})),
    ("gibbs-audit", "models/full2_zero.json", "--depth", "40"),
    # 2^25 words of order 25 exceed the enumeration cap
    ("pressure", inline_model(FULL2, 25, {"1": 0.0})),
    ("spectrum", "models/full2_p1_third.json", "--qstep", "1e-6"),
]


def run(argv) -> dict:
    """Exit code, stdout and stderr of one CLI command; model paths are
    relative to the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(ROOT / a) if a.startswith("models/") else a for a in argv])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command():
    assert len(MODELS) == 9
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden(argv):
    assert run(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    golden = {" ".join(argv): run(argv) for argv in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} commands to {GOLDEN}", file=sys.stderr)
