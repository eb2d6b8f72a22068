"""``tools/robustness.py``: the models it draws, its table and its exit status."""

import importlib.util
import warnings
from pathlib import Path

import pytest

from markovspectra import parse_model

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("robustness", ROOT / "tools" / "robustness.py")
robustness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(robustness)
cli = robustness.cli


def test_models_are_valid_and_cycle_through_the_scales():
    for i in range(12):
        model = parse_model(robustness.draw_model(7, i))
        assert 2 <= model.base.n_symbols <= 4 and 1 <= model.potential.order <= 3
        assert max(map(abs, model.potential.values.values())) <= robustness.SCALES[i % 6]
    assert robustness.draw_model(7, 3) == robustness.draw_model(7, 3) != robustness.draw_model(8, 3)


def test_a_few_valid_requests_exit_0(capsys):
    code = robustness.main(["--seed", "0", "--requests", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[-1] == "0 of 24 requests escaped, exited outside (0, 3, 4, 5) or warned"
    # one row per request; the 3 models fill the first 3 scales' cells once each
    rows = out[2 : 2 + len(robustness.REQUESTS)]
    assert rows[1].startswith("pressure --oracle-depth 5 ") and rows[4].startswith("compare X X ")
    for row in rows:
        cells = [token for token in row.split() if ":" in token]
        assert len(cells) == 3 and all(cell in ("0:1", "3:1", "4:1", "5:1") for cell in cells)


def warns(args):
    warnings.warn("drifted", RuntimeWarning)
    return 0


def raises(args):
    raise KeyError("lost")


@pytest.mark.parametrize(
    "command, cell, message",
    [
        (warns, "0:1 w:1", f"RuntimeWarning (test_robustness.py line {warns.__code__.co_firstlineno + 1}): drifted"),
        (raises, "!:1", "KeyError: 'lost'"),
        (lambda args: 2, "2:1", None),
    ],
    ids=["warning", "escaped", "exit-2"],
)
def test_a_breach_exits_1(monkeypatch, capsys, command, cell, message):
    monkeypatch.setattr(cli, "cmd_classify", command)
    code = robustness.main(["--seed", "0", "--requests", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1 and out[-1] == "1 of 8 requests escaped, exited outside (0, 3, 4, 5) or warned"
    row = next(line for line in out if line.startswith("classify"))
    assert row.split()[1:] == cell.split()
    if message is not None:
        assert any(line.endswith(message) for line in out)
