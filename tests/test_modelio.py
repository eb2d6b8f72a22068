import json
import math

import numpy as np
import pytest

from markovspectra import (
    Potential,
    TransitionMatrix,
    full_shift,
    parse_model,
    pressure,
    serialize_model,
    word_key,
)
from markovspectra import shiftspace
from markovspectra.errors import ModelFormatError
from conftest import random_potential

MODEL = {
    "transition": [[1, 1], [1, 1]],
    "potential": {
        "order": 2,
        "values": {"11": -0.4, "12": -1.1, "21": -0.4, "22": -1.1},
    },
    "labels": {"name": "example"},
}


class TestParseModel:
    def test_from_dict(self):
        model = parse_model(MODEL)
        assert model.base.n_symbols == 2
        assert model.potential((1, 2)) == pytest.approx(-1.1)
        assert model.labels["name"] == "example"

    def test_from_json_string(self):
        model = parse_model(json.dumps(MODEL))
        assert model.potential((2, 2)) == pytest.approx(-1.1)

    def test_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(MODEL))
        model = parse_model(str(path))
        assert model.potential((1, 1)) == pytest.approx(-0.4)

    def test_pair_list_values(self):
        data = dict(MODEL)
        data["potential"] = {
            "order": 2,
            "values": [[[1, 1], -0.4], [[1, 2], -1.1], [[2, 1], -0.4], [[2, 2], -1.1]],
        }
        model = parse_model(data)
        assert model.potential((2, 1)) == pytest.approx(-0.4)

    def test_missing_file(self):
        with pytest.raises(ModelFormatError, match="cannot read"):
            parse_model("/nonexistent/model.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            parse_model(str(path))

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_shift_is_the_shared_base_and_not_rechecked(self, monkeypatch, n):
        base = full_shift(n)
        monkeypatch.setattr(shiftspace, "check_aperiodic", lambda e: pytest.fail("base re-checked"))
        values = {str(i + 1): 0.0 for i in range(n)}
        model = parse_model({"transition": [[1] * n for _ in range(n)], "potential": {"order": 1, "values": values}})
        assert model.base is base

    @pytest.mark.parametrize("rows", [[[1, 1], [1, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]])
    def test_other_bases_are_checked(self, monkeypatch, rows):
        checked = []
        check = shiftspace.check_aperiodic
        monkeypatch.setattr(shiftspace, "check_aperiodic", lambda e: checked.append(e) or check(e))
        values = {str(i + 1): 0.0 for i in range(len(rows))}
        model = parse_model({"transition": rows, "potential": {"order": 1, "values": values}})
        assert checked == [rows] and model.base.entries.tolist() == rows

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("transition"), "transition"),
            (lambda d: d.update(transition=[[0, 1], [1, 0]]), "transition"),
            (lambda d: d.update(potential="x"), "potential"),
            (lambda d: d["potential"].pop("order"), "potential"),
            (lambda d: d["potential"].update(order=0), "order"),
            (lambda d: d["potential"]["values"].pop("11"), "values"),
            (lambda d: d["potential"]["values"].update({"11": "nan?"}), "11"),
            (lambda d: d.update(labels=[1]), "labels"),
        ],
    )
    def test_error_names_offending_key(self, mutate, needle):
        data = json.loads(json.dumps(MODEL))
        mutate(data)
        with pytest.raises(ModelFormatError, match=needle):
            parse_model(data)

    @pytest.mark.parametrize(
        "transition,potential,needle",
        [
            ([[1, 1], [1, 1]], {"order": True, "values": {"1": 0.1, "2": 0.5}}, "order"),
            ([[1, 1], [1, 1]], {"order": 1, "values": {"1": True, "2": 0.5}}, "value for '1'"),
            ([[1, 1], [1, 1]], {"order": 1, "values": [[[True], 0.1], [[2], 0.5]]}, "integers"),
            ([[True, True], [True, 0]], {"order": 1, "values": {"1": 0.1, "2": 0.5}}, "transition"),
        ],
        ids=["order", "value", "pair-key-symbol", "transition"],
    )
    def test_json_booleans_rejected(self, transition, potential, needle):
        # bool is a subclass of int, so true/false must be refused explicitly
        data = {"transition": transition, "potential": potential}
        with pytest.raises(ModelFormatError, match=needle):
            parse_model(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "values,needle",
        [
            ([5, [[2], 0.5]], "entry 0 is not a \\[word, value\\] pair"),
            ([[[1], 0.1], [[2], 0.5, 7]], "entry 1 is not a \\[word, value\\] pair"),
            (["12", "21"], "entry 0 is not a \\[word, value\\] pair"),
            ([[[1], 0.1], [[2], 0.5], [[1], 0.3]], "word \\[1\\] is given twice"),
            ([["1", 0.1], [[2], 0.5], [[1], 0.3]], "word \\[1\\] is given twice"),
            ({"1": 10**400, "2": 0.5}, "value for '1' is not a finite number"),
            ({"1": math.nan, "2": 0.5}, "value for '1' is not a finite number"),
        ],
        ids=["not-a-list", "triple", "string", "repeated", "repeated-mixed-keys", "huge-integer", "nan"],
    )
    def test_malformed_values_refused(self, values, needle):
        data = {"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": values}}
        with pytest.raises(ModelFormatError, match=needle):
            parse_model(data)

    @pytest.mark.parametrize(
        "document,needle",
        [
            ("[1, 2]", "model must be a JSON object"),
            ('{"transition": [[1, 1], [1, 1]]}', "missing key 'potential'"),
            ('{"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": 5}}', "an object or a pair list"),
            ('{"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": {"1": 0, "x": 0}}}',
             "key 'x' is not a digit string"),
            ('{"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": [[1, 0], [2, 0]]}}',
             "key 1 has unsupported type"),
        ],
        ids=["not-an-object", "no-potential", "values-number", "non-digit-key", "integer-key"],
    )
    def test_malformed_document_refused(self, tmp_path, document, needle):
        path = tmp_path / "m.json"
        path.write_text(document)
        with pytest.raises(ModelFormatError, match=needle):
            parse_model(str(path))


class TestSerializeModel:
    def test_round_trip_exact(self, golden, ring):
        for base, seed in ((golden, 1), (ring, 2)):
            f = random_potential(base, seed=seed, scale=0.9)
            model = parse_model(serialize_model(f, labels={"k": 1}))
            assert (model.base.entries == base.entries).all()
            assert model.potential.values == f.values
            assert model.labels == {"k": 1}

    def test_round_trip_through_json_text(self, golden):
        # repr-level float fidelity survives json text round-trips
        f = random_potential(golden, seed=3, scale=1.3)
        text = json.dumps(serialize_model(f))
        model = parse_model(text)
        assert model.potential.values == f.values
        assert pressure(model.potential) == pressure(f)

    def test_round_trip_past_nine_symbols(self):
        # digit-string keys cannot name symbol 10, so values become [word, value] pairs
        base = TransitionMatrix.from_entries(np.ones((10, 10), dtype=int))
        f = random_potential(base, seed=4, scale=0.9)
        data = serialize_model(f)
        assert [[10, 10], f.values[(10, 10)]] in data["potential"]["values"]
        model = parse_model(json.dumps(data))
        assert (model.base.entries == base.entries).all()
        assert model.potential.values == f.values

    def test_word_key(self):
        assert word_key((1, 2, 1)) == "121"


class TestModelCorpus:
    """The shipped model files parse and carry their advertised data."""

    def test_all_files_parse(self):
        import pathlib

        files = sorted(pathlib.Path("models").glob("*.json"))
        assert len(files) >= 9
        for path in files:
            model = parse_model(str(path))
            assert model.base.n_symbols >= 2

    def test_p1_third_file(self):
        model = parse_model("models/full2_p1_third.json")
        assert pressure(model.potential) == pytest.approx(0.0, abs=1e-12)
        assert model.potential((1, 1)) == pytest.approx(math.log(2 / 3), abs=1e-15)

    def test_golden_zero_file(self):
        model = parse_model("models/golden_zero.json")
        assert pressure(model.potential) == pytest.approx(
            math.log((1 + 5**0.5) / 2), abs=1e-13
        )
