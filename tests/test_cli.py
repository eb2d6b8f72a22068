import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovspectra
from markovspectra.cli import (
    EXIT_AUDIT,
    EXIT_MATH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    MAX_DEPTH,
    MAX_ORACLE_WORK,
    build_parser,
    main,
)
from markovspectra.errors import MarkovSpectraError
from conftest import reference_sample_spectrum

P1_THIRD = "models/full2_p1_third.json"
P1_QUARTER = "models/full2_p1_quarter.json"
P2_THIRD = "models/full2_p2_third.json"
GOLDEN = "models/golden_zero.json"
MEMBER = "models/full2_member_example.json"
RING3_ZERO = "models/ring3_zero.json"
FULL3_ORDER1 = json.dumps(
    {"transition": [[1, 1, 1], [1, 1, 1], [1, 1, 1]], "potential": {"order": 1, "values": {"1": 0.3, "2": -0.2, "3": 0.1}}}
)
RING3_ORDER2 = json.dumps(
    {
        "transition": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "potential": {"order": 2, "values": {"12": 0.3, "13": -0.2, "21": 0.1, "23": 0.25, "31": -0.35, "32": 0.05}},
    }
)
FULL2_ORDER4 = json.dumps(
    {
        "transition": [[1, 1], [1, 1]],
        "potential": {
            "order": 4,
            "values": {"".join(w): 0.1 * w.count("1") - 0.07 * (w[0] == w[3]) for w in itertools.product("12", repeat=4)},
        },
    }
)
RING_40_VALUES = (40.0, -40.0, 40.0, -40.0, -40.0, -40.0)
STEEP_2_VALUES = {"11": 10.0, "12": -3.0, "21": 2.0, "22": 5.0}
# The full 2-shift at order 6 recodes to 32 order-2 symbols.
FULL2_ORDER6 = json.dumps(
    {
        "transition": [[1, 1], [1, 1]],
        "potential": {"order": 6, "values": {"".join(w): 0.1 * w.count("1") for w in itertools.product("12", repeat=6)}},
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPressure:
    def test_p1_third(self, capsys):
        code, out, _ = run(capsys, "pressure", P1_THIRD)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["pressure"] == pytest.approx(0.0, abs=1e-13)
        assert data["lambda"] == pytest.approx(1.0, abs=1e-13)
        assert data["right_eigenvector"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run(capsys, "pressure", GOLDEN, "--oracle-depth", "60")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["pressure"] == pytest.approx(math.log((1 + 5**0.5) / 2), abs=1e-13)
        assert data["oracle"]["max_gap"] <= 1e-8
        assert set(data["oracle"]["estimates"]) == {"1", "2"}

    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, "pressure", P1_THIRD)
        _, second, _ = run(capsys, "pressure", P1_THIRD)
        assert first == second


class TestSpectrum:
    def test_summary_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "spectrum", P1_THIRD, "--qmin", "-6", "--qmax", "6",
            "--qstep", "0.5", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["alpha_min"] == pytest.approx(math.log(3 / 2), abs=1e-12)
        assert data["alpha_max"] == pytest.approx(math.log(3), abs=1e-12)
        assert not data["degenerate"]
        assert data["h_top"] == pytest.approx(math.log(2), abs=1e-12)
        assert data["peak"]["E"] <= math.log(2) + 1e-12

        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 25
        for row in rows:
            q, a, b, e = (float(row[k]) for k in ("q", "alpha", "beta", "E"))
            assert e == pytest.approx(b + q * a, abs=1e-12)

    @pytest.mark.parametrize(
        "qmin, qmax, qstep, expected",
        [("0", "0.8", "0.5", [0.0, 0.5]), ("0.1", "0.3", "0.1", [0.1, 0.2, 0.30000000000000004])],
        ids=["past-qmax", "rounding"],
    )
    def test_grid_ends_at_qmax(self, capsys, tmp_path, qmin, qmax, qstep, expected):
        # np.arange stops at qmax + qstep / 2, so it wrote a row at q = 1.0
        # past --qmax 0.8; a point past qmax only by rounding stays
        out_csv = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "spectrum", P1_THIRD, "--qmin", qmin, "--qmax", qmax, "--qstep", qstep, "--out", str(out_csv)
        )
        assert code == EXIT_OK
        with open(out_csv) as handle:
            assert [float(row["q"]) for row in csv.DictReader(handle)] == expected

    def test_grid_holds_qmin_where_qmax_absorbs_half_a_step(self, capsys):
        # 1e17 + 0.5 rounds to 1e17, so np.arange made no point and the CLI
        # said "--qmin 1e+17 exceeds --qmax 1e+17"; the grid is q = 1e17 alone
        code, out, err = run(capsys, "spectrum", P1_THIRD, "--qmin", "1e17", "--qmax", "1e17", "--qstep", "1")
        assert code == EXIT_MATH and out == ""
        assert "exceeds" not in err and "times q=1e+17 is out of floating-point range" in err

    def test_grid_that_repeats_points_refused(self, capsys):
        # 1e-8 is below the spacing of doubles at 1e9, so arange's step
        # (qmin + qstep) - qmin rounds to 0: this grid was 96 rows, all q = 1e9
        code, out, err = run(
            capsys, "spectrum", "models/full2_zero.json", "--qmin", "1e9", "--qmax", "1.000000000000001e9",
            "--qstep", "1e-8",
        )
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: q grid repeats points") and err.count("\n") == 1
        assert "--qstep 1e-08" in err and "--qmin 1000000000.0" in err

    @pytest.mark.parametrize("model", [RING3_ZERO, FULL3_ORDER1], ids=["ring3_zero", "full3-order1"])
    def test_three_state_grid_is_one_stacked_solve(self, capsys, monkeypatch, model):
        # the benchmark pins the solves of 2-symbol requests only.  On 3
        # order-2 states the default 41-point grid is one stacked solve, its
        # cross-checks read it, and perron runs twice, both in thermo: for the
        # pressure (q = 1) and for h_mu's re-solve of that matrix
        from markovspectra import cli, rigidity, spectrum, thermo

        counts = {}

        def spy(module, name):
            key, spied = f"{module.__name__.rsplit('.', 1)[1]}.{name}", getattr(module, name)
            counts[key] = 0

            def counted(A):
                counts[key] += 1
                return spied(A)

            monkeypatch.setattr(module, name, counted)

        for module in (cli, rigidity, spectrum, thermo):
            spy(module, "perron")
        spy(thermo, "perron_stack")
        code, out, _ = run(capsys, "spectrum", model)
        assert code == EXIT_OK and json.loads(out)["samples"] == 41
        assert counts == {
            "cli.perron": 0, "rigidity.perron": 0, "spectrum.perron": 0, "thermo.perron": 2, "thermo.perron_stack": 1
        }

    @pytest.mark.parametrize("model", [RING3_ZERO, RING3_ORDER2, FULL2_ORDER4], ids=["ring3_zero", "ring3", "full2-order4"])
    def test_csv_is_the_per_q_loops_bytes(self, capsys, tmp_path, model):
        # the CSV of the default grid, byte for byte as the per-q loop that
        # sample_spectrum's array pass replaced writes its rows
        from markovspectra import BetaFunction, parse_model

        out_csv = tmp_path / "curve.csv"
        assert run(capsys, "spectrum", model, "--out", str(out_csv))[0] == EXIT_OK
        curve = reference_sample_spectrum(BetaFunction(parse_model(model).potential), np.arange(-10.0, 10.25, 0.5))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["q", "alpha", "beta", "E", "flags"])
        for s in curve.samples:
            writer.writerow([repr(s.q), repr(s.alpha), repr(s.beta), repr(s.entropy), s.flag])
        assert len(curve.samples) == 41 and out_csv.read_bytes() == expected.getvalue().encode()

    def test_csv_repr_round_trip(self, capsys, tmp_path):
        out_csv = tmp_path / "c.csv"
        run(capsys, "spectrum", P1_THIRD, "--qstep", "2", "--out", str(out_csv))
        from markovspectra import BetaFunction, parse_model

        bf = BetaFunction(parse_model(P1_THIRD).potential)
        with open(out_csv) as handle:
            for row in csv.DictReader(handle):
                q = float(row["q"])
                assert float(row["beta"]) == bf.beta(q)  # exact via repr


class TestCompare:
    def test_twins_equal(self, capsys):
        code, out, _ = run(capsys, "compare", P1_THIRD, P2_THIRD)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["equal"] and data["witness_q"] is None

    def test_unequal_with_witness(self, capsys):
        code, out, _ = run(capsys, "compare", P1_THIRD, P1_QUARTER)
        assert code == EXIT_OK  # an unequal verdict exits 0, as an equal one does
        data = json.loads(out)
        assert not data["equal"]
        assert data["witness_q"] is not None and data["beta_gap"] > 1e-9

    @pytest.mark.parametrize("shift", [0.0, 0.37])
    def test_cohomologous_pair_at_40_times_p1_is_certified(self, capsys, shift):
        # scanning the grid of 40 x log P1(1/3) exits 3 at a strong tilt
        # (Perron residual 2.163e-96); f against f + c is certified by the
        # least-squares fit, with no solve past the two pressures
        logs = {"11": math.log(2 / 3), "12": math.log(1 / 3), "21": math.log(2 / 3), "22": math.log(1 / 3)}

        def model(c):
            values = {w: 40.0 * v + c for w, v in logs.items()}
            return json.dumps({"transition": [[1, 1], [1, 1]], "potential": {"order": 2, "values": values}})

        code, out, err = run(capsys, "compare", model(0.0), model(shift))
        assert code == EXIT_OK and err == ""
        data = json.loads(out)
        assert data["equal"] is True and data["witness_q"] is None


class TestClassify:
    def test_p1_third_report(self, capsys):
        code, out, _ = run(capsys, "classify", P1_THIRD)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["case"] == "full-2-shift"
        assert data["in_E"] is False and data["strong_rigid"] is False
        assert data["twin_kind"] == "P1"
        assert data["alpha_detected"] == pytest.approx(1 / 3, abs=1e-12)
        assert sorted(map(sorted, data["g2_collisions"])) == [
            ["11", "12"], ["21", "22"]
        ]

    def test_twin_model_round_trips(self, capsys):
        _, out, _ = run(capsys, "classify", P1_THIRD)
        twin = json.loads(out)["twin"]
        from markovspectra import parse_model, spectra_equal

        f = parse_model(P1_THIRD).potential
        g = parse_model(twin).potential
        assert spectra_equal(f, g).equal

    def test_member_example(self, capsys):
        _, out, _ = run(capsys, "classify", MEMBER)
        data = json.loads(out)
        assert data["in_E"] and data["g2_member"] and data["twin"] is None

    def test_rows_decades_apart_are_no_bernoulli_family(self, capsys):
        # Gibbs matrix [[8.5e-64, 1], [1, 2.6e-149]]: its diagonal entries
        # differ by 85 decades, so it is not P2, however small both are
        values = {"11": -98.25713882820801, "12": -150.75193951194183, "21": 244.6921852928573, "22": -295.1591352509652}
        model = json.dumps({"transition": [[1, 1], [1, 1]], "potential": {"order": 2, "values": values}})
        code, out, _ = run(capsys, "classify", model)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["in_E"] is True and data["twin_kind"] is None and data["alpha_detected"] is None

    def test_p1_whose_alpha_rounds_to_one_exits_math(self, capsys):
        model = json.dumps({"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": {"1": -200, "2": 250}}})
        code, out, err = run(capsys, "classify", model)
        assert code == EXIT_MATH and out == ""
        assert "P1 parameter alpha rounds to 1.0" in err

    def test_ring_partial(self, capsys):
        _, out, _ = run(capsys, "classify", "models/ring3_zero.json")
        data = json.loads(out)
        assert data["case"] == "general"
        assert data["strong_rigid"] is None
        assert data["condition_A1"] is True


class TestGibbsAudit:
    def test_p1_third(self, capsys):
        code, out, _ = run(capsys, "gibbs-audit", P1_THIRD, "--depth", "10")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["constant"] == pytest.approx(2.0, abs=1e-12)
        assert data["within_bounds"] is True

    def test_exit_code_contract_on_violation(self, capsys, monkeypatch):
        import markovspectra.cli as cli
        from markovspectra.thermo import GibbsAudit

        def fake_audit(f, depth=12):
            return GibbsAudit(0.0, 2.0, 0.1, 3.0, 0.5, 2.0, depth, False)

        monkeypatch.setattr(cli, "gibbs_constant_audit", fake_audit)
        code, out, _ = run(capsys, "gibbs-audit", P1_THIRD)
        assert code == EXIT_AUDIT
        assert json.loads(out)["within_bounds"] is False

    def test_ratio_past_float_range_exits_math(self, capsys, tmp_path):
        # values of a few hundred: the theoretical constant's division
        # overflows and exp of the observed extreme log-ratio raises
        values = {
            "111": -293.99110620156443,
            "112": 228.4327235173829,
            "121": 98.43711840462498,
            "122": 279.6109803482709,
            "211": -235.06037117255266,
            "212": -155.6824435825251,
            "221": 30.071675977383165,
            "222": -294.183803239102,
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"transition": [[1, 1], [1, 1]], "potential": {"order": 3, "values": values}}))
        code, out, err = run(capsys, "gibbs-audit", str(path), "--depth", "4")
        assert code == EXIT_MATH and out == ""
        assert err == "error: the Gibbs audit constant or an observed extreme ratio is out of floating-point range\n"


class TestSample:
    def test_near_deterministic_chain_histogram(self, capsys, tmp_path):
        # every exponent is log(2) / 20 to a few ulps: too narrow a range for
        # 50 distinct edges, so the histogram widens it by NumPy's rule for
        # an empty range
        model = json.dumps(
            {"transition": [[1, 1], [1, 1]], "potential": {"order": 2, "values": {"11": -30, "12": 0, "21": 0, "22": -30.5}}}
        )
        out_csv = tmp_path / "hist.csv"
        code, out, _ = run(capsys, "sample", model, "--n", "20", "--trials", "100", "--out", str(out_csv))
        assert code == EXIT_OK
        mean = json.loads(out)["mean"]
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 50 and sum(int(r["count"]) for r in rows) == 100
        assert float(rows[0]["bucket_low"]) == pytest.approx(mean - 0.5, abs=1e-12)
        assert float(rows[-1]["bucket_high"]) == pytest.approx(mean + 0.5, abs=1e-12)

    def test_sample_summary_and_histogram(self, capsys, tmp_path):
        out_csv = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "sample", P1_THIRD, "--n", "2000", "--trials", "200",
            "--seed", "0", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["target_entropy_rate"] == pytest.approx(0.6365141682948129, abs=1e-12)
        assert abs(data["mean"] - data["target_entropy_rate"]) <= 3 * data["std_error"] + 5 / 2000
        with open(out_csv) as handle:
            rows = list(csv.DictReader(handle))
        assert sum(int(r["count"]) for r in rows) == 200

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "sample", P1_THIRD, "--n", "500", "--trials", "150", "--seed", "3")
        _, b, _ = run(capsys, "sample", P1_THIRD, "--n", "500", "--trials", "150", "--seed", "3")
        assert a == b


class TestExitCodes:
    def test_parse_error_missing_file(self, capsys):
        code, out, err = run(capsys, "pressure", "/no/such/model.json")
        assert code == EXIT_PARSE
        assert out == "" and "error:" in err

    def test_parse_error_bad_model(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"transition": [[0, 1], [1, 0]]}))
        code, _, err = run(capsys, "pressure", str(path))
        assert code == EXIT_PARSE and "transition" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", P1_THIRD, "--qstep", "0"),
            ("pressure", P1_THIRD, "--oracle-depth", "1"),
            ("sample", P1_THIRD, "--trials", "5"),
            ("gibbs-audit", P1_THIRD, "--depth", "0"),
            ("spectrum", P1_THIRD, "--qmin", "nan"),
            ("spectrum", P1_THIRD, "--qmax", "inf"),
            ("sample", P1_THIRD, "--seed", "-1"),
            ("pressure", P1_THIRD, "--oracle-depth", "1" + "0" * 400),
            # refused by the parser, before the (missing) model is read
            ("pressure", "/no/such/model.json", "--oracle-depth", str(MAX_DEPTH + 1)),
            ("gibbs-audit", "/no/such/model.json", "--depth", str(MAX_DEPTH + 1)),
        ],
        ids=[
            "qstep",
            "oracle-depth",
            "trials",
            "depth",
            "qmin",
            "qmax",
            "seed",
            "int-past-float-range",
            "oracle-depth-past-cap",
            "depth-past-cap",
        ],
    )
    def test_out_of_range_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == "" and f"argument {argv[2]}" in out.err

    def test_largest_oracle_depth_accepted(self):
        args = build_parser().parse_args(["pressure", P1_THIRD, "--oracle-depth", str(MAX_DEPTH)])
        assert MAX_DEPTH == 10_000 and args.oracle_depth == MAX_DEPTH

    @pytest.mark.parametrize("error", MarkovSpectraError.__subclasses__(), ids=lambda cls: cls.__name__)
    def test_library_error_exits_with_its_code(self, capsys, monkeypatch, error):
        def fail(args):
            raise error("injected")

        monkeypatch.setattr("markovspectra.cli.cmd_pressure", fail)
        code, out, err = run(capsys, "pressure", P1_THIRD)
        assert code == error.exit_code and code in (EXIT_PARSE, EXIT_MATH, EXIT_RESOURCE)
        assert out == "" and err == "error: injected\n"

    def test_error_codes(self):
        codes = {cls.__name__: cls.exit_code for cls in MarkovSpectraError.__subclasses__()}
        assert codes == {
            "AperiodicityError": EXIT_PARSE,
            "EnumerationCapError": EXIT_RESOURCE,
            "ModelFormatError": EXIT_PARSE,
            "NonConvergenceError": EXIT_MATH,
            "PotentialRangeError": EXIT_MATH,
            "SingularSystemError": EXIT_MATH,
            "SolverError": EXIT_MATH,
            "StochasticityError": EXIT_MATH,
            "WordLengthError": EXIT_PARSE,
        }

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_out_of_range_tol(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["compare", P1_THIRD, P1_THIRD, f"--tol={tol}"])
        assert exc.value.code == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == "" and "argument --tol: must be" in out.err

    @pytest.mark.parametrize(
        "flags",
        [("--qmax", "1e308"), ("--qstep", "1e-6"), ("--qmin", "0", "--qmax", "100001", "--qstep", "1")],
        ids=["qmax-1e308", "qstep-1e-6", "100002-points"],
    )
    def test_oversized_q_grid_refused_before_solving(self, capsys, monkeypatch, flags):
        def no_solve(*args):
            raise AssertionError("a Perron solve ran before the grid check")

        monkeypatch.setattr("markovspectra.thermo.perron", no_solve)
        code, out, err = run(capsys, "spectrum", P1_THIRD, *flags)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("error: q grid too large") and err.count("\n") == 1
        assert "--qmin" in err and "--qmax" in err and "--qstep" in err

    def test_largest_q_grid_accepted(self, capsys, monkeypatch):
        sizes = []

        def stop_after_grid(bf, grid):
            sizes.append(len(grid))
            raise ValueError("stopped")

        monkeypatch.setattr("markovspectra.cli.sample_spectrum", stop_after_grid)
        run(capsys, "spectrum", P1_THIRD, "--qmin", "0", "--qmax", "100000", "--qstep", "1")
        assert sizes == [100_001]

    def test_numerical_failure_exits_math(self, capsys, tmp_path):
        # Values of +-40 tilted to |q| >= 5 put Gibbs transition probabilities
        # or Perron vector entries below the smallest double.
        words = ("12", "13", "21", "23", "31", "32")
        model = {
            "transition": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "potential": {"order": 2, "values": dict(zip(words, RING_40_VALUES))},
        }
        path = tmp_path / "ring3_40.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "spectrum", str(path))
        assert code == EXIT_MATH
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    def test_overflowing_residual_exits_math_with_one_line(self, capsys):
        # the dense solve's residual product M v overflows: the solve is
        # refused with its own message and no floating-point warning.  The
        # second model swaps symbols 2 and 3 (the same spectrum, but no
        # coboundary apart), so compare scans the grid and reaches q = -18.5
        words = ("12", "13", "21", "23", "31", "32")
        swapped = ("13", "12", "31", "32", "21", "23")
        values = (4.550345043796824, -4.709398106667379, -27.60297986861633,
                  -10.330590570352307, 8.2626146098862, -32.52745978357569)

        def model(names):
            return json.dumps(
                {"transition": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "potential": {"order": 2, "values": dict(zip(names, values))}}
            )

        code, out, err = run(capsys, "compare", model(words), model(swapped))
        assert code == EXIT_MATH
        assert out == "" and err == "error: Perron residual 9.445e+21 exceeds tol=1e-13 times the root\n"

    def test_json_boolean_exits_parse(self, capsys):
        model = '{"transition":[[1,1],[1,1]],"potential":{"order":true,"values":{"1":true,"2":0.5}}}'
        code, out, err = run(capsys, "pressure", model)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_json_boolean_transition_exits_parse(self, capsys):
        model = '{"transition":[[true,true],[true,true]],"potential":{"order":1,"values":{"1":1,"2":0.5}}}'
        code, out, err = run(capsys, "pressure", model)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "transition" in err

    @pytest.mark.parametrize("value", [800.0, -800.0])
    def test_exp_out_of_range_exits_math(self, capsys, value):
        model = json.dumps(
            {"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": {"1": value, "2": 0.5}}}
        )
        code, out, err = run(capsys, "pressure", model)
        assert code == EXIT_MATH
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "out of floating-point range" in err

    def test_strong_tilt_exits_math(self, capsys):
        # exp(100)**-10 underflows to 0 at the first point of the default grid
        model = json.dumps(
            {"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": {"1": 100.0, "2": 0.5}}}
        )
        code, out, err = run(capsys, "spectrum", model)
        assert code == EXIT_MATH
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        # the message names the model's value and the tilt, not their product
        assert "potential value 100.0 times q=-10.0 is out of floating-point range" in err

    @pytest.mark.parametrize(
        "values,needle",
        [
            ('[5, [[2], 0.5]]', "is not a [word, value] pair"),
            ('[[[1], 0.1], [[2], 0.5], [[1], 0.3]]', "is given twice"),
            ('{"1": 1' + "0" * 400 + ', "2": 0.5}', "is not a finite number"),
        ],
        ids=["not-a-pair", "repeated-word", "huge-integer"],
    )
    def test_malformed_values_exit_parse(self, capsys, values, needle):
        model = '{"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": %s}}' % values
        code, out, err = run(capsys, "pressure", model)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    def test_largest_audit_depth_within_bounds(self, capsys):
        # the recursion audits all 2^10002 - 4 cylinders without a cap
        code, out, err = run(capsys, "gibbs-audit", P1_THIRD, "--depth", str(MAX_DEPTH))
        assert code == EXIT_OK and err == ""
        audit = json.loads(out)
        assert audit["depth"] == MAX_DEPTH and audit["within_bounds"] is True

    def test_order_past_cap_exits_resource(self, capsys):
        model = '{"transition": [[1, 1], [1, 1]], "potential": {"order": 20000, "values": {"1": 0.5}}}'
        code, out, err = run(capsys, "pressure", model)
        assert code == EXIT_RESOURCE
        assert out == "" and err == "error: more than 10000000 words of length 20000 (the enumeration cap)\n"

    def test_oracle_work_past_cap_exits_resource(self, capsys, monkeypatch):
        # 3052 x 32^3 is just over the cap; it is refused before any solve
        assert 3052 * 32**3 > MAX_ORACLE_WORK == 10**8
        monkeypatch.setattr("markovspectra.cli.BetaFunction", None)
        code, out, err = run(capsys, "pressure", FULL2_ORDER6, "--oracle-depth", "3052")
        assert code == EXIT_RESOURCE
        assert out == "" and err == (
            "error: --oracle-depth 3052 on 32 order-2 symbols needs 100007936 cell updates, over the cap 100000000\n"
        )

    def test_largest_oracle_work_accepted(self, capsys, monkeypatch):
        # 3051 x 32^3 is just under the cap; the oracle itself is stubbed
        assert 3051 * 32**3 <= MAX_ORACLE_WORK
        calls = []

        def oracle(f, depth):
            calls.append(depth)
            return [0.0] * 32

        monkeypatch.setattr("markovspectra.cli.pressure_by_preimages", oracle)
        code, _, _ = run(capsys, "pressure", FULL2_ORDER6, "--oracle-depth", "3051")
        assert code == EXIT_OK and calls == [3051]

    def test_unallocatable_sample_exits_resource(self, capsys):
        # 10^12 steps x 100 trials needs 728 TiB, which no allocator grants
        code, out, err = run(capsys, "sample", P1_THIRD, "--n", "1000000000000", "--trials", "100")
        assert code == EXIT_RESOURCE
        assert out == "" and err.startswith("error: out of memory") and err.count("\n") == 1

    def test_overflowing_stacked_tilt_prints_one_error_line(self):
        # q * f overflows in the stacked grid build: the block is skipped and
        # q's own build raises its range error, with no NumPy warning on stderr
        model = {"transition": [[1, 1], [1, 1]], "potential": {"order": 2, "values": STEEP_2_VALUES}}
        src = Path(markovspectra.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "markovspectra.cli", "spectrum", json.dumps(model), "--qmin=1e308", "--qmax=1e308"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_MATH and result.stdout == ""
        assert result.stderr == "error: exp of the potential value 10.0 times q=1e+308 is out of floating-point range\n"

    def test_library_value_error_exits_parse(self, capsys):
        code, out, err = run(capsys, "spectrum", P1_THIRD, "--qmin", "5", "--qmax", "-5")
        assert code == EXIT_PARSE
        assert out == "" and err == "error: empty q grid: --qmin 5.0 exceeds --qmax -5.0\n"


class TestParserReuse:
    def test_built_once_per_process(self, capsys, tmp_path):
        requests = [
            ("pressure", P1_THIRD),
            ("spectrum", P1_THIRD, "--qmin", "-1", "--qmax", "1", "--out", str(tmp_path / "spectrum.csv")),
            ("compare", P1_THIRD, P2_THIRD),
            ("classify", P1_THIRD),
            ("gibbs-audit", P1_THIRD, "--depth", "4"),
            ("sample", P1_THIRD, "--n", "50", "--trials", "100"),
        ]
        handlers = {name[4:].replace("_", "-") for name in vars(markovspectra.cli) if name.startswith("cmd_")}
        assert {argv[0] for argv in requests} == handlers
        for argv in requests:
            assert run(capsys, *argv)[0] == EXIT_OK
        info = build_parser.cache_info()
        assert info.misses == 1 and info.currsize == 1

    def test_failures_leave_later_requests_unchanged(self, capsys):
        valid = ("gibbs-audit", P1_THIRD, "--depth", "5")
        defaults = ("gibbs-audit", P1_QUARTER)
        rejected = ("gibbs-audit", P1_THIRD, "--depth", "0")
        overflow = {"transition": [[1, 1], [1, 1]], "potential": {"order": 1, "values": {"1": 800.0, "2": 0.5}}}
        math_error = ("pressure", json.dumps(overflow))

        def reject():
            with pytest.raises(SystemExit) as exc:
                main(list(rejected))
            assert exc.value.code == EXIT_PARSE
            return capsys.readouterr().err

        first = [run(capsys, *valid), run(capsys, *defaults)]
        rejection = reject()
        assert run(capsys, *math_error)[0] == EXIT_MATH
        assert [run(capsys, *valid), run(capsys, *defaults)] == first
        assert first[0][1] != first[1][1] and "--depth" in rejection
        assert reject() == rejection


def test_cli_import_loads_no_scipy():
    src = Path(markovspectra.__file__).resolve().parents[1]
    probe = "import sys, markovspectra.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"


def test_package_import_loads_no_numpy_random():
    # sim.trial_draws registers its seed words with numpy.random on first use
    src = Path(markovspectra.__file__).resolve().parents[1]
    probe = "import sys, markovspectra, markovspectra.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "False"
