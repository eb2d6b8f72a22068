import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovspectra import (
    Potential,
    reduce_to_order2,
    admissible_words,
    appendix_condition_check,
    bernoulli_twin,
    classify_2x2,
    classify_general,
    density_probe,
    edge_matrix,
    full_shift,
    g_n_membership,
    gibbs_markov,
    log_p1_potential,
    log_p2_potential,
    normalize_potential,
    out_degrees,
    parse_model,
    ring3,
    spectra_equal,
)
from markovspectra import rigidity
from markovspectra.errors import AperiodicityError, NonConvergenceError, PotentialRangeError
from markovspectra.perron import perron, perron_stack
from markovspectra.rigidity import GAP_TOL, OPENNESS_SUBTRIALS, DensityProbeResult, PairCheck
from markovspectra.shiftspace import TransitionMatrix
from markovspectra.thermo import normalized_table, solve_tables
from conftest import random_aperiodic_base, random_potential, random_support_matrix

MODELS = Path(__file__).resolve().parents[1] / "models"


def reference_g_n(f):
    """Margin and collisions of g_n_membership over every pair of words, in
    itertools.combinations order."""
    f2, recoding = reduce_to_order2(f)
    words = f.words if recoding else f2.words
    values = dict(zip(words, normalize_potential(f2).table.tolist()))
    scale = max(1.0, max(abs(v) for v in values.values()))
    margin, collisions = np.inf, []
    for (w1, v1), (w2, v2) in itertools.combinations(values.items(), 2):
        gap = abs(v1 - v2) / scale
        margin = min(margin, gap)
        if gap <= GAP_TOL:
            collisions.append((w1, w2))
    return float(margin), tuple(collisions)


def planted_ties(base, seed):
    """A random order-2 potential whose self-loops and whose first and last
    edges share one value: their normalized values tie up to rounding."""
    rng = np.random.default_rng(seed)
    words = admissible_words(base, 2)
    table = {w: rng.uniform(-1.0, 1.0) for w in words}
    for w in [w for w in words if w[0] == w[1]] + [words[0], words[-1]]:
        table[w] = 0.25
    return Potential.from_table(base, 2, table)


class TestGnMembership:
    def test_member_example(self, full2):
        f = Potential.from_matrix_log(full2, [[0.7, 0.3], [0.4, 0.6]])
        report = g_n_membership(f)
        assert report.member and not report.collisions
        expected = {
            (1, 1): math.log(0.7),
            (1, 2): math.log(0.4),
            (2, 1): math.log(0.3),
            (2, 2): math.log(0.6),
        }
        for w, v in expected.items():
            assert report.values[w] == pytest.approx(v, abs=1e-12)

    def test_p1_collisions(self, f_p1_third):
        report = g_n_membership(f_p1_third)
        assert not report.member
        assert set(report.collisions) == {((1, 1), (1, 2)), ((2, 1), (2, 2))}

    def test_p2_collisions(self, f_p2_third):
        report = g_n_membership(f_p2_third)
        assert not report.member
        assert set(report.collisions) == {((1, 1), (2, 2)), ((1, 2), (2, 1))}

    def test_idempotent_under_normalization(self, test_potentials):
        for f in test_potentials:
            direct = g_n_membership(f)
            renorm = g_n_membership(normalize_potential(f))
            assert direct.member == renorm.member
            assert set(direct.collisions) == set(renorm.collisions)
            assert direct.margin == pytest.approx(renorm.margin, abs=1e-9)

    def test_order3_membership(self, golden):
        f3 = random_potential(golden, seed=17, scale=0.5, order=3)
        report = g_n_membership(f3)
        assert set(report.values) == {
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)
        }
        assert report.member  # generic random values are pairwise distinct


class TestGnMembershipReference:
    """The sort-based kernel gives the pairwise loop's margin and collisions,
    in its order."""

    @settings(max_examples=40, deadline=10_000, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_planted_ties(self, seed, n):
        base = random_aperiodic_base(np.random.default_rng(seed), n)
        for f in (planted_ties(base, seed), Potential.constant(base, 0.3), random_potential(base, seed)):
            report = g_n_membership(f)
            margin, collisions = reference_g_n(f)
            assert report.margin == margin and report.collisions == collisions
            assert report.member == (not collisions)

    @pytest.mark.parametrize("order", [1, 3])
    def test_other_orders(self, golden, full2, order):
        for base in (golden, full2):
            f = Potential.constant(base, -0.5, order=order)
            assert (g_n_membership(f).margin, g_n_membership(f).collisions) == reference_g_n(f)

    def test_families(self, f_p1_third, f_p2_third):
        for f in (f_p1_third, f_p2_third):
            report = g_n_membership(f)
            assert (report.margin, report.collisions) == reference_g_n(f)
            assert report.collisions


def reference_appendix_checks(Af, orientation):
    """appendix_condition_check as a Python loop over itertools.permutations,
    one frozenset lookup per pair."""
    triple = perron(Af)
    w = triple.right if orientation == "right-v" else 1.0 / triple.left
    base = TransitionMatrix.from_entries((Af > 0).astype(int))
    f = Potential.from_matrix_log(base, Af)
    colliding = {frozenset(pair) for pair in g_n_membership(f).collisions}
    i, j = base.edge_index
    a = Af[i, j]
    expressions = a[:, None] / a[None, :] - np.outer(w[i], w[j]) / np.outer(w[j], w[i])
    checks = []
    for (x, e), (y, e2) in itertools.permutations(enumerate(f.words), 2):
        expr = float(expressions[x, y])
        is_zero = abs(expr) <= GAP_TOL
        collision = frozenset((e, e2)) in colliding
        checks.append(PairCheck((e, e2), expr, is_zero, collision, is_zero == collision))
    return checks


def appendix_cases():
    """Order-2 potentials of the shipped models, and random and two-valued
    (collision-rich) order-2 tables on ring3 and the full 3-shift."""
    cases = {}
    for path in sorted(MODELS.glob("*.json")):
        cases[path.stem] = reduce_to_order2(parse_model(str(path)).potential)[0]
    for name, base in (("ring3", ring3()), ("full3", full_shift(3))):
        for seed in range(3):
            cases[f"{name}_random{seed}"] = random_potential(base, seed=900 + seed)
            rng = np.random.default_rng(seed)
            two_valued = {w: 0.5 * rng.integers(0, 2) for w in admissible_words(base, 2)}
            cases[f"{name}_two_valued{seed}"] = Potential.from_table(base, 2, two_valued)
    return cases


class TestAppendixConditionCheck:
    def test_p2_third_left_u(self, f_p2_third):
        checks = appendix_condition_check(edge_matrix(f_p2_third), orientation="left-u")
        by_pair = {c.pair: c for c in checks}
        assert by_pair[((1, 1), (2, 2))].is_zero
        assert by_pair[((1, 2), (2, 1))].is_zero
        assert not by_pair[((1, 1), (1, 2))].is_zero
        assert by_pair[((1, 1), (1, 2))].expression == pytest.approx(1.0, abs=1e-12)
        assert all(c.agrees for c in checks)

    def test_p2_third_right_v(self, f_p2_third):
        # the symmetric example: both orientations agree with the
        # definitional collision test
        checks = appendix_condition_check(edge_matrix(f_p2_third), orientation="right-v")
        assert all(c.agrees for c in checks)

    def test_constant_all_zero(self, full2):
        f = Potential.constant(full2, 0.3)
        checks = appendix_condition_check(edge_matrix(f), orientation="left-u")
        assert all(c.is_zero for c in checks)

    def test_left_u_always_matches_definition(self, test_potentials):
        for f in test_potentials:
            from markovspectra import reduce_to_order2

            f2, _ = reduce_to_order2(f)
            checks = appendix_condition_check(edge_matrix(f2), orientation="left-u")
            assert all(c.agrees for c in checks)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_expressions_match_pairwise_formulas(self, n):
        # reference: the appendix's two arrangements, one pair at a time
        for seed in range(3):
            base, Af = random_support_matrix(n, 100 * n + seed)
            triple = perron(Af)
            u, v = triple.left, triple.right
            for orientation, ratio in (
                ("right-v", lambda i, j, k, l: v[i] * v[l] / (v[j] * v[k])),
                ("left-u", lambda i, j, k, l: u[k] * u[j] / (u[i] * u[l])),
            ):
                checks = appendix_condition_check(Af, orientation)
                pairs = list(itertools.permutations(admissible_words(base, 2), 2))
                assert [c.pair for c in checks] == pairs
                for c, ((i, j), (k, l)) in zip(checks, pairs):
                    a = Af[i - 1, j - 1] / Af[k - 1, l - 1]
                    expected = a - ratio(i - 1, j - 1, k - 1, l - 1)
                    assert abs(c.expression - expected) <= 1e-14 * max(1.0, a)

    def test_bad_orientation(self, f_p2_third):
        with pytest.raises(ValueError):
            appendix_condition_check(edge_matrix(f_p2_third), orientation="up")

    @pytest.mark.parametrize(
        "Af, error, message",
        [
            ([[1, 0], [0, 1]], AperiodicityError, "not primitive"),
            ([[1, 1], [0, 1]], AperiodicityError, "not primitive"),
            ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], AperiodicityError, "not primitive"),
            ([[1, 1, 1], [1, 1, 1]], AperiodicityError, "not square"),
            ([[1, 1, -0.5], [1, 1, 1], [1, 1, 1]], ValueError, "finite and non-negative"),
            ([[1, math.nan], [1, 1]], ValueError, "finite and non-negative"),
            ([[1, math.inf], [1, 1]], ValueError, "finite and non-negative"),
        ],
        ids=["identity", "triangular", "block-diagonal", "2x3", "negative", "nan", "inf"],
    )
    def test_outside_matrix_checked_before_any_solve(self, monkeypatch, Af, error, message):
        # these were solved first: they raised NonConvergenceError or NumPy's
        # concatenate error, and the negative entry returned checks of a
        # Perron vector its potential did not come from
        def no_solve(A):
            raise AssertionError("solved before the matrix was checked")

        monkeypatch.setattr("markovspectra.rigidity.perron", no_solve)
        monkeypatch.setattr("markovspectra.thermo.perron", no_solve)
        for orientation in ("right-v", "left-u"):
            with pytest.raises(error, match=message):
                appendix_condition_check(np.array(Af, dtype=float), orientation)

    @pytest.mark.parametrize("orientation", ["right-v", "left-u"])
    def test_one_perron_solve(self, monkeypatch, f_p2_third, orientation):
        # the collision test reads the solve that gives w
        counts = {"rigidity": 0, "thermo": 0}
        for module in counts:

            def counted(A, module=module):
                counts[module] += 1
                return perron(A)

            monkeypatch.setattr(f"markovspectra.{module}.perron", counted)
        appendix_condition_check(edge_matrix(f_p2_third), orientation)
        assert counts == {"rigidity": 1, "thermo": 0}

    @pytest.mark.parametrize("orientation", ["right-v", "left-u"])
    def test_records_match_loop_reference(self, orientation):
        collisions = 0
        for name, f in appendix_cases().items():
            Af = edge_matrix(f)
            checks = appendix_condition_check(Af, orientation)
            assert checks == reference_appendix_checks(Af, orientation), name
            assert all(type(field) in (tuple, float, bool) for c in checks for field in vars(c).values())
            collisions += sum(c.definitional_collision for c in checks)
        assert collisions  # the collision mask is exercised, not only its zeros


class TestBernoulliTwin:
    def test_p1_third_twin(self):
        twin = bernoulli_twin(1 / 3, "P1")
        expected = log_p2_potential(1 / 3)
        for w, v in expected.values.items():
            assert twin.values[w] == pytest.approx(v, abs=1e-15)

    def test_p2_twin_is_p1(self):
        twin = bernoulli_twin(0.2, "P2")
        expected = log_p1_potential(0.2)
        for w, v in expected.values.items():
            assert twin.values[w] == pytest.approx(v, abs=1e-15)

    def test_half_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_twin(0.5, "P1")

    def test_twins_share_spectrum_but_not_measure(self):
        for a in (1 / 3, 0.2, 0.41):
            f = log_p1_potential(a)
            g = bernoulli_twin(a, "P1")
            assert spectra_equal(f, g).equal
            gap = np.max(np.abs(gibbs_markov(f).P - gibbs_markov(g).P))
            assert gap >= abs(1 - 2 * a) - 1e-12


class TestClassify2x2:
    def test_p1_third(self, f_p1_third):
        report = classify_2x2(f_p1_third)
        assert report.case == "full-2-shift"
        assert report.in_E is False
        assert report.strong_rigid is False and report.weak_rigid is False
        assert report.twin_kind == "P1"
        assert report.alpha_detected == pytest.approx(1 / 3, abs=1e-12)
        assert report.twin is not None
        for w, v in log_p2_potential(report.alpha_detected).values.items():
            assert report.twin.values[w] == pytest.approx(v, abs=1e-12)

    def test_p2_detected(self, f_p2_third):
        report = classify_2x2(f_p2_third)
        assert report.twin_kind == "P2" and not report.in_E

    def test_constant_is_half(self, full2):
        report = classify_2x2(Potential.constant(full2, 1.1))
        assert report.in_E and report.strong_rigid and report.twin is None
        assert report.alpha_detected == pytest.approx(0.5, abs=1e-12)

    def test_generic_member_in_E(self, full2):
        f = Potential.from_matrix_log(full2, [[0.7, 0.3], [0.4, 0.6]])
        report = classify_2x2(f)
        assert report.in_E and report.strong_rigid and report.g2_member

    def test_golden_always_rigid(self, golden):
        for seed in (1, 2, 3):
            f = random_potential(golden, seed=seed, scale=0.6)
            report = classify_2x2(f)
            assert report.case == "nonfull-2x2"
            assert report.strong_rigid and report.weak_rigid

    def test_invariant_under_constant_shift(self, f_p1_third, full2):
        for f in (f_p1_third, Potential.from_matrix_log(full2, [[0.7, 0.3], [0.4, 0.6]])):
            a, b = classify_2x2(f), classify_2x2(f.shift(1.7))
            assert a.in_E == b.in_E and a.twin_kind == b.twin_kind
            if a.alpha_detected is not None:
                assert b.alpha_detected == pytest.approx(a.alpha_detected, abs=1e-11)

    def test_dimension_guard(self, ring):
        with pytest.raises(ValueError):
            classify_2x2(Potential.constant(ring, 0.0))


class TestClassifyGeneral:
    def test_ring_partial_report(self, ring):
        f = random_potential(ring, seed=8, scale=0.4)
        report = classify_general(f)
        assert report.case == "general"
        assert report.strong_rigid is None and report.weak_rigid is None
        assert report.condition_a1

    def test_degree_condition_failure_reported(self):
        from markovspectra import TransitionMatrix

        base = TransitionMatrix.from_entries([[0, 1, 0], [0, 0, 1], [1, 1, 1]])
        f = Potential.constant(base, 0.0)
        assert not classify_general(f).condition_a1
        assert out_degrees(base).delta == (1, 1, 3)


class TestStochasticNonConstancy:
    """For stochastic P on a base satisfying the degree condition, some
    stochastic Q on the same support has a different entry ratio, for every
    ordered pair of edges."""

    @pytest.mark.parametrize(
        "entries",
        [
            [[2 / 3, 1 / 3], [2 / 3, 1 / 3]],
            [[0.5, 0.5], [0.5, 0.5]],
            [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.1, 0.8, 0.1]],
        ],
    )
    def test_ratio_not_constant(self, entries):
        import itertools

        from markovspectra import TransitionMatrix

        P = np.array(entries, dtype=float)
        n = len(entries)
        base = TransitionMatrix.from_entries((P > 0).astype(int))
        assert out_degrees(base).condition_a1
        edges = base.edges()
        rng = np.random.default_rng(0)
        for (i, j), (k, l) in itertools.permutations(edges, 2):
            target = P[i - 1, j - 1] / P[k - 1, l - 1]
            found = False
            for _ in range(100):
                raw = np.where(base.entries == 1, rng.uniform(0.1, 1.0, (n, n)), 0.0)
                Q = raw / raw.sum(axis=1, keepdims=True)
                if abs(Q[i - 1, j - 1] / Q[k - 1, l - 1] - target) > 1e-6:
                    found = True
                    break
            assert found


class TestDensityProbe:
    def test_p1_third_perturbations_all_members(self, f_p1_third):
        result = density_probe(f_p1_third, radius=1e-3, trials=200, seed=0)
        assert result.fraction == 1.0
        assert result.openness_violations == 0
        assert result.openness_checked == 200 * 10

    def test_member_base_stays_member(self, full2):
        f = Potential.from_matrix_log(full2, [[0.7, 0.3], [0.4, 0.6]])
        result = density_probe(f, radius=1e-4, trials=100, seed=1)
        assert result.fraction == 1.0

    def test_zero_radius_non_member(self, f_p1_third):
        result = density_probe(f_p1_third, radius=0.0, trials=50, seed=2)
        assert result.fraction == 0.0

    def test_deterministic(self, f_p1_third):
        a = density_probe(f_p1_third, radius=1e-3, trials=60, seed=9)
        b = density_probe(f_p1_third, radius=1e-3, trials=60, seed=9)
        assert a == b


def reference_density_probe(f, radius, trials, seed):
    """The per-trial probe: one g_n_membership call per table, each trial's
    openness tables drawn one at a time from its own stream."""
    f2, _ = reduce_to_order2(f)
    members = checked = violations = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        g = Potential(f2.base, 2, f2.words, f2.table + rng.uniform(-radius, radius, size=f2.table.size))
        if g_n_membership(g).member:
            members += 1
            for _ in range(OPENNESS_SUBTRIALS):
                checked += 1
                h = Potential(f2.base, 2, f2.words, g.table + rng.uniform(-radius / 100, radius / 100, size=g.table.size))
                violations += not g_n_membership(h).member
    return DensityProbeResult(members / trials if trials else 0.0, members, trials, checked, violations)


class TestDensityProbeReference:
    @pytest.fixture(scope="class")
    def cases(self, f_p1_third, f_p2_third, full2):
        ring = TransitionMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        return {
            "P1": f_p1_third,
            "P2": f_p2_third,
            "member": Potential.from_matrix_log(full2, [[0.7, 0.3], [0.4, 0.6]]),
            "ring3": random_potential(ring, seed=4, scale=0.5),
        }

    # at 5e-324, radius / 100 underflows to 0: every ball is its member's table
    @pytest.mark.parametrize("radius", [0.0, 5e-324, 1e-3, 0.05, 0.5])
    @pytest.mark.parametrize("name", ["P1", "P2", "member", "ring3"])
    def test_batched_probe_equals_per_trial_loop(self, cases, name, radius):
        f = cases[name]
        assert density_probe(f, radius, 30, 7) == reference_density_probe(f, radius, 30, 7)

    @pytest.mark.parametrize("name", ["P1", "member"])
    def test_radius_past_exp_range_raises_as_the_loop(self, cases, name):
        with pytest.raises(PotentialRangeError) as probed:
            density_probe(cases[name], 1e300, 30, 7)
        with pytest.raises(PotentialRangeError) as looped:
            reference_density_probe(cases[name], 1e300, 30, 7)
        assert str(probed.value) == str(looped.value)

    @pytest.mark.parametrize("a, shift, seed", [(0.2, -1.3, 0), (0.71, 2.4, 2**30 - 1)])
    def test_benchmark_template(self, monkeypatch, a, shift, seed):
        # the rigidity workload's density job: P1(a)'s log table plus a
        # constant, radius 0.05, 40 trials; the solved tables are the
        # per-trial uniform draws bit for bit, each ball's scaled by its cut
        f = log_p1_potential(a)
        f = Potential(f.base, 2, f.words, f.table + shift)
        solved, certified = [], []
        solve, certified_radius = rigidity.solve_tables, rigidity._certified_radius
        monkeypatch.setattr(rigidity, "solve_tables", lambda f2, t: solved.append(t) or solve(f2, t))
        monkeypatch.setattr(
            rigidity, "_certified_radius", lambda *args: certified.append(certified_radius(*args)) or certified[-1]
        )
        result = density_probe(f, 0.05, 40, seed)
        assert result == reference_density_probe(f, 0.05, 40, seed)
        assert result.fraction == 1.0 and result.openness_checked == 400 and result.openness_violations == 0
        tables, balls = [], []
        for trial, r in enumerate(certified[0]):
            rng = np.random.default_rng((seed, trial))
            tables.append(f.table + rng.uniform(-0.05, 0.05, 4))
            cut = min(0.05 / 100, r) / (0.05 / 100)
            balls.append(tables[-1] + rng.uniform(-0.05 / 100, 0.05 / 100, (OPENNESS_SUBTRIALS, 4)) * cut)
        assert [t.tobytes() for t in solved] == [np.array(tables).tobytes(), np.concatenate(balls).tobytes()]

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_bound_the_stacked_matrices(self, monkeypatch, order, rows):
        # Each stacked solve holds at most ORACLE_BUFFER_FLOATS floats of
        # matrices; blocks of one row or a few rows give the loop's result.
        ring = TransitionMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        f = random_potential(ring, seed=5, scale=0.5, order=order)
        n = reduce_to_order2(f)[0].base.n_symbols
        shapes = []

        def spy(A):
            shapes.append(A.shape)
            return perron_stack(A)

        monkeypatch.setattr("markovspectra.thermo.ORACLE_BUFFER_FLOATS", rows * n * n)
        monkeypatch.setattr("markovspectra.thermo.perron_stack", spy)
        assert density_probe(f, 0.05, 7, 3) == reference_density_probe(f, 0.05, 7, 3)
        assert shapes and all(k <= rows and m == n for k, m, _ in shapes)

    @pytest.mark.parametrize(
        "base, matrix",
        [
            # exp(-460) off the diagonal: the closed form's b*c underflows to 0
            (full_shift(2), [[1.0, math.exp(-460.0)], [math.exp(-460.0), 1.0]]),
            # the dense dgeev vector has a zero entry
            (
                ring3(),
                [[0.0, math.exp(-400.0), math.exp(-400.0)], [math.exp(400.0), 0.0, math.exp(400.0)], [1.0, 1.0, 0.0]],
            ),
        ],
        ids=["closed-form", "dense"],
    )
    def test_a_refused_trial_table_raises_perron_error(self, base, matrix):
        f = Potential.from_matrix_log(base, matrix)
        with pytest.raises(NonConvergenceError) as single:
            perron(edge_matrix(f))
        with pytest.raises(NonConvergenceError) as probed:
            density_probe(f, 0.0, 3, 0)
        assert str(probed.value) == str(single.value)

    @pytest.mark.parametrize("trials, radius", [(-3, 1e-3), (5, -1e-3), (5, math.nan), (5, math.inf), (5, 1e308)])
    def test_invalid_arguments_refused(self, f_p1_third, trials, radius):
        with pytest.raises(ValueError, match="trials" if trials < 0 else "radius"):
            density_probe(f_p1_third, radius, trials, 0)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_negative_seed_refused_without_a_draw(self, f_p1_third, trials):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            density_probe(f_p1_third, 1e-3, trials, -1)

    def test_no_trials(self, f_p1_third):
        assert density_probe(f_p1_third, 1e-3, 0, 0) == DensityProbeResult(0.0, 0, 0, 0, 0)


def member_margins(f2, tables):
    """The matrices of a (k, E) stack of f2's tables, and each table's
    g_n_membership margin and the scale its gaps are divided by, as
    density_probe reads them from one stacked solve."""
    A, t = solve_tables(f2, tables)
    margin, scale, _ = rigidity._distinct_values(normalized_table(f2, t.left, tables))
    return A, margin, scale


@st.composite
def near_boundary_members(draw):
    """An order-2 potential on the set's boundary, 20 of its tables moved by
    up to 10^-7 to 10^-2 in each value, and a generator.  The potential is
    the log table of P1(a) on the full 2-shift plus a constant, or a table
    with planted ties on a random aperiodic base of 2-4 symbols."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        f = log_p1_potential(draw(st.floats(0.05, 0.95)))
        f = Potential(f.base, 2, f.words, f.table + draw(st.floats(-3.0, 3.0)))
    else:
        f = planted_ties(random_aperiodic_base(rng, draw(st.integers(2, 4))), seed)
    size = 10.0 ** draw(st.floats(-7.0, -2.0))
    return f, f.table + rng.uniform(-size, size, (20, f.table.size)), rng


class TestCertifiedBall:
    @settings(max_examples=60, deadline=10_000, derandomize=True, database=None)
    @given(near_boundary_members())
    def test_every_table_in_a_certified_ball_is_a_member(self, case):
        # balls at the full certified radius, at corners of the cube and
        # uniform inside it
        f2, tables, rng = case
        A, margin, scale = member_margins(f2, tables)
        members = margin > GAP_TOL
        radius = rigidity._certified_radius(f2, A[members], margin[members], scale[members])
        assert (radius > 0).all()
        shape = (members.sum(), 2 * OPENNESS_SUBTRIALS, f2.table.size)
        corner = np.arange(shape[1])[:, np.newaxis] % 2 == 1
        moves = np.where(corner, rng.choice([-1.0, 1.0], shape), rng.uniform(-1.0, 1.0, shape))
        balls = tables[members, np.newaxis] + moves * radius[:, np.newaxis, np.newaxis]
        _, margins, _ = member_margins(f2, balls.reshape(-1, f2.table.size))
        assert (margins > GAP_TOL).all()
