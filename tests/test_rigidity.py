import itertools
import math

import numpy as np
import pytest

from markovspectra import (
    Potential,
    admissible_words,
    appendix_condition_check,
    bernoulli_twin,
    classify_2x2,
    classify_general,
    density_probe,
    edge_matrix,
    g_n_membership,
    gibbs_markov,
    log_p1_potential,
    log_p2_potential,
    normalize_potential,
    out_degrees,
    spectra_equal,
)
from markovspectra.perron import perron
from conftest import random_potential, random_support_matrix


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
