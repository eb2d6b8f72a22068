import math

import numpy as np
import pytest

from markovspectra import (
    BetaFunction,
    cycle_mean_extremes,
    perron_vector_by_linear_solve,
    stationary_distribution,
)
from markovspectra.perron import perron
from markovspectra.errors import NonConvergenceError, SingularSystemError, StochasticityError
from conftest import random_potential, random_support_matrix

PHI = (1 + 5**0.5) / 2


class TestPerron:
    def test_package_attribute_is_the_submodule(self):
        import markovspectra.perron as m

        assert callable(m.perron)
        assert m.perron is perron

    def test_p1_third(self, full2):
        t = perron(np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]]))
        assert t.root == pytest.approx(1.0, abs=1e-13)
        assert t.right == pytest.approx([0.5, 0.5], abs=1e-12)
        assert t.left == pytest.approx([4 / 3, 2 / 3], abs=1e-12)

    def test_golden_root(self, golden):
        t = perron(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert t.root == pytest.approx(PHI, abs=1e-13)
        # v proportional to (phi, 1)
        assert t.right[0] / t.right[1] == pytest.approx(PHI, abs=1e-12)

    def test_normalization(self, ring):
        t = perron(np.where(ring.entries == 1, 0.7, 0.0))
        assert t.right.sum() == pytest.approx(1.0, abs=1e-14)
        assert float(t.left @ t.right) == pytest.approx(1.0, abs=1e-14)

    def test_residual_reported_small(self, full2):
        t = perron(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert t.residual <= 1e-12 * t.root

    @pytest.mark.parametrize("seed", range(100))
    def test_random_matrices_match_linear_solve(self, seed):
        n = 2 + seed % 5
        _, entries = random_support_matrix(n, seed)
        t = perron(entries)
        lam_np = max(abs(np.linalg.eigvals(entries)))
        assert t.root == pytest.approx(lam_np, rel=1e-10)
        v = perron_vector_by_linear_solve(entries, t.root)
        assert v == pytest.approx(t.right, rel=1e-9, abs=1e-12)

    def test_power_identity(self):
        _, entries = random_support_matrix(4, 7)
        lam = perron(entries).root
        for k in (2, 3):
            Mk = np.linalg.matrix_power(entries, k)
            assert perron(Mk).root == pytest.approx(lam**k, rel=1e-11)

    def test_badly_scaled_matrix(self, full2):
        # Entries spanning ~35 orders of magnitude: balancing keeps the
        # stopping rule meaningful.
        entries = np.array([[1e-18, 1.0], [1.0, 1e17]])
        t = perron(entries)
        lam_np = max(abs(np.linalg.eigvals(entries)))
        assert t.root == pytest.approx(lam_np, rel=1e-12)

    def test_iterations_tell_closed_form_from_dense_solve(self, full2, ring):
        assert perron(np.array([[1.0, 2.0], [3.0, 4.0]])).iterations == 0
        assert perron(np.where(ring.entries == 1, 0.7, 0.0)).iterations == 1

    def test_small_entries_accurate_to_their_own_size(self, full2):
        # Order-5 recoding tilted to q = -9.5: the Perron vectors span ten
        # decades and dgeev alone leaves defects near 1e-6 in the small entries.
        M = BetaFunction(random_potential(full2, seed=5, scale=0.5, order=5)).matrix(-9.5)
        t = perron(M)
        assert t.right.min() / t.right.max() < 1e-8
        assert np.abs(M @ t.right / (t.root * t.right) - 1).max() <= 1e-12
        assert np.abs(t.left @ M / (t.root * t.left) - 1).max() <= 1e-12

    def test_underflowing_perron_vector_rejected(self):
        # 1 -> 2 -> 3 -> 1 with two weights of 1e-200: the right vector's
        # second entry is ~1e-400, below the smallest double.
        M = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1e-200], [1e-200, 0.0, 0.0]])
        with pytest.raises(NonConvergenceError):
            perron(M)


class TestLinearSolve:
    def test_stochastic_matrix_root_one(self, full2):
        v = perron_vector_by_linear_solve([[0.3, 0.7], [0.6, 0.4]], 1.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-14)
        assert (v > 0).all()

    def test_wrong_eigenvalue_rejected(self):
        with pytest.raises(SingularSystemError):
            perron_vector_by_linear_solve([[2.0, 1.0], [1.0, 2.0]], 5.0)


class TestStationaryDistribution:
    def test_p1_stationary(self, full2):
        P = np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]])
        assert stationary_distribution(P) == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_p2_stationary_uniform(self, full2):
        P = np.array([[0.7, 0.3], [0.3, 0.7]])
        assert stationary_distribution(P) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_non_stochastic_rejected(self, full2):
        with pytest.raises(StochasticityError):
            stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_matches_perron_product(self, ring):
        _, entries = random_support_matrix(3, 42)
        t = perron(entries)
        P = entries * t.right[np.newaxis, :] / (t.root * t.right[:, np.newaxis])
        pi = stationary_distribution(P)
        assert pi == pytest.approx(t.left * t.right, abs=1e-11)


class TestCycleMeanExtremes:
    def test_full_shift(self, full2):
        W = np.log(np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]]))
        ext = cycle_mean_extremes(full2, W)
        assert ext.min_mean == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert ext.max_mean == pytest.approx(math.log(2 / 3), abs=1e-12)
        assert ext.min_cycle == (2,) and ext.max_cycle == (1,)

    def test_golden_mean(self, golden):
        W = np.array([[0.0, 1.0], [-2.0, 0.0]])
        ext = cycle_mean_extremes(golden, W)
        assert ext.min_mean == pytest.approx(-0.5)
        assert ext.max_mean == pytest.approx(0.0)
        assert sorted(ext.min_cycle) == [1, 2]

    def test_negation_symmetry(self):
        for seed in range(20):
            base, entries = random_support_matrix(4, 1000 + seed)
            W = np.log(np.where(entries > 0, entries, 1.0))
            a = cycle_mean_extremes(base, W)
            b = cycle_mean_extremes(base, -W)
            assert a.min_mean == pytest.approx(-b.max_mean, abs=1e-12)
            assert a.max_mean == pytest.approx(-b.min_mean, abs=1e-12)

    def test_witness_cycles_realize_means(self):
        base, entries = random_support_matrix(5, 99)
        W = np.log(np.where(entries > 0, entries, 1.0))
        ext = cycle_mean_extremes(base, W)
        for cyc, mean in ((ext.min_cycle, ext.min_mean), (ext.max_cycle, ext.max_mean)):
            total = sum(
                W[cyc[i] - 1, cyc[(i + 1) % len(cyc)] - 1] for i in range(len(cyc))
            )
            assert total / len(cyc) == pytest.approx(mean, abs=1e-12)
            assert all(
                base.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
            )
