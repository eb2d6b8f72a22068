import math

import numpy as np
import pytest

from markovspectra import (
    GibbsAudit,
    MarkovMeasure,
    Potential,
    birkhoff_sum,
    cylinder_measure,
    edge_matrix,
    full_shift,
    eigen_measure_cylinder,
    entropy_rate,
    gibbs_constant_audit,
    gibbs_markov,
    jacobian,
    log_cylinder_measure,
    normalize_potential,
    potential_integral,
    pressure,
    pressure_by_preimages,
    reduce_to_order2,
    word_count,
)
from markovspectra.errors import EnumerationCapError, WordLengthError
from markovspectra.thermo import _reduced_triple
from conftest import random_potential

PHI = (1 + 5**0.5) / 2


class TestPotential:
    def test_total_table_required(self, golden):
        with pytest.raises(ValueError, match="total"):
            Potential.from_table(golden, 2, {(1, 1): 0.0, (1, 2): 0.0})

    def test_inadmissible_key_rejected(self, golden):
        with pytest.raises(ValueError):
            Potential.from_table(
                golden, 2, {(1, 1): 0.0, (1, 2): 0.0, (2, 1): 0.0, (2, 2): 0.0}
            )

    def test_non_finite_rejected(self, full2):
        with pytest.raises(ValueError, match="finite"):
            Potential.from_table(
                full2, 2, {(1, 1): 0.0, (1, 2): np.inf, (2, 1): 0.0, (2, 2): 0.0}
            )

    def test_call_and_scale_shift(self, f_p1_third):
        assert f_p1_third((1, 2)) == pytest.approx(math.log(1 / 3))
        assert f_p1_third.scale(2.0)((1, 2)) == pytest.approx(2 * math.log(1 / 3))
        assert f_p1_third.shift(1.0)((1, 2)) == pytest.approx(math.log(1 / 3) + 1.0)


class TestReduceToOrder2:
    def test_order2_identity(self, f_p1_third):
        f2, rec = reduce_to_order2(f_p1_third)
        assert f2 is f_p1_third and rec is None

    def test_order1_lift(self, golden):
        f = Potential.from_table(golden, 1, {(1,): 0.5, (2,): -0.3})
        f2, rec = reduce_to_order2(f)
        assert rec is None
        assert f2.values == {(1, 1): 0.5, (1, 2): 0.5, (2, 1): -0.3}

    def test_order3_recoding_preserves_pressure(self, golden):
        f3 = random_potential(golden, seed=5, scale=0.5, order=3)
        f2, rec = reduce_to_order2(f3)
        assert rec is not None
        # the recoded potential evaluates identically on translated words
        for (s, t), v in f2.values.items():
            assert v == f3.values[rec.edge_word(s, t)]

    def test_order1_pressure(self, full2):
        f = Potential.from_table(full2, 1, {(1,): 0.0, (2,): 0.0})
        assert pressure(f) == pytest.approx(math.log(2), abs=1e-13)


class TestPressure:
    def test_p1_third_zero(self, f_p1_third):
        assert pressure(f_p1_third) == pytest.approx(0.0, abs=1e-13)

    def test_p2_third_zero(self, f_p2_third):
        assert pressure(f_p2_third) == pytest.approx(0.0, abs=1e-13)

    def test_golden_zero_potential(self, golden):
        f = Potential.constant(golden, 0.0)
        assert pressure(f) == pytest.approx(math.log(PHI), abs=1e-13)

    def test_full_shift_topological_entropy(self, full2):
        assert pressure(Potential.constant(full2, 0.0)) == pytest.approx(
            math.log(2), abs=1e-13
        )

    def test_constant_shift(self, test_potentials):
        for f in test_potentials:
            p = pressure(f)
            for c in (-1.3, 0.6):
                assert pressure(f.shift(c)) == pytest.approx(p + c, abs=1e-11)

    def test_order3_recoding_invariance(self, golden):
        # a 3-locally constant function that only depends on the first two
        # symbols must have the pressure of its order-2 version
        f2 = random_potential(golden, seed=21, scale=0.4)
        from markovspectra import admissible_words

        table = {w: f2.values[w[:2]] for w in admissible_words(golden, 3)}
        f3 = Potential.from_table(golden, 3, table)
        assert pressure(f3) == pytest.approx(pressure(f2), abs=1e-12)


class TestPressureByPreimages:
    def test_p1_third_exact(self, f_p1_third):
        for symbol in (1, 2):
            assert pressure_by_preimages(f_p1_third, symbol, 40) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_golden_converges_to_log_phi(self, golden):
        f = Potential.constant(golden, 0.0)
        for symbol in (1, 2):
            est = pressure_by_preimages(f, symbol, 60)
            assert est == pytest.approx(math.log(PHI), abs=1e-8)

    def test_terminal_symbol_independence(self, ring):
        f = random_potential(ring, seed=3, scale=0.25)
        p = pressure(f)
        for symbol in (1, 2, 3):
            assert pressure_by_preimages(f, symbol, 60) == pytest.approx(p, abs=1e-8)

    def test_depth_validation(self, f_p1_third):
        with pytest.raises(ValueError):
            pressure_by_preimages(f_p1_third, 1, 1)
        with pytest.raises(ValueError):
            pressure_by_preimages(f_p1_third, 3, 10)


class TestGibbsMarkov:
    def test_p1_third(self, f_p1_third):
        mu = gibbs_markov(f_p1_third)
        assert mu.P == pytest.approx(
            np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]]), abs=1e-13
        )
        assert mu.pi == pytest.approx([2 / 3, 1 / 3], abs=1e-13)

    def test_rows_stochastic_and_stationary(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            assert mu.P.sum(axis=1) == pytest.approx(
                np.ones(mu.base.n_symbols), abs=1e-13
            )
            assert mu.pi @ mu.P == pytest.approx(mu.pi, abs=1e-12)
            assert mu.pi.sum() == pytest.approx(1.0, abs=1e-13)

    def test_invariant_under_constant_shift(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            nu = gibbs_markov(f.shift(0.9))
            assert nu.P == pytest.approx(mu.P, abs=1e-12)
            assert nu.pi == pytest.approx(mu.pi, abs=1e-12)


class TestCylinderMeasure:
    def test_values(self, f_p1_third):
        mu = gibbs_markov(f_p1_third)
        assert cylinder_measure(mu, (1,)) == pytest.approx(2 / 3, abs=1e-13)
        assert cylinder_measure(mu, (1, 2)) == pytest.approx(2 / 9, abs=1e-13)
        assert cylinder_measure(mu, ()) == 1.0

    def test_inadmissible_zero(self, golden):
        mu = gibbs_markov(Potential.constant(golden, 0.0))
        assert cylinder_measure(mu, (2, 2)) == 0.0
        assert log_cylinder_measure(mu, (2, 2)) == -np.inf

    def test_additivity(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            from markovspectra import admissible_words

            for n in range(1, 9):
                words = admissible_words(mu.base, n)
                total = sum(cylinder_measure(mu, w) for w in words)
                assert total == pytest.approx(1.0, abs=1e-12)
                for w in admissible_words(mu.base, n - 1) if n > 1 else [()]:
                    children = [u for u in words if u[:-1] == w]
                    mass = sum(cylinder_measure(mu, u) for u in children)
                    assert mass == pytest.approx(cylinder_measure(mu, w), abs=1e-12)

    def test_long_word_log_space(self, f_p1_third):
        mu = gibbs_markov(f_p1_third)
        # alternating word 1212...: 100 edges into state 2, 99 edges into state 1
        w = tuple(1 + (k % 2) for k in range(200))
        expected = math.log(mu.pi[0]) + 100 * math.log(1 / 3) + 99 * math.log(2 / 3)
        assert log_cylinder_measure(mu, w) == pytest.approx(expected, abs=1e-9)
        assert cylinder_measure(mu, w) == pytest.approx(
            math.exp(log_cylinder_measure(mu, w)), rel=1e-12
        )


class TestBirkhoffSum:
    def test_order2(self, f_p1_third):
        w = (1, 2, 1, 1)
        expected = math.log(1 / 3) + math.log(2 / 3) + math.log(2 / 3)
        assert birkhoff_sum(f_p1_third, w, 3) == pytest.approx(expected)

    def test_length_check(self, f_p1_third):
        with pytest.raises(WordLengthError):
            birkhoff_sum(f_p1_third, (1, 2), 2)


class TestNormalizePotential:
    def test_p1_third_values(self, f_p1_third):
        fhat = normalize_potential(f_p1_third)
        assert fhat.values[(1, 1)] == pytest.approx(math.log(2 / 3), abs=1e-13)
        assert fhat.values[(1, 2)] == pytest.approx(math.log(2 / 3), abs=1e-13)
        assert fhat.values[(2, 1)] == pytest.approx(math.log(1 / 3), abs=1e-13)
        assert fhat.values[(2, 2)] == pytest.approx(math.log(1 / 3), abs=1e-13)

    def test_transfer_identity(self, test_potentials):
        for f in test_potentials:
            fhat = normalize_potential(f)
            lam = math.exp(pressure(f))
            for j in range(1, fhat.base.n_symbols + 1):
                col = sum(
                    math.exp(v) for (a, b), v in fhat.values.items() if b == j
                )
                assert col == pytest.approx(lam, abs=1e-10)

    def test_idempotent_after_pressure_removal(self, test_potentials):
        # normalizing fhat - P(f) is a fixed point of the normalization
        for f in test_potentials:
            fhat = normalize_potential(f).shift(-pressure(f))
            again = normalize_potential(fhat)
            for w, v in fhat.values.items():
                assert again.values[w] == pytest.approx(v, abs=1e-9)

    def test_same_gibbs_measure(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            nu = gibbs_markov(normalize_potential(f))
            assert nu.P == pytest.approx(mu.P, abs=1e-11)
            assert nu.pi == pytest.approx(mu.pi, abs=1e-11)


class TestJacobians:
    def test_gibbs_jacobian_sums_to_one_over_preimages(self, f_p1_third):
        for j in (1, 2):
            total = sum(
                jacobian(f_p1_third, (i, j), kind="gibbs")
                for i in (1, 2)
                if f_p1_third.base.has_edge(i, j)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_eigen_jacobian(self, f_p1_third):
        assert jacobian(f_p1_third, (1, 2), kind="eigen") == pytest.approx(
            1 / 3, abs=1e-13
        )

    def test_word_length(self, f_p1_third):
        with pytest.raises(WordLengthError):
            jacobian(f_p1_third, (1,))


class TestEigenMeasure:
    def test_p1_third_cylinders(self, f_p1_third):
        # nu([w]) = mu([w]) / u_{w0} with u = (4/3, 2/3)
        assert eigen_measure_cylinder(f_p1_third, (1,)) == pytest.approx(
            (2 / 3) / (4 / 3), abs=1e-12
        )
        assert eigen_measure_cylinder(f_p1_third, (2,)) == pytest.approx(
            (1 / 3) / (2 / 3), abs=1e-12
        )
        assert eigen_measure_cylinder(f_p1_third, ()) == 1.0

    def test_conformality(self, test_potentials):
        # nu([iw]) = lambda^-1 exp(f(iw)) nu([w]) for 2-locally constant f
        for f in test_potentials:
            from markovspectra import reduce_to_order2

            f2, _ = reduce_to_order2(f)
            lam = math.exp(pressure(f2))
            from markovspectra import admissible_words

            for w in admissible_words(f2.base, 3):
                lhs = eigen_measure_cylinder(f2, w)
                rhs = (
                    math.exp(f2.values[w[:2]])
                    / lam
                    * eigen_measure_cylinder(f2, w[1:])
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEntropyAndIntegral:
    def test_bernoulli_third_entropy(self, f_p1_third):
        H = math.log(3) - (2 / 3) * math.log(2)
        assert entropy_rate(gibbs_markov(f_p1_third)) == pytest.approx(H, abs=1e-12)

    def test_variational_identity(self, test_potentials):
        # P(f) = h(mu_f) + integral of f for the Gibbs measure
        for f in test_potentials:
            from markovspectra import reduce_to_order2

            f2, _ = reduce_to_order2(f)
            mu = gibbs_markov(f2)
            assert entropy_rate(mu) + potential_integral(mu, f2) == pytest.approx(
                pressure(f2), abs=1e-11
            )

    def test_uniform_measure_entropy(self, full2):
        mu = MarkovMeasure.from_stochastic(full2, [[0.5, 0.5], [0.5, 0.5]])
        assert entropy_rate(mu) == pytest.approx(math.log(2), abs=1e-14)


class TestMarkovMeasure:
    @pytest.mark.parametrize(
        "matrix,needle",
        [
            (np.full((3, 3), 1 / 3), "shape"),
            ([[1.0, 0.0], [1.0, 0.0]], "support"),
            ([[0.5, 0.5], [0.5, 0.5]], "support"),
        ],
        ids=["shape", "zero-on-support", "positive-off-support"],
    )
    def test_from_stochastic_checks_the_support(self, golden, matrix, needle):
        with pytest.raises(ValueError, match=needle):
            MarkovMeasure.from_stochastic(golden, matrix)


class TestGibbsAudit:
    def test_p1_third_constant_two(self, f_p1_third):
        audit = gibbs_constant_audit(f_p1_third, depth=12)
        assert audit.constant == pytest.approx(2.0, abs=1e-12)
        assert audit.observed_min == pytest.approx(0.5, abs=1e-12)
        assert audit.observed_max == pytest.approx(2.0, abs=1e-12)
        assert audit.within_bounds

    def test_random_potentials_within_bounds(self, test_potentials):
        for f in test_potentials:
            audit = gibbs_constant_audit(f, depth=10)
            assert audit.within_bounds
            assert audit.theoretical_min - 1e-12 <= audit.observed_min
            assert audit.observed_max <= audit.theoretical_max + 1e-12

    def test_normalized_zero_pressure_audit(self, f_p2_third):
        fhat = normalize_potential(f_p2_third).shift(-pressure(f_p2_third))
        audit = gibbs_constant_audit(fhat, depth=8)
        assert audit.pressure == pytest.approx(0.0, abs=1e-12)
        assert audit.within_bounds


def reference_gibbs_audit(f, depth):
    """The per-word audit: one log_cylinder_measure and one birkhoff_sum
    call per cylinder, over words grown as tuples."""
    f2, triple = _reduced_triple(f)
    mu = gibbs_markov(f2)
    P_press = math.log(triple.root)
    A = edge_matrix(f2)
    pi, v = mu.pi, triple.right
    n = f2.base.n_symbols

    reach = np.eye(n, dtype=bool)
    attain = reach.copy()
    for _ in range(depth - 1):
        reach = reach.astype(np.int64) @ f2.base.entries > 0
        attain |= reach
    theo_values = [
        pi[i] / v[i] * v[j] * triple.root / A[j, k]
        for i in range(n)
        for j in range(n)
        if attain[i, j]
        for k in range(n)
        if A[j, k] > 0
    ]
    theo_min, theo_max = float(min(theo_values)), float(max(theo_values))
    constant = max(theo_max, 1.0 / theo_min)

    observed_min, observed_max = np.inf, -np.inf
    words = [(i,) for i in range(1, n + 1)]
    for m in range(1, depth + 1):
        words = [w + (j,) for w in words for j in range(1, n + 1) if f2.base.has_edge(w[-1], j)]
        for w in words:
            log_ratio = (
                log_cylinder_measure(mu, w[:m]) + m * P_press - birkhoff_sum(f2, w, m)
            )
            ratio = math.exp(log_ratio)
            observed_min = min(observed_min, ratio)
            observed_max = max(observed_max, ratio)

    slack = 1e-10 * max(1.0, constant)
    within = bool(
        1.0 / constant - slack <= observed_min and observed_max <= constant + slack
    )
    return GibbsAudit(
        P_press, constant, float(observed_min), float(observed_max), theo_min, theo_max, depth, within
    )


class TestGibbsAuditOracle:
    """The array audit must reproduce the per-word audit bit for bit."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("support", ["full2", "full3", "golden", "ring"])
    def test_identical_to_per_word_audit(self, request, support, order):
        base = full_shift(3) if support == "full3" else request.getfixturevalue(support)
        # the per-word reference needs ~5 s for one depth-10 audit on the full
        # 3-shift (265k cylinders; 800k at order 3), so that support stops at 8
        depths = range(1, 9) if support == "full3" else range(1, 11)
        for depth in depths:
            f = random_potential(base, seed=100 * order + depth, scale=1.0, order=order)
            assert gibbs_constant_audit(f, depth=depth) == reference_gibbs_audit(f, depth)

    def test_cap_checked_before_enumeration(self, full2, monkeypatch):
        f = Potential.constant(full2, 0.0)
        total = sum(word_count(full2, m + 1) for m in range(1, 11))

        def no_enumeration(*args):
            raise AssertionError("enumeration started past the cap")

        monkeypatch.setattr("markovspectra.thermo.gibbs_markov", no_enumeration)
        with pytest.raises(EnumerationCapError, match=f"{total} cylinders"):
            gibbs_constant_audit(f, depth=10, cap=total - 1)
