import math

import numpy as np
import pytest

from markovspectra import (
    MarkovMeasure,
    BetaFunction,
    Potential,
    alpha_range,
    empirical_local_entropy,
    empirical_spectrum_histogram,
    entropy_rate,
    gibbs_markov,
    log_cylinder_measure,
    log_p1_potential,
    sample_path,
)
from markovspectra.sim import _log_masses, _trial_uniforms
from conftest import random_potential

PHI = (1 + 5**0.5) / 2


@pytest.fixture(scope="module")
def mu_third(f_p1_third):
    return gibbs_markov(f_p1_third)


@pytest.fixture(scope="module")
def mu_half(full2):
    return MarkovMeasure.from_stochastic(full2, [[0.5, 0.5], [0.5, 0.5]])


class TestSamplePath:
    def test_deterministic(self, f_p1_third, mu_third):
        a = sample_path(mu_third, 20, seed=42)
        b = sample_path(mu_third, 20, seed=42)
        assert a == b
        c = sample_path(mu_third, 20, seed=43)
        assert a.word != c.word

    def test_trials_independent_of_batching(self, mu_third):
        # trial k sampled alone equals trial k inside any larger batch
        singles = [sample_path(mu_third, 15, seed=7, trial=t).word for t in range(5)]
        again = [sample_path(mu_third, 15, seed=7, trial=t).word for t in range(5)]
        assert singles == again

    def test_log_measure_matches_recomputation(self, mu_third):
        for trial in range(10):
            s = sample_path(mu_third, 30, seed=3, trial=trial)
            assert s.log_measure == pytest.approx(
                log_cylinder_measure(mu_third, s.word), abs=1e-12
            )

    def test_word_admissible(self, golden):
        mu = gibbs_markov(Potential.constant(golden, 0.0))
        for trial in range(20):
            s = sample_path(mu, 50, seed=1, trial=trial)
            assert mu.base.admits(s.word)

    def test_fair_coin_frequency(self, mu_half):
        n = 10_000
        s = sample_path(mu_half, n, seed=0)
        freq = s.word.count(1) / n
        assert abs(freq - 0.5) <= 3 / (2 * math.sqrt(n))

    def test_uniform_measure_exact_exponent(self, mu_half):
        s = sample_path(mu_half, 500, seed=5)
        assert -s.log_measure / 500 == pytest.approx(math.log(2), abs=1e-12)

    def test_length_validation(self, mu_half):
        with pytest.raises(ValueError):
            sample_path(mu_half, 0, seed=0)


class TestEmpiricalLocalEntropy:
    def test_p1_third_matches_entropy_rate(self, mu_third):
        result = empirical_local_entropy(mu_third, n=10_000, trials=400, seed=0)
        h = entropy_rate(mu_third)
        assert h == pytest.approx(0.6365141682948129, abs=1e-12)
        assert abs(result.mean - h) <= 3 * result.std_error

    def test_uniform_degenerate(self, mu_half):
        result = empirical_local_entropy(mu_half, n=200, trials=150, seed=1)
        assert result.mean == pytest.approx(math.log(2), abs=1e-12)
        assert result.std_error == pytest.approx(0.0, abs=1e-14)

    def test_parry_measure_on_golden(self, golden):
        mu = gibbs_markov(Potential.constant(golden, 0.0))
        result = empirical_local_entropy(mu, n=10_000, trials=300, seed=2)
        # the exponent carries a deterministic O(1/n) boundary term, so the
        # CLT band is widened by the finite-size allowance
        assert abs(result.mean - math.log(PHI)) <= 3 * result.std_error + 5 / 10_000
        assert math.log(PHI) == pytest.approx(0.4812118250596035, abs=1e-12)

    def test_histogram_mass_and_mean(self, mu_third):
        result = empirical_local_entropy(mu_third, n=500, trials=300, seed=3, bins=40)
        assert result.counts.sum() == result.trials
        midpoints = (result.bin_edges[:-1] + result.bin_edges[1:]) / 2
        histogram_mean = float((midpoints * result.counts).sum() / result.trials)
        bucket = float(result.bin_edges[1] - result.bin_edges[0])
        assert abs(histogram_mean - result.mean) <= bucket

    def test_exponents_within_alpha_range(self, f_p1_third, mu_third):
        n = 400
        rng = alpha_range(f_p1_third)
        result = empirical_local_entropy(mu_third, n=n, trials=200, seed=4)
        assert result.bin_edges[0] >= rng.alpha_min - 5 / n
        assert result.bin_edges[-1] <= rng.alpha_max + 5 / n

    def test_trials_floor(self, mu_half):
        with pytest.raises(ValueError):
            empirical_local_entropy(mu_half, n=10, trials=99, seed=0)

    def test_deterministic(self, mu_third):
        a = empirical_local_entropy(mu_third, n=100, trials=120, seed=11)
        b = empirical_local_entropy(mu_third, n=100, trials=120, seed=11)
        assert a.mean == b.mean and a.std_error == b.std_error
        assert (a.counts == b.counts).all()


class TestEmpiricalSpectrumHistogram:
    def test_tilted_means_match_alpha(self, f_p1_third):
        rows = empirical_spectrum_histogram(
            f_p1_third, n=10_000, trials=300, q_list=[0.0, 1.0, 2.5], seed=0
        )
        bf = BetaFunction(f_p1_third)
        for row in rows:
            assert row.alpha == pytest.approx(bf.alpha(row.q), abs=1e-12)
            assert abs(row.mean - row.alpha) <= 3 * row.std_error

    def test_q_zero_closed_form(self, f_p1_third):
        (row,) = empirical_spectrum_histogram(
            f_p1_third, n=10_000, trials=300, q_list=[0.0], seed=1
        )
        assert row.alpha == pytest.approx(math.log(9 / 2) / 2, abs=1e-12)
        assert abs(row.mean - 0.7520386983881371) <= 3 * row.std_error

    def test_constant_potential_exact(self, full2):
        f = Potential.constant(full2, 0.4)
        rows = empirical_spectrum_histogram(
            f, n=200, trials=150, q_list=[-2.0, 0.0, 3.0], seed=2
        )
        for row in rows:
            assert row.mean == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_per_q_streams(self, f_p1_third):
        a = empirical_spectrum_histogram(f_p1_third, 100, 150, [0.0, 1.0], seed=9)
        b = empirical_spectrum_histogram(f_p1_third, 100, 150, [0.0, 1.0], seed=9)
        assert a == b


def reference_log_masses(sampler, evaluator, n, trials, seed, key=()):
    """The (trials, n) column-by-column sampler with a full cumulative-sum
    compare for every alphabet size."""
    cum_pi = np.cumsum(sampler.pi)
    cum_P = np.cumsum(sampler.P, axis=1)
    with np.errstate(divide="ignore"):
        log_pi_eval = np.log(evaluator.pi)
        log_P_eval = np.log(evaluator.P)
    U = np.stack([_trial_uniforms(seed, key, t, n) for t in trials])
    state = (U[:, 0][:, None] >= cum_pi[None, :]).sum(axis=1)
    log_mass = log_pi_eval[state]
    words = np.empty((len(trials), n), dtype=np.int64)
    words[:, 0] = state + 1
    for k in range(1, n):
        nxt = (U[:, k][:, None] >= cum_P[state]).sum(axis=1)
        log_mass = log_mass + log_P_eval[state, nxt]
        state = nxt
        words[:, k] = state + 1
    return log_mass, words


class TestLogMassesOracle:
    @pytest.mark.parametrize("support", ["full2", "golden", "ring"])
    def test_identical_to_column_loop(self, request, support):
        f = random_potential(request.getfixturevalue(support), seed=4, scale=1.0)
        mu, tilted = gibbs_markov(f), gibbs_markov(f.scale(-1.5))
        for sampler, evaluator in ((mu, mu), (tilted, mu)):
            got = _log_masses(sampler, evaluator, 300, range(5, 80), seed=6, key=(2,), return_words=True)
            want = reference_log_masses(sampler, evaluator, 300, range(5, 80), seed=6, key=(2,))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
