import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovspectra.sim as sim
from markovspectra import (
    MarkovMeasure,
    BetaFunction,
    Potential,
    TransitionMatrix,
    alpha_range,
    empirical_local_entropy,
    empirical_spectrum_histogram,
    entropy_rate,
    gibbs_markov,
    log_cylinder_measure,
    log_p1_potential,
    sample_path,
)
from markovspectra.sim import _log_masses, _pcg64_seeds, _trial_uniforms, trial_draws
from conftest import random_potential

PHI = (1 + 5**0.5) / 2


@pytest.fixture(scope="module")
def mu_third(f_p1_third):
    return gibbs_markov(f_p1_third)


@pytest.fixture(scope="module")
def mu_half(full2):
    return MarkovMeasure.from_stochastic(full2, [[0.5, 0.5], [0.5, 0.5]])


@pytest.fixture(scope="module")
def four():
    """A 4-state aperiodic support with forbidden transitions."""
    return TransitionMatrix.from_entries([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 0, 1]])


class TestSamplePath:
    def test_deterministic(self, f_p1_third, mu_third):
        a = sample_path(mu_third, 20, seed=42)
        b = sample_path(mu_third, 20, seed=42)
        assert a == b
        c = sample_path(mu_third, 20, seed=43)
        assert a.word != c.word

    def test_trials_independent_of_batching(self, mu_third):
        # trial k sampled alone equals trial k inside any larger batch
        singles = [sample_path(mu_third, 15, seed=7, trial=t) for t in range(5)]
        log_mass, words = _log_masses(mu_third, mu_third, 15, range(5), seed=7, return_words=True)
        assert [s.word for s in singles] == [tuple(w) for w in words.tolist()]
        assert [s.log_measure for s in singles] == log_mass.tolist()

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
        result = empirical_local_entropy(mu_third, n=500, trials=300, seed=3)
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

    def test_path_length_floor(self, mu_half):
        with pytest.raises(ValueError, match="path length must be at least 1"):
            empirical_local_entropy(mu_half, n=0, trials=100, seed=0)

    def test_histogram_is_numpys_own(self, mu_third):
        result = empirical_local_entropy(mu_third, n=100, trials=120, seed=11)
        counts, edges = np.histogram(-_log_masses(mu_third, mu_third, 100, range(120), 11)[0] / 100, bins=50)
        assert result.bin_edges.tobytes() == edges.tobytes() and result.counts.tolist() == counts.tolist()

    def test_deterministic(self, mu_third):
        a = empirical_local_entropy(mu_third, n=100, trials=120, seed=11)
        b = empirical_local_entropy(mu_third, n=100, trials=120, seed=11)
        assert a.mean == b.mean and a.std_error == b.std_error
        assert (a.counts == b.counts).all()


class TestEmpiricalSpectrumHistogram:
    def test_path_length_floor(self, f_p1_third):
        with pytest.raises(ValueError, match="path length must be at least 1"):
            empirical_spectrum_histogram(f_p1_third, n=0, trials=10, q_list=[1.0], seed=0)

    @pytest.mark.parametrize("trials", [1, 0])
    def test_trials_floor(self, f_p1_third, trials):
        # one trial has no standard error (NaN), none has no mean
        with pytest.raises(ValueError, match="at least 2 trials"):
            empirical_spectrum_histogram(f_p1_third, n=10, trials=trials, q_list=[1.0], seed=0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_q_refused_before_any_solve(self, f_p1_third, monkeypatch, q):
        # it raised PotentialRangeError, the numerical-failure class
        import markovspectra.thermo as thermo

        monkeypatch.setattr(thermo, "perron", lambda A: pytest.fail("solved before q was checked"))
        with pytest.raises(ValueError, match=f"q must be finite, got {q!r}"):
            empirical_spectrum_histogram(f_p1_third, n=10, trials=10, q_list=[0.0, q], seed=0)

    def test_negative_seed_refused_without_a_draw(self, f_p1_third):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            empirical_spectrum_histogram(f_p1_third, n=10, trials=10, q_list=[], seed=-1)

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

    def test_one_solve_per_distinct_q(self, ring, monkeypatch):
        import markovspectra.thermo as thermo

        solves, solve = [], thermo.perron
        monkeypatch.setattr(thermo, "perron", lambda A: solves.append(A) or solve(A))
        empirical_spectrum_histogram(random_potential(ring, seed=2), 10, 10, [0.0, 1.0, 2.0], seed=0)
        assert len(solves) == 3

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
    @pytest.mark.parametrize("support", ["full2", "golden", "ring", "four"])
    def test_identical_to_column_loop(self, request, support):
        f = random_potential(request.getfixturevalue(support), seed=4, scale=1.0)
        mu, tilted = gibbs_markov(f), gibbs_markov(f.scale(-1.5))
        for sampler, evaluator in ((mu, mu), (tilted, mu)):
            got = _log_masses(sampler, evaluator, 300, range(5, 80), seed=6, key=(2,), return_words=True)
            want = reference_log_masses(sampler, evaluator, 300, range(5, 80), seed=6, key=(2,))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestBatchingIndependence:
    """CHUNK (trials per batch) and BLOCK (steps per block) bound memory
    only: any values give the same bits, and a trial sampled alone equals
    its row in a batch."""

    @staticmethod
    def outputs(f, n):
        mu = gibbs_markov(f)
        local = empirical_local_entropy(mu, n, 100, seed=5)
        return (
            (local.mean, local.std_error, local.bin_edges.tobytes(), local.counts.tobytes()),
            empirical_spectrum_histogram(f, n, 23, [-1.0, 0.0, 1.5], seed=6),
            [sample_path(mu, n, seed=7, trial=t) for t in (0, 8, 99)],
        )

    @pytest.mark.parametrize("n", [1, 3, 11, 300])
    @pytest.mark.parametrize("support", ["full2", "ring", "four"])
    def test_small_chunks_and_blocks(self, request, monkeypatch, support, n):
        f = random_potential(request.getfixturevalue(support), seed=3, scale=1.0)
        want = self.outputs(f, n)
        monkeypatch.setattr(sim, "CHUNK", 7)
        monkeypatch.setattr(sim, "BLOCK", 3)
        assert self.outputs(f, n) == want

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("support", ["full2", "ring", "four"])
    def test_single_trial_equals_its_batch_row(self, request, support, n):
        mu = gibbs_markov(random_potential(request.getfixturevalue(support), seed=3, scale=1.0))
        log_mass, words = _log_masses(mu, mu, n, range(4, 30), seed=7, return_words=True)
        for row, t in enumerate(range(4, 30)):
            alone = sample_path(mu, n, seed=7, trial=t)
            assert alone.log_measure == log_mass[row]
            assert alone.word == tuple(words[row].tolist())


@st.composite
def trial_ranges(draw):
    """Short trial ranges near 0, 2**32 and 2**64, where the trial's entropy
    grows by a word."""
    start = max(0, draw(st.sampled_from([0, 2**32, 2**64])) + draw(st.integers(-5, 40)))
    return range(start, start + draw(st.integers(0, 8)))


class TestTrialStreams:
    @settings(max_examples=80, deadline=10_000, derandomize=True, database=None)
    @given(
        st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**200)),
        st.lists(st.one_of(st.integers(0, 7), st.integers(0, 2**100)), max_size=2).map(tuple),
        trial_ranges(),
        st.integers(1, 20),
    )
    def test_streams_equal_default_rng(self, seed, key, trials, n):
        out = np.empty((len(trials), n))
        trial_draws(out, seed, key, trials)
        assert [row.tobytes() for row in out] == [_trial_uniforms(seed, key, t, n).tobytes() for t in trials]

    @settings(max_examples=60, deadline=10_000, derandomize=True, database=None)
    @given(st.integers(1, 9), st.integers(0, 300), st.integers(0, 2**32 - 1))
    def test_lane_stacked_seeds_equal_seed_sequence(self, words, lanes, seed):
        # 5-9 words reach past SeedSequence's 4-word pool; the extreme words
        # 0 and 2**32 - 1 are mixed into random ones
        rng = np.random.default_rng(seed)
        entropy = rng.integers(0, 2**32, (words, lanes), dtype=np.uint64)
        entropy[rng.random((words, lanes)) < 0.2] = 0
        entropy[rng.random((words, lanes)) < 0.2] = 2**32 - 1
        got = _pcg64_seeds(entropy.astype(np.uint32))
        assert got.dtype == np.uint64 and got.shape == (4, lanes)
        for lane, column in zip(got.T, entropy.T.tolist()):
            assert lane.tolist() == np.random.SeedSequence(column).generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize("seed, key, trial", [(-1, (), 0), (0, (-3,), 1), (0, (), -2), (2**64, (2,), -1)])
    def test_negative_entropy_refused_as_by_default_rng(self, seed, key, trial):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng((seed, *key, trial))
        with pytest.raises(ValueError, match="non-negative"):
            trial_draws(np.empty((2, 1)), seed, key, range(trial, trial + 2))

    def test_negative_seed_or_trial_refused_by_sample_path(self, mu_half):
        for seed, trial in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="non-negative"):
                sample_path(mu_half, 5, seed=seed, trial=trial)
