import math

import numpy as np
import pytest

from markovspectra import (
    BetaFunction,
    Potential,
    alpha_range,
    entropy_rate,
    entropy_spectrum,
    gibbs_markov,
    log_p1_potential,
    pressure,
    sample_spectrum,
    spectra_equal,
)
from markovspectra import spectrum
from markovspectra.errors import PotentialRangeError
from markovspectra.spectrum import (
    FLAG_DEGENERATE,
    FLAG_ENDPOINT,
    FLAG_INTERIOR,
    FLAG_OUTSIDE,
    SpectrumValue,
)
from conftest import random_potential


def closed_beta(q):
    """beta(q) for log P1(1/3): pressure of q*f with P(f) = 0."""
    return math.log((2 / 3) ** q + (1 / 3) ** q)


class TestBeta:
    def test_closed_form(self, f_p1_third):
        bf = BetaFunction(f_p1_third)
        for q in (-5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 7.5):
            assert bf.beta(q) == pytest.approx(closed_beta(q), abs=1e-12)

    def test_beta_two(self, f_p1_third):
        assert BetaFunction(f_p1_third).beta(2.0) == pytest.approx(math.log(5 / 9), abs=1e-12)

    @pytest.mark.parametrize("q", [-10.0, 10.0])
    def test_tilt_out_of_range_raises(self, full2, q):
        # exp(100)**q underflows to 0 at q = -10 and overflows at q = 10
        f = Potential.from_table(full2, 1, {(1,): 100.0, (2,): 0.5})
        with pytest.raises(PotentialRangeError):
            BetaFunction(f).beta(q)

    def test_anchor_values(self, test_potentials):
        for f in test_potentials:
            bf = BetaFunction(f)
            assert bf.beta(1.0) == pytest.approx(0.0, abs=1e-12)
            h_top = pressure(Potential.constant(bf.f2.base, 0.0))
            assert bf.beta(0.0) == pytest.approx(h_top, abs=1e-12)

    def test_convex_and_decreasing(self, test_potentials):
        grid = np.linspace(-8.0, 8.0, 33)
        for f in test_potentials:
            bf = BetaFunction(f)
            vals = [bf.beta(q) for q in grid]
            diffs = np.diff(vals)
            assert (np.diff(diffs) >= -1e-9).all()  # convexity
            degenerate = alpha_range(bf).degenerate
            if not degenerate:
                assert (diffs < 0).all()  # strictly decreasing slope... values

    def test_recoding_invariance(self, golden):
        from markovspectra import admissible_words

        f2 = random_potential(golden, seed=31, scale=0.4)
        table = {w: f2.values[w[:2]] for w in admissible_words(golden, 3)}
        f3 = Potential.from_table(golden, 3, table)
        b2, b3 = BetaFunction(f2), BetaFunction(f3)
        for q in (-6.0, -1.5, 0.0, 0.7, 3.0):
            assert b3.beta(q) == pytest.approx(b2.beta(q), abs=1e-10)
            assert b3.alpha(q) == pytest.approx(b2.alpha(q), abs=1e-10)


class TestAlpha:
    def test_alpha_zero_closed_form(self, f_p1_third):
        assert BetaFunction(f_p1_third).alpha(0.0) == pytest.approx(math.log(9 / 2) / 2, abs=1e-12)

    def test_alpha_one_is_entropy(self, test_potentials):
        for f in test_potentials:
            h = entropy_rate(gibbs_markov(f))
            assert BetaFunction(f).alpha(1.0) == pytest.approx(h, abs=1e-11)

    def test_matches_finite_difference_of_beta(self, test_potentials):
        h = 1e-6
        for f in test_potentials:
            bf = BetaFunction(f)
            for q in (-3.0, 0.0, 1.0, 4.0):
                fd = -(bf.beta(q + h) - bf.beta(q - h)) / (2 * h)
                assert bf.alpha(q) == pytest.approx(fd, abs=1e-9)

    def test_strictly_decreasing(self, f_p1_third):
        bf = BetaFunction(f_p1_third)
        qs = np.linspace(-10, 10, 41)
        vals = [bf.alpha(q) for q in qs]
        assert (np.diff(vals) < 0).all()

    def test_limits_match_cycle_extremes(self, test_potentials):
        for f in test_potentials:
            bf = BetaFunction(f)
            rng = alpha_range(bf)
            if rng.degenerate:
                continue
            # convergence toward the Karp endpoints can be slow when two
            # cycle means nearly tie, so check the limit at the cap and
            # monotone improvement along the way
            assert bf.alpha(200.0) == pytest.approx(rng.alpha_min, abs=5e-3)
            assert bf.alpha(-200.0) == pytest.approx(rng.alpha_max, abs=5e-3)
            assert abs(bf.alpha(200.0) - rng.alpha_min) <= abs(bf.alpha(60.0) - rng.alpha_min) + 1e-12
            assert abs(bf.alpha(-200.0) - rng.alpha_max) <= abs(bf.alpha(-60.0) - rng.alpha_max) + 1e-12
            assert rng.alpha_min < bf.alpha(0.0) < rng.alpha_max
            # alpha(q) always stays inside the closed range
            for q in (-200.0, -7.0, 0.3, 12.0, 200.0):
                assert rng.alpha_min - 1e-12 <= bf.alpha(q) <= rng.alpha_max + 1e-12


class TestAlphaSlope:
    @pytest.mark.parametrize("q", [-150.0, -30.0, -3.0, 0.0, 0.7, 3.0, 30.0, 150.0])
    def test_bernoulli_closed_form(self, f_p1_third, q):
        # alpha'(q) = -p^q r^q (log p - log r)^2 / (p^q + r^q)^2 with
        # (p, r) = (2/3, 1/3), written through s = (r/p)^q so that no side
        # underflows even at |q| = 150
        s = 0.5**q
        exact = -s / (1 + s) ** 2 * math.log(2) ** 2
        assert BetaFunction(f_p1_third).alpha_slope(q) == pytest.approx(exact, rel=1e-12)

    def test_makes_no_perron_solve(self, f_p1_third, monkeypatch):
        bf = BetaFunction(f_p1_third)
        bf.alpha(2.5)
        monkeypatch.setattr(spectrum, "perron", lambda A: pytest.fail("alpha_slope made a Perron solve"))
        bf.alpha_slope(2.5)


class TestPerronCache:
    """Each q is built once and solved once, and beta, alpha, alpha_slope and
    the Gibbs measure all read the matrix that was solved."""

    def test_one_build_and_one_solve_per_q(self, ring, monkeypatch):
        built, solves = [], []
        build, solve = spectrum._exp_on_support, spectrum.perron
        monkeypatch.setattr(spectrum, "_exp_on_support", lambda f2, q: built.append(q) or build(f2, q))
        monkeypatch.setattr(spectrum, "perron", lambda A: solves.append(A) or solve(A))
        bf = BetaFunction(random_potential(ring, seed=4))
        qs = [1.0, -2.0, 0.5, 3.0]
        for q in qs + qs[::-1]:
            bf.beta(q), bf.alpha(q), bf.alpha_slope(q)
        assert built == qs
        assert len(solves) == len(qs) and all(bf.matrix(q) is A for q, A in zip(qs, solves))

    @pytest.mark.parametrize("q", [1.0, -2.0, 0.5])
    def test_gibbs_reads_the_solve(self, ring, q):
        bf = BetaFunction(random_potential(ring, seed=4))
        mu, expected = bf.gibbs(q), gibbs_markov(bf.f2.scale(q))
        assert (mu.P == expected.P).all() and (mu.pi == expected.pi).all()


class TestAlphaRange:
    def test_p1_third(self, f_p1_third):
        rng = alpha_range(f_p1_third)
        assert rng.alpha_min == pytest.approx(math.log(3 / 2), abs=1e-12)
        assert rng.alpha_max == pytest.approx(math.log(3), abs=1e-12)
        assert not rng.degenerate
        assert rng.min_cycle == (1,) and rng.max_cycle == (2,)

    def test_constant_degenerate(self, full2):
        rng = alpha_range(Potential.constant(full2, 0.7))
        assert rng.degenerate
        assert rng.alpha_min == pytest.approx(rng.alpha_max, abs=1e-12)
        # pressure log(2 e^0.7) minus the constant cycle mean 0.7
        assert rng.alpha_min == pytest.approx(math.log(2), abs=1e-12)


class TestEntropySpectrum:
    def test_peak(self, f_p1_third):
        a0 = BetaFunction(f_p1_third).alpha(0.0)
        val = entropy_spectrum(f_p1_third, a0)
        assert val.flag == FLAG_INTERIOR
        assert val.value == pytest.approx(math.log(2), abs=1e-10)
        assert val.q == pytest.approx(0.0, abs=1e-6)

    def test_diagonal_point(self, f_p1_third):
        h = entropy_rate(gibbs_markov(f_p1_third))
        val = entropy_spectrum(f_p1_third, h)
        assert val.value == pytest.approx(h, abs=1e-10)
        assert val.q == pytest.approx(1.0, abs=1e-6)

    def test_outside_range(self, f_p1_third):
        assert entropy_spectrum(f_p1_third, 0.1).flag == FLAG_OUTSIDE
        assert entropy_spectrum(f_p1_third, 2.0).flag == FLAG_OUTSIDE
        assert entropy_spectrum(f_p1_third, 2.0).value == 0.0
        for a in (-math.inf, math.inf):
            assert entropy_spectrum(f_p1_third, a) == SpectrumValue(0.0, FLAG_OUTSIDE)

    def test_endpoint_extrapolated(self, f_p1_third, monkeypatch):
        rng = alpha_range(f_p1_third)
        # a small q cap forces the extrapolated branch at the exact endpoints
        monkeypatch.setattr(spectrum, "Q_CAP", 40.0)
        for target in (rng.alpha_min, rng.alpha_max):
            val = entropy_spectrum(f_p1_third, target)
            assert val.flag == FLAG_ENDPOINT
            assert abs(val.value) <= 1e-3

    def test_degenerate_case(self, full2):
        f = Potential.constant(full2, 0.7)
        rng = alpha_range(f)
        val = entropy_spectrum(f, rng.alpha_min)
        assert val.flag == FLAG_DEGENERATE
        assert val.value == pytest.approx(math.log(2), abs=1e-12)
        assert entropy_spectrum(f, rng.alpha_min + 1e-3).flag == FLAG_OUTSIDE

    def test_variational_inequality(self, test_potentials):
        # E(alpha) <= beta(q) + q alpha for every q on a coarse grid
        for f in test_potentials:
            bf = BetaFunction(f)
            rng = alpha_range(bf)
            if rng.degenerate:
                continue
            targets = np.linspace(rng.alpha_min, rng.alpha_max, 9)[1:-1]
            for a in targets:
                val = entropy_spectrum(bf, float(a))
                for q in np.linspace(-12, 12, 25):
                    assert val.value <= bf.beta(float(q)) + float(q) * a + 1e-8

    @pytest.mark.parametrize("q0", [-2.5, -1.0, 0.0, 0.4, 1.7, 3.0])
    def test_recovers_q_within_solve_budget(self, test_potentials, q0, monkeypatch):
        # q0 = -1 is a bracket end: the cached alpha there is returned
        # instead of Newton steps that round just past it
        perron, solves = spectrum.perron, []

        def counted(A):
            solves.append(A)
            return perron(A)

        monkeypatch.setattr(spectrum, "perron", counted)
        for f in test_potentials:
            if alpha_range(f).degenerate:
                continue
            ref = BetaFunction(f)
            a0 = ref.alpha(q0)
            del solves[:]
            val = entropy_spectrum(BetaFunction(f), a0)
            assert len(solves) <= 14  # BetaFunction's pressure solve included
            assert val.flag == FLAG_INTERIOR
            assert val.q == pytest.approx(q0, abs=1e-9)
            assert val.value == pytest.approx(ref.beta(q0) + q0 * a0, abs=1e-12)

    def test_bernoulli_entropy_near_endpoints(self, f_p1_third):
        # P1(1/3) is Bernoulli(2/3, 1/3): at alpha = log(3/2) + t log 2 the
        # spectrum is the entropy of (1 - t, t)
        rng = alpha_range(f_p1_third)
        for a in (rng.alpha_min + 1e-9, rng.alpha_max - 1e-9):
            t = (a - math.log(1.5)) / math.log(2)
            exact = -t * math.log(t) - (1 - t) * math.log1p(-t)
            val = entropy_spectrum(f_p1_third, a)
            assert val.flag == FLAG_INTERIOR
            assert val.value == pytest.approx(exact, abs=1e-14)

    def test_nan_alpha_rejected(self, f_p1_third):
        with pytest.raises(ValueError, match="alpha_value"):
            entropy_spectrum(f_p1_third, math.nan)

    def test_concavity_on_interior(self, f_p1_third):
        bf = BetaFunction(f_p1_third)
        rng = alpha_range(bf)
        grid = np.linspace(rng.alpha_min + 1e-3, rng.alpha_max - 1e-3, 21)
        vals = [entropy_spectrum(bf, float(a)).value for a in grid]
        assert (np.diff(np.diff(vals)) <= 1e-8).all()


class TestSampleSpectrum:
    def test_curve_consistency(self, f_p1_third):
        curve = sample_spectrum(f_p1_third, np.linspace(-6, 6, 25))
        assert not curve.degenerate
        for s in curve.samples:
            assert s.entropy == pytest.approx(s.beta + s.q * s.alpha, abs=1e-12)
            assert curve.alpha_min - 1e-12 <= s.alpha <= curve.alpha_max + 1e-12
        alphas = [s.alpha for s in curve.samples]
        assert (np.diff(alphas) < 0).all()

    def test_unsorted_grid_rejected(self, f_p1_third):
        with pytest.raises(ValueError):
            sample_spectrum(f_p1_third, [1.0, 0.0])

    def test_cross_check_against_tilted_entropy(self, test_potentials):
        # sample_spectrum raises if E != h(mu_{qf}); just exercise it
        for f in test_potentials:
            sample_spectrum(f, [-4.0, -1.0, 0.0, 1.0, 3.0])

    @pytest.mark.parametrize("c", [-1.0, -0.3, 0.0, 0.7, 2.0])
    def test_degenerate_curve_is_one_point(self, full2, golden, ring, c):
        for base in (full2, golden, ring):
            bf = BetaFunction(Potential.constant(base, c))
            curve = sample_spectrum(bf, np.arange(-10.0, 10.25, 0.5))
            assert curve.degenerate and curve.alpha_max >= curve.alpha_min
            assert {(s.alpha, s.entropy) for s in curve.samples} == {(curve.alpha_min, bf.beta(0.0))}

    def test_order5_potential_on_default_grid(self, full2):
        # Perron vectors of this recoding span ten decades at |q| ~ 10; with
        # too few correct digits in the small entries the Gibbs matrix failed
        # its row-sum check ("rows stochastic only within 9.3e-06").
        f = random_potential(full2, seed=5, scale=0.5, order=5)
        curve = sample_spectrum(f, np.arange(-10.0, 10.25, 0.5))
        assert len(curve.samples) == 41
        for s in curve.samples:
            assert s.entropy == pytest.approx(s.beta + s.q * s.alpha, abs=1e-12)
            assert -1e-12 <= s.entropy <= math.log(2) + 1e-12


class TestSpectraEqual:
    def test_twins_equal(self, f_p1_third, f_p2_third):
        cmp = spectra_equal(f_p1_third, f_p2_third)
        assert cmp.equal and cmp.witness_q is None
        assert cmp.endpoint_gap <= 1e-12

    def test_different_parameters_unequal(self, f_p1_third):
        cmp = spectra_equal(f_p1_third, log_p1_potential(1 / 4))
        assert not cmp.equal
        assert cmp.witness_q is not None and cmp.beta_gap > 1e-9

    def test_shift_changes_nothing_but_scale_does(self, f_p1_third):
        # f and f + c share the spectrum up to... they do NOT: beta is shift
        # invariant because the pressure term absorbs the constant.
        assert spectra_equal(f_p1_third, f_p1_third.shift(0.8)).equal
        assert not spectra_equal(f_p1_third, f_p1_third.scale(1.1)).equal

    def test_self_comparison(self, test_potentials):
        for f in test_potentials:
            assert spectra_equal(f, f).equal
