"""Acceptance gate: eleven closed-form / oracle / property criteria.

Each criterion is one test, so ``pytest -v`` prints one pass/fail line per
criterion; each test also prints its own summary line with the measured
runtime (visible with ``-s`` or ``-rP``).
"""

import math
import time

import numpy as np
import pytest

from markovspectra import (
    Potential,
    TransitionMatrix,
    admissible_words,
    alpha_range,
    classify_2x2,
    cylinder_measure,
    density_probe,
    entropy_rate,
    g_n_membership,
    gibbs_constant_audit,
    gibbs_markov,
    golden_mean,
    full_shift,
    higher_block_recode,
    log_p1_potential,
    log_p2_potential,
    normalize_potential,
    pressure,
    pressure_by_preimages,
    reduce_to_order2,
    ring3,
    spectra_equal,
)
from markovspectra.spectrum import BetaFunction
from markovspectra.sim import empirical_local_entropy
from conftest import random_potential


class Stopwatch:
    def __init__(self, limit=None):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None and self.limit is not None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit}s budget"
            )
        return False


def report(number, title, watch):
    print(f"ACCEPTANCE {number:>2}: PASS - {title} ({watch.elapsed:.2f}s)")


def test_criterion_01_binomial_spectrum_closed_form():
    with Stopwatch(5.0) as watch:
        bf = BetaFunction(log_p1_potential(1 / 3))
        for q in np.arange(-20.0, 20.25, 0.25):
            expected = math.log((2 / 3) ** q + (1 / 3) ** q)
            assert abs(bf.beta(float(q)) - expected) <= 1e-10
        rng = alpha_range(bf)
        assert abs(rng.alpha_min - math.log(3 / 2)) <= 1e-12
        assert abs(rng.alpha_max - math.log(3)) <= 1e-12
        # the spectrum peak sits at alpha(0) with value h_top = ln 2
        assert abs(bf.alpha(0.0) - math.log(9 / 2) / 2) <= 1e-8
        assert abs(bf.beta(0.0) - math.log(2)) <= 1e-8
    report(1, "binomial spectrum closed form", watch)


def test_criterion_02_twin_spectra_equality():
    with Stopwatch(10.0) as watch:
        for a in (0.1, 0.2, 0.3, 0.4, 0.45):
            f, g = log_p1_potential(a), log_p2_potential(a)
            assert spectra_equal(f, g, tol=1e-10).equal
            gap = np.max(np.abs(gibbs_markov(f).P - gibbs_markov(g).P))
            assert gap >= abs(1 - 2 * a) - 1e-12
    report(2, "twin spectra equal, Gibbs matrices differ", watch)


def test_criterion_03_pressure_preimage_oracle():
    with Stopwatch(10.0) as watch:
        bases = [full_shift(2), golden_mean(), ring3()]
        for b, base in enumerate(bases):
            for s in range(5):
                f = random_potential(base, seed=100 * b + s, scale=0.25)
                p = pressure(f)
                estimates = pressure_by_preimages(f, 60)
                assert len(estimates) == base.n_symbols
                for est in estimates:
                    assert abs(est - p) <= 1e-8
    report(3, "preimage-sum pressure oracle at depth 60", watch)


def test_criterion_04_gibbs_audit(test_potentials):
    with Stopwatch(30.0) as watch:
        for f in test_potentials:
            if f.base.n_symbols != 2:
                continue
            audit = gibbs_constant_audit(f, depth=12)
            assert audit.within_bounds
            assert abs(audit.observed_min - audit.theoretical_min) <= 1e-10
            assert abs(audit.observed_max - audit.theoretical_max) <= 1e-10
    report(4, "Gibbs inequality audit with attained extremes", watch)


def test_criterion_05_jacobian_identities(test_potentials):
    with Stopwatch() as watch:
        for f in test_potentials:
            f2, _ = reduce_to_order2(f)
            lam = math.exp(pressure(f2))
            fhat = normalize_potential(f2)
            mu = gibbs_markov(f2)
            triple_left = None
            from markovspectra import eigen_measure_cylinder

            for m in range(2, 9):
                for w in admissible_words(f2.base, m):
                    ratio_mu = cylinder_measure(mu, w) / cylinder_measure(mu, w[1:])
                    assert abs(ratio_mu - math.exp(fhat.values[w[:2]]) / lam) <= 1e-10
                    ratio_nu = eigen_measure_cylinder(f2, w) / eigen_measure_cylinder(
                        f2, w[1:]
                    )
                    assert abs(ratio_nu - math.exp(f2.values[w[:2]]) / lam) <= 1e-10
    report(5, "Gibbs and eigen-measure Jacobian identities", watch)


def test_criterion_06_constant_shift_instances():
    with Stopwatch() as watch:
        rng = np.random.default_rng(2024)
        bases = [full_shift(2), golden_mean(), ring3()]
        for k in range(20):
            base = bases[k % 3]
            f = random_potential(base, seed=500 + k, scale=0.5)
            c = float(rng.uniform(-2.0, 2.0))
            g = f.shift(c)
            fhat, ghat = normalize_potential(f), normalize_potential(g)
            for w, v in fhat.values.items():
                assert abs(ghat.values[w] - v - c) <= 1e-10
            assert abs((pressure(f) - pressure(g)) + c) <= 1e-10
    report(6, "constant-shift normalization and pressure shift", watch)


def test_criterion_07_thermodynamic_identities(test_potentials):
    with Stopwatch() as watch:
        for f in test_potentials:
            bf = BetaFunction(f)
            h_top = pressure(Potential.constant(bf.f2.base, 0.0))
            assert abs(bf.beta(0.0) - h_top) <= 1e-10
            assert abs(bf.beta(1.0)) <= 1e-10
            grid = np.arange(-10.0, 10.5, 0.5)
            vals = [bf.beta(float(q)) for q in grid]
            assert (np.diff(vals, 2) >= -1e-9).all()
            for q in grid:
                E = bf.beta(float(q)) + float(q) * bf.alpha(float(q))
                h = entropy_rate(gibbs_markov(bf.f2.scale(float(q))))
                assert abs(E - h) <= 1e-8
    report(7, "pressure-function anchors, convexity, Legendre duality", watch)


def test_criterion_08_2x2_classification():
    with Stopwatch(5.0) as watch:
        r = classify_2x2(log_p1_potential(1 / 3))
        assert r.strong_rigid is False and r.twin is not None
        r = classify_2x2(Potential.constant(full_shift(2), 0.9))
        assert r.strong_rigid is True and r.alpha_detected == pytest.approx(0.5)
        for k in range(50):
            f = random_potential(full_shift(2), seed=700 + k, scale=0.8)
            a, b = classify_2x2(f), classify_2x2(f.shift(0.37))
            assert a.in_E == b.in_E and a.twin_kind == b.twin_kind
        for k in range(10):
            f = random_potential(golden_mean(), seed=800 + k, scale=0.8)
            r = classify_2x2(f)
            assert r.strong_rigid and r.weak_rigid
    report(8, "2x2 rigidity classification", watch)


def test_criterion_09_g2_and_density():
    with Stopwatch(20.0) as watch:
        member = Potential.from_matrix_log(full_shift(2), [[0.7, 0.3], [0.4, 0.6]])
        assert g_n_membership(member).member
        p1, p2 = log_p1_potential(1 / 3), log_p2_potential(1 / 3)
        assert set(g_n_membership(p1).collisions) == {
            ((1, 1), (1, 2)),
            ((2, 1), (2, 2)),
        }
        assert set(g_n_membership(p2).collisions) == {
            ((1, 1), (2, 2)),
            ((1, 2), (2, 1)),
        }
        for f in (p1, p2):
            result = density_probe(f, radius=1e-3, trials=1000, seed=0)
            assert result.fraction == 1.0
            assert result.openness_violations == 0
        from markovspectra import appendix_condition_check, edge_matrix

        # the left-eigenvector arrangement always matches the definitional
        # collision test; on the symmetric example both orientations do
        for f in (p1, p2, member):
            checks = appendix_condition_check(edge_matrix(f), "left-u")
            assert all(c.agrees for c in checks)
        symmetric = appendix_condition_check(edge_matrix(p2), "right-v")
        assert all(c.agrees for c in symmetric)
        # orientation discrepancies on asymmetric inputs are logged, not fatal
        for f in (p1, member):
            checks = appendix_condition_check(edge_matrix(f), "right-v")
            disagreeing = [c.pair for c in checks if not c.agrees]
            if disagreeing:
                print(f"  note: right-v orientation disagrees on {len(disagreeing)} pairs")
    report(9, "distinct-value membership, density probe, pair conditions", watch)


def test_criterion_10_smb_monte_carlo():
    with Stopwatch(60.0) as watch:
        mu = gibbs_markov(log_p1_potential(1 / 3))
        runs = [
            empirical_local_entropy(mu, n=10_000, trials=10_000, seed=7)
            for _ in range(2)
        ]
        first, second = runs
        assert repr(first.mean) == repr(second.mean)
        assert repr(first.std_error) == repr(second.std_error)
        assert (first.counts == second.counts).all()
        assert (first.bin_edges == second.bin_edges).all()
        h = entropy_rate(mu)
        assert abs(h - 0.636514) <= 1e-6
        assert abs(first.mean - h) <= 3 * first.std_error
    report(10, "Shannon-McMillan-Breiman Monte-Carlo", watch)


def test_criterion_11_recoding_invariance():
    with Stopwatch() as watch:
        base = full_shift(2)
        recoding = higher_block_recode(base, 3)
        grid = np.arange(-20.0, 20.25, 0.25)
        for k in range(5):
            f3 = random_potential(base, seed=900 + k, scale=0.5, order=3)
            # directly constructed 4-state order-2 model on the pair alphabet
            table = {
                (s, t): f3.values[recoding.edge_word(s, t)]
                for s, t in recoding.matrix.edges()
            }
            direct = Potential.from_table(recoding.matrix, 2, table)
            b3, b2 = BetaFunction(f3), BetaFunction(direct)
            for q in grid:
                assert abs(b3.beta(float(q)) - b2.beta(float(q))) <= 1e-10
    report(11, "higher-block recoding invariance of the pressure function", watch)
