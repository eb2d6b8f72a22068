import warnings

import numpy as np
import pytest

from markovspectra import (
    Potential,
    TransitionMatrix,
    check_aperiodic,
    full_shift,
    golden_mean,
    log_p1_potential,
    log_p2_potential,
    reverse_golden_mean,
    ring3,
)


def random_potential(base: TransitionMatrix, seed: int, scale: float = 0.4, order: int = 2) -> Potential:
    """Seeded random locally constant potential with values in [-scale, scale]."""
    from markovspectra import admissible_words

    rng = np.random.default_rng(seed)
    words = admissible_words(base, order)
    return Potential.from_table(base, order, {w: rng.uniform(-scale, scale) for w in words})


def random_support_matrix(n: int, seed: int):
    """Seeded random positive matrix on a random aperiodic 0/1 support."""
    rng = np.random.default_rng(seed)
    while True:
        support = (rng.random((n, n)) < 0.6).astype(int)
        report = check_aperiodic(support)
        if report.accepted:
            base = TransitionMatrix.from_entries(support)
            entries = np.where(support == 1, rng.uniform(0.2, 2.0, (n, n)), 0.0)
            return base, entries


def random_aperiodic_base(rng, n: int) -> TransitionMatrix:
    """A random aperiodic 0/1 support on n symbols, of random density."""
    density = rng.uniform(0.2, 0.9)
    while True:
        support = (rng.random((n, n)) < density).astype(int)
        if check_aperiodic(support).accepted:
            return TransitionMatrix.from_entries(support)


def reference_sample_spectrum(f, q_grid):
    """``sample_spectrum`` as it read a solved grid before its array pass:
    one q at a time, with the per-q formulas of alpha, the Gibbs measure
    and its entropy rate written out as they stood.  The oracle of the
    pass's bits and of the order of its errors."""
    from markovspectra import BetaFunction, alpha_range
    from markovspectra.errors import SolverError, StochasticityError
    from markovspectra.perron import perron
    from markovspectra.spectrum import CROSS_CHECK_TOL, FLAG_DEGENERATE, FLAG_INTERIOR, SpectrumCurve, SpectrumSample

    def alpha(bf, q):
        t = bf.triple(q)
        dM = bf.dense_table * bf.matrix(q)
        return bf.pressure - float(t.left @ dM @ t.right) / t.root

    def gibbs_entropy(A, t):
        v = t.right
        P = A * v[np.newaxis, :] / (t.root * v[:, np.newaxis])
        defect = np.max(np.abs(P.sum(axis=1) - 1.0))
        if defect > 1e-8:
            raise StochasticityError(f"Gibbs matrix rows stochastic only within {defect:.3e}")
        if np.count_nonzero(P) < np.count_nonzero(A):
            raise StochasticityError("Gibbs transition probabilities underflow to 0 on the support")
        P = P / P.sum(axis=1, keepdims=True)
        pi = t.left * t.right
        pi = pi / pi.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(P > 0, P * np.log(P), 0.0)
        return float(-pi @ plogp.sum(axis=1))

    grid = [float(q) for q in q_grid]
    bf = f if isinstance(f, BetaFunction) else BetaFunction(f)
    rng = alpha_range(bf)
    bf.solve(grid)
    samples = []
    for q in grid:
        a = alpha(bf, q)
        b = bf.beta(q)
        e = b + q * a
        A = bf.matrix(q)
        h = gibbs_entropy(A, perron(A) if bf.f2.base.n_symbols == 2 else bf.triple(q))
        if abs(e - h) > CROSS_CHECK_TOL:
            raise SolverError(f"duality cross-check failed at q={q}: E={e} vs entropy rate {h}")
        if rng.degenerate:
            a, e = rng.alpha_min, bf.beta(0.0)
        samples.append(SpectrumSample(q, a, b, e, FLAG_DEGENERATE if rng.degenerate else FLAG_INTERIOR))
    return SpectrumCurve(tuple(samples), rng.alpha_min, rng.alpha_max, rng.degenerate)


def pytest_runtest_makereport(item, call):
    # hypothesis imports libcst to suggest a patch for a falsifying example;
    # that import warns (DeprecationWarning), and filterwarnings = error would
    # turn the report into an internal error that hides the example
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


@pytest.fixture(scope="session")
def full2():
    return full_shift(2)


@pytest.fixture(scope="session")
def golden():
    return golden_mean()


@pytest.fixture(scope="session")
def rgolden():
    return reverse_golden_mean()


@pytest.fixture(scope="session")
def ring():
    return ring3()


@pytest.fixture(scope="session")
def f_p1_third():
    return log_p1_potential(1 / 3)


@pytest.fixture(scope="session")
def f_p2_third():
    return log_p2_potential(1 / 3)


@pytest.fixture(scope="session")
def test_potentials(golden, ring, full2):
    """Canonical non-degenerate and degenerate potentials used by the
    cross-module identity tests."""
    return [
        log_p1_potential(1 / 3),
        log_p1_potential(0.2),
        log_p2_potential(0.3),
        random_potential(golden, seed=11, scale=0.3),
        random_potential(ring, seed=12, scale=0.3),
        Potential.constant(full2, 0.7),
    ]
