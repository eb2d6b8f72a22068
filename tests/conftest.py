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
