"""Seeded Monte-Carlo sampling of Markov measures and local exponents.

Every trial consumes its own counter-derived stream ``default_rng((seed,
*key, trial))``, so batching, chunking or parallel partitioning of trials
cannot change any output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import BetaFunction
from .thermo import MarkovMeasure, Potential

CHUNK = 512
HISTOGRAM_BINS = 50


@dataclass(frozen=True)
class PathSample:
    word: tuple[int, ...]
    log_measure: float
    seed: int
    trial: int


def _trial_uniforms(seed: int, key: tuple[int, ...], trial: int, n: int) -> np.ndarray:
    return np.random.default_rng((seed, *key, trial)).random(n)


def _log_masses(
    sampler: MarkovMeasure,
    evaluator: MarkovMeasure,
    n: int,
    trials: range,
    seed: int,
    key: tuple[int, ...] = (),
    return_words: bool = False,
):
    """Sample paths of length n from `sampler`, accumulate log-mass under
    `evaluator`.  Vectorized over a batch of trials."""
    P = sampler.P
    # A uniform at or above the last cumulative sum (1 up to rounding) must
    # not index past the alphabet, so only the first n-1 sums are thresholds.
    cut_pi = np.cumsum(sampler.pi)[:-1]
    cut_P = np.cumsum(P, axis=1)[:, :-1]
    with np.errstate(divide="ignore"):
        log_pi_eval = np.log(evaluator.pi)
        log_P_eval = np.log(evaluator.P)

    def draw(u: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        if cuts.shape[-1] == 1:
            return (u >= cuts[..., 0]).astype(np.intp)
        return (u[:, None] >= cuts).sum(axis=1)

    # Step k reads row k of one contiguous (n, batch) block.
    batch = len(trials)
    U = np.empty((n, batch))
    for b, t in enumerate(trials):
        U[:, b] = _trial_uniforms(seed, key, t, n)
    state = draw(U[0], cut_pi)
    log_mass = log_pi_eval[state]
    words = np.empty((n, batch), dtype=np.int64) if return_words else None
    if return_words:
        words[0] = state + 1
    for k in range(1, n):
        nxt = draw(U[k], cut_P[state])
        log_mass = log_mass + log_P_eval[state, nxt]
        state = nxt
        if return_words:
            words[k] = state + 1
    return log_mass, words.T if return_words else None


def sample_path(mu: MarkovMeasure, n: int, seed: int, trial: int = 0) -> PathSample:
    """One trajectory: initial symbol from pi, transitions from the rows of P."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    log_mass, words = _log_masses(mu, mu, n, range(trial, trial + 1), seed, return_words=True)
    return PathSample(tuple(int(s) for s in words[0]), float(log_mass[0]), seed, trial)


@dataclass(frozen=True)
class LocalEntropyResult:
    mean: float
    std_error: float
    bin_edges: np.ndarray
    counts: np.ndarray
    n: int
    trials: int
    seed: int


def _exponent_batches(sampler, evaluator, n, trials, seed, key=()) -> np.ndarray:
    exponents = np.empty(trials)
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        log_mass, _ = _log_masses(sampler, evaluator, n, range(start, stop), seed, key)
        exponents[start:stop] = -log_mass / n
    return exponents


def empirical_local_entropy(mu: MarkovMeasure, n: int, trials: int, seed: int) -> LocalEntropyResult:
    """Sampled distribution of -(1/n) log mu([omega|n]) over seeded trials."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    if trials < 100:
        raise ValueError("at least 100 trials are required")
    exponents = _exponent_batches(mu, mu, n, trials, seed)
    counts, edges = np.histogram(exponents, bins=HISTOGRAM_BINS)
    std = exponents.std(ddof=1)
    return LocalEntropyResult(
        float(exponents.mean()),
        float(std / np.sqrt(trials)),
        edges,
        counts,
        n,
        trials,
        seed,
    )


@dataclass(frozen=True)
class TiltedExponentRow:
    q: float
    mean: float
    std_error: float
    alpha: float


def empirical_spectrum_histogram(
    f: Potential,
    n: int,
    trials: int,
    q_list,
    seed: int,
) -> list[TiltedExponentRow]:
    """Tilted sampling probe of the spectrum parametrization.

    Paths are drawn from the Gibbs measure of q*f but their exponents are
    evaluated under the Gibbs measure of f; the mean estimates alpha(q).
    """
    if n < 1:
        raise ValueError("path length must be at least 1")
    if trials < 2:
        raise ValueError("at least 2 trials are required for a standard error")
    bf = BetaFunction(f)
    mu_f = bf.gibbs(1.0)
    rows = []
    for qi, q in enumerate(q_list):
        mu_q = bf.gibbs(float(q))
        exponents = _exponent_batches(mu_q, mu_f, n, trials, seed, key=(qi,))
        rows.append(
            TiltedExponentRow(
                float(q),
                float(exponents.mean()),
                float(exponents.std(ddof=1) / np.sqrt(trials)),
                bf.alpha(float(q)),
            )
        )
    return rows
