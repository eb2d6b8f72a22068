"""Seeded Monte-Carlo sampling of Markov measures and local exponents.

Every trial consumes its own counter-derived stream ``default_rng((seed,
*key, trial))``, so batching, chunking or parallel partitioning of trials
cannot change any output.  A batch's streams are seeded together and
drawn into one array (`_trial_draws`: each SeedSequence stage hashes every
trial's rows in one uint32 pass, and one call fills every trial's row), and
its paths are walked in blocks of BLOCK time steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermo import BetaFunction, MarkovMeasure, Potential

CHUNK = 512
BLOCK = 64
HISTOGRAM_BINS = 50

# numpy.random.SeedSequence's hash constants and pool size, and PCG64's
# 128-bit multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


@dataclass(frozen=True)
class PathSample:
    word: tuple[int, ...]
    log_measure: float
    seed: int
    trial: int


def _trial_uniforms(seed: int, key: tuple[int, ...], trial: int, n: int) -> np.ndarray:
    """The definition of a trial's stream; _trial_draws draws the same numbers."""
    return np.random.default_rng((seed, *key, trial)).random(n)


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 entropy words of one integer, least first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(const: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's hash constant before each of `calls` successive hashmix
    calls and after the last, as a (calls + 1, 1) uint32 column."""
    chain = [const]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, np.newaxis]


# SeedSequence's hash constants in call order: the mixing stage's (the 4
# pool rows, then the 3 destinations of each source row in turn) and the
# output stage's (its 8 words).
_POOL_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_DESTINATIONS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row i of `values` (or of one row, broadcast)
    with constants[i] and constants[i + 1], for every lane at once."""
    values = values ^ constants[:-1]
    values *= constants[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ result >> 16


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(column).generate_state(4, np.uint64) for every column of
    an (L, m) uint32 entropy array, as a (4, m) uint64 array.  Each stage
    hashes all its rows in one (rows, m) pass: the pool, each source's three
    destinations, each entropy word past the pool, and the output words."""
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, _POOL_CONSTANTS[: _POOL_SIZE + 1])
    for src, dst in enumerate(_DESTINATIONS):
        calls = _POOL_SIZE + len(dst) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_CONSTANTS[calls : calls + len(dst) + 1]))
    if len(entropy) > _POOL_SIZE:
        words = np.repeat(entropy[_POOL_SIZE:], _POOL_SIZE, axis=0)
        hashed = _hashmix(words, _hash_constants(int(_POOL_CONSTANTS[-1, 0]), _MULT_A, len(words)))
        for row in hashed.reshape(len(entropy) - _POOL_SIZE, _POOL_SIZE, -1):
            pool = _mix(pool, row)
    state = _hashmix(np.tile(pool, (2, 1)), _OUTPUT_CONSTANTS).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _trial_draws(out: np.ndarray, seed: int, key: tuple[int, ...], trials: range) -> None:
    """Fill row i of ``out``, in order, with the first doubles of trial
    trials[i]'s stream ``np.random.default_rng((seed, *key, trial))``.

    The SeedSequence hashing runs on uint32 arrays across the trials and
    PCG64's two seeding steps on Python ints; one Generator is set to each
    trial's state in turn and fills that trial's row.  An empty range draws
    nothing, so its seed and key are not checked.
    """
    if not trials:
        return
    if trials.start < 0:
        raise ValueError("expected non-negative integer")
    prefix = [word for value in (seed, *key) for word in _words(value)]
    rng = np.random.Generator(np.random.PCG64())
    rows = iter(out)
    # Trials sharing their words above the lowest differ in one entropy row.
    start = trials.start
    while start < trials.stop:
        stop = min(trials.stop, (start >> 32) + 1 << 32)
        high = _words(start >> 32) if start >> 32 else []
        words = prefix + [0] + high
        entropy = np.empty((len(words), stop - start), dtype=np.uint32)
        entropy[:] = np.array(words, dtype=np.uint32)[:, np.newaxis]
        low = start & _MASK32
        entropy[len(prefix)] = np.arange(low, low + stop - start, dtype=np.uint64)
        for s0, s1, i0, i1 in zip(*_pcg64_seeds(entropy).tolist()):
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            rng.random(out=next(rows))
        start = stop


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
    `evaluator`.  Vectorized over a batch of trials, in blocks of BLOCK steps.

    State k (one past the alphabet) is a virtual start whose row is pi, so
    the first draw is an ordinary step.  A uniform at or above the last
    cumulative sum (1 up to rounding) must not index past the alphabet, so
    only the first k-1 sums of each row are thresholds; they are stored
    transposed, (k-1, k+1), so one take gathers every trial's thresholds.
    """
    k = len(sampler.pi)
    cuts = np.cumsum(np.vstack([sampler.P, sampler.pi]), axis=1)[:, :-1].T.copy()
    with np.errstate(divide="ignore"):
        log_terms = np.vstack([np.log(evaluator.P), np.log(evaluator.pi)]).ravel()

    batch = len(trials)
    U = np.empty((batch, n))
    _trial_draws(U, seed, key, trials)
    words = np.empty((n, batch), dtype=np.int64) if return_words else None
    # Row 0 of each block holds the state before it and the running total,
    # so one reduce down the time axis is the left-to-right sum of the steps.
    states = np.empty((BLOCK + 1, batch), dtype=np.intp)
    states[0] = k
    terms = np.zeros((BLOCK + 1, batch))
    rows = list(states)
    for t0 in range(0, n, BLOCK):
        m = min(BLOCK, n - t0)
        for i, u in enumerate(U[:, t0 : t0 + m].T):
            if k == 2:
                rows[i + 1][...] = u >= cuts[0].take(rows[i])
            else:
                np.add.reduce(u >= cuts.take(rows[i], axis=1), axis=0, dtype=np.intp, out=rows[i + 1])
        flat = states[:m] * k
        flat += states[1 : m + 1]
        np.take(log_terms, flat, out=terms[1 : m + 1])
        # A single column reduces pairwise; accumulate keeps it left to right.
        terms[0] = terms[: m + 1].sum(axis=0) if batch > 1 else np.add.accumulate(terms[: m + 1])[-1]
        states[0] = states[m]
        if return_words:
            words[t0 : t0 + m] = states[1 : m + 1] + 1
    return terms[0].copy(), words.T if return_words else None


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
    A NaN or infinite q is refused before any solve.
    """
    if n < 1:
        raise ValueError("path length must be at least 1")
    if trials < 2:
        raise ValueError("at least 2 trials are required for a standard error")
    qs = [float(q) for q in q_list]
    bad = [q for q in qs if not math.isfinite(q)]
    if bad:
        raise ValueError(f"q must be finite, got {bad[0]!r}")
    bf = BetaFunction(f)
    mu_f = bf.gibbs(1.0)
    rows = []
    for qi, q in enumerate(qs):
        mu_q = bf.gibbs(q)
        exponents = _exponent_batches(mu_q, mu_f, n, trials, seed, key=(qi,))
        rows.append(
            TiltedExponentRow(
                q,
                float(exponents.mean()),
                float(exponents.std(ddof=1) / np.sqrt(trials)),
                bf.alpha(q),
            )
        )
    return rows
