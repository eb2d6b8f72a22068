"""Named transition matrices and potential families used across the library."""

from __future__ import annotations

import functools

import numpy as np

from .shiftspace import TransitionMatrix
from .thermo import Potential


# Built once per process: a TransitionMatrix is frozen with read-only entries.
@functools.lru_cache(maxsize=32)
def full_shift(n: int = 2) -> TransitionMatrix:
    return TransitionMatrix.from_entries(np.ones((n, n), dtype=int))


@functools.cache
def golden_mean() -> TransitionMatrix:
    return TransitionMatrix.from_entries([[1, 1], [1, 0]])


@functools.cache
def reverse_golden_mean() -> TransitionMatrix:
    return TransitionMatrix.from_entries([[0, 1], [1, 1]])


@functools.cache
def ring3() -> TransitionMatrix:
    return TransitionMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def p1_matrix(alpha: float) -> np.ndarray:
    """Bernoulli-type stochastic matrix with both rows (1-alpha, alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return np.array([[1 - alpha, alpha], [1 - alpha, alpha]])


def p2_matrix(alpha: float) -> np.ndarray:
    """Reflection-symmetric stochastic matrix with rows (1-a, a), (a, 1-a)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return np.array([[1 - alpha, alpha], [alpha, 1 - alpha]])


def log_p1_potential(alpha: float) -> Potential:
    return Potential.from_matrix_log(full_shift(2), p1_matrix(alpha))


def log_p2_potential(alpha: float) -> Potential:
    return Potential.from_matrix_log(full_shift(2), p2_matrix(alpha))
