"""Pressure-difference function beta(q) and the entropy spectrum.

The spectrum is always obtained from the Legendre-type variational formula
E(alpha) = inf_q (beta(q) + q alpha); level sets are never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PotentialRangeError, SolverError
from .perron import PerronTriple, cycle_mean_extremes, perron
from .thermo import (
    Potential,
    _table_array,
    edge_matrix,
    entropy_rate,
    gibbs_markov,
    reduce_to_order2,
)

Q_CAP = 200.0
DEGENERACY_TOL = 1e-10


class BetaFunction:
    """Evaluator for beta(q) = P(qf) - qP(f) with cached Perron data."""

    def __init__(self, f: Potential):
        self.f2, _ = reduce_to_order2(f)
        self._table = _table_array(self.f2)
        self._support = self.f2.base.entries == 1
        self._weights = edge_matrix(self.f2)[self._support]
        self._cache: dict[float, PerronTriple] = {}
        self.pressure = math.log(self.triple(1.0).root)

    def matrix(self, q: float) -> np.ndarray:
        """A(qf) = A(f)**q entrywise on the support, 0 elsewhere."""
        with np.errstate(over="ignore"):
            weights = self._weights ** q
        if not (weights.min() > 0 and weights.max() < math.inf):
            raise PotentialRangeError(f"an entry of A(f)**q is out of floating-point range at q={q!r}")
        M = np.zeros(self._support.shape)
        M[self._support] = weights
        return M

    def triple(self, q: float) -> PerronTriple:
        t = self._cache.get(q)
        if t is None:
            t = perron(self.matrix(q))
            self._cache[q] = t
        return t

    def beta(self, q: float) -> float:
        return math.log(self.triple(q).root) - q * self.pressure

    def alpha(self, q: float) -> float:
        """-beta'(q), from the exact entrywise derivative of the family."""
        t = self.triple(q)
        dM = self._table * self.matrix(q)
        dlam = float(t.left @ dM @ t.right)
        return self.pressure - dlam / t.root

    def alpha_slope(self, q: float, step: float = 1e-5) -> float:
        return (self.alpha(q + step) - self.alpha(q - step)) / (2 * step)


@dataclass(frozen=True)
class AlphaRange:
    alpha_min: float
    alpha_max: float
    degenerate: bool
    min_cycle: tuple[int, ...]
    max_cycle: tuple[int, ...]


def alpha_range(f: Potential) -> AlphaRange:
    """Exact endpoints: pressure minus the extreme mean cycle weights."""
    bf = f if isinstance(f, BetaFunction) else BetaFunction(f)
    extremes = cycle_mean_extremes(bf.f2.base, bf._table)
    lo = bf.pressure - extremes.max_mean
    hi = bf.pressure - extremes.min_mean
    return AlphaRange(lo, hi, hi - lo <= DEGENERACY_TOL, extremes.max_cycle, extremes.min_cycle)


FLAG_INTERIOR = "interior"
FLAG_ENDPOINT = "endpoint_extrapolated"
FLAG_OUTSIDE = "outside"
FLAG_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SpectrumValue:
    value: float
    flag: str
    q: float | None = None


def _solve_alpha(bf: BetaFunction, target: float, q_cap: float) -> float | None:
    """Monotone bracket + bisection + Newton for alpha(q) = target."""
    lo, hi = -1.0, 1.0
    while bf.alpha(lo) < target:  # alpha is decreasing: move lo left
        lo *= 2
        if lo < -q_cap:
            return None
    while bf.alpha(hi) > target:
        hi *= 2
        if hi > q_cap:
            return None
    for _ in range(200):  # bisection to width 1e-6
        if hi - lo <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        if bf.alpha(mid) >= target:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    for _ in range(60):  # Newton refinement
        err = bf.alpha(q) - target
        slope = bf.alpha_slope(q)
        if slope == 0.0:
            break
        dq = err / slope
        q -= dq
        q = min(max(q, lo - 1.0), hi + 1.0)
        if abs(dq) <= 1e-12 * max(1.0, abs(q)):
            break
    return q


def _endpoint_limit(bf: BetaFunction, target: float, q_cap: float, sign: float) -> float:
    """Limit of beta(q) + q*target as q -> sign*infinity, with a step-halving check."""
    full = bf.beta(sign * q_cap) + sign * q_cap * target
    half = bf.beta(sign * q_cap / 2) + sign * (q_cap / 2) * target
    if abs(full - half) > 1e-4 * max(1.0, abs(full)):
        raise SolverError(
            f"endpoint value not settled at q_cap={q_cap}: {full} vs {half} at half cap"
        )
    return max(full, 0.0)


def entropy_spectrum(f: Potential, alpha_value: float, q_cap: float = Q_CAP) -> SpectrumValue:
    """E(alpha) via the variational formula; 0 outside the alpha-range."""
    bf = f if isinstance(f, BetaFunction) else BetaFunction(f)
    rng = alpha_range(bf)
    if rng.degenerate:
        if abs(alpha_value - rng.alpha_min) <= 1e-9:
            return SpectrumValue(bf.beta(0.0), FLAG_DEGENERATE, 0.0)
        return SpectrumValue(0.0, FLAG_OUTSIDE)
    if alpha_value < rng.alpha_min - 1e-12 or alpha_value > rng.alpha_max + 1e-12:
        return SpectrumValue(0.0, FLAG_OUTSIDE)
    q = _solve_alpha(bf, alpha_value, q_cap)
    if q is None:
        sign = 1.0 if alpha_value <= bf.alpha(0.0) else -1.0
        return SpectrumValue(_endpoint_limit(bf, alpha_value, q_cap, sign), FLAG_ENDPOINT)
    return SpectrumValue(bf.beta(q) + q * alpha_value, FLAG_INTERIOR, q)


@dataclass(frozen=True)
class SpectrumSample:
    q: float
    alpha: float
    beta: float
    entropy: float
    flag: str


@dataclass(frozen=True)
class SpectrumCurve:
    samples: tuple[SpectrumSample, ...]
    alpha_min: float
    alpha_max: float
    degenerate: bool


def sample_spectrum(f: Potential, q_grid, cross_check_tol: float = 1e-8) -> SpectrumCurve:
    """Parametric spectrum samples (q, alpha(q), beta(q), E) over a sorted grid.

    Each entropy value is cross-checked against the entropy rate of the
    tilted Gibbs measure.
    """
    bf = f if isinstance(f, BetaFunction) else BetaFunction(f)
    grid = [float(q) for q in q_grid]
    if grid != sorted(grid):
        raise ValueError("q grid must be sorted")
    rng = alpha_range(bf)
    samples = []
    for q in grid:
        a = bf.alpha(q)
        b = bf.beta(q)
        e = b + q * a
        h = entropy_rate(gibbs_markov(bf.f2.scale(q)))
        if abs(e - h) > cross_check_tol:
            raise SolverError(
                f"duality cross-check failed at q={q}: E={e} vs entropy rate {h}"
            )
        samples.append(SpectrumSample(q, a, b, e, FLAG_DEGENERATE if rng.degenerate else FLAG_INTERIOR))
    return SpectrumCurve(tuple(samples), rng.alpha_min, rng.alpha_max, rng.degenerate)


DEFAULT_COMPARE_GRID = tuple(np.arange(-20.0, 20.25, 0.25))


@dataclass(frozen=True)
class SpectraComparison:
    equal: bool
    tol: float
    witness_q: float | None = None
    beta_gap: float | None = None
    endpoint_gap: float | None = None


def spectra_equal(
    f: Potential,
    g: Potential,
    q_grid=DEFAULT_COMPARE_GRID,
    tol: float = 1e-9,
) -> SpectraComparison:
    """Tolerance-based semi-decision of entropy-spectrum equality.

    Equal iff beta agrees on the whole grid and the alpha-range endpoints
    agree; the grid is scanned by increasing |q| (positive before negative)
    so the reported witness is the smallest-magnitude disagreeing point.
    """
    bf, bg = BetaFunction(f), BetaFunction(g)
    rf, rg = alpha_range(bf), alpha_range(bg)
    endpoint_gap = max(abs(rf.alpha_min - rg.alpha_min), abs(rf.alpha_max - rg.alpha_max))
    for q in sorted(q_grid, key=lambda q: (abs(q), -q)):
        gap = abs(bf.beta(float(q)) - bg.beta(float(q)))
        if gap > tol:
            return SpectraComparison(False, tol, float(q), gap, endpoint_gap)
    if endpoint_gap > tol:
        return SpectraComparison(False, tol, None, None, endpoint_gap)
    return SpectraComparison(True, tol, None, None, endpoint_gap)
