"""Pressure-difference function beta(q) and the entropy spectrum.

The spectrum is always obtained from the Legendre-type variational formula
E(alpha) = inf_q (beta(q) + q alpha); level sets are never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .perron import PerronTriple, cycle_mean_extremes, perron
from .thermo import (
    MarkovMeasure,
    Potential,
    _exp_on_support,
    _gibbs,
    _table_array,
    entropy_rate,
    gibbs_markov,
    reduce_to_order2,
)

Q_CAP = 200.0
DEGENERACY_TOL = 1e-10
CROSS_CHECK_TOL = 1e-8


class BetaFunction:
    """Evaluator for beta(q) = P(qf) - qP(f); each solved q caches A(qf) and its Perron triple."""

    def __init__(self, f: Potential):
        self.f2, _ = reduce_to_order2(f)
        self._table = _table_array(self.f2)
        self._cache: dict[float, tuple[np.ndarray, PerronTriple]] = {}
        self.pressure = math.log(self.triple(1.0).root)

    def matrix(self, q: float) -> np.ndarray:
        """A(qf) = exp(q f) on the support, 0 elsewhere; read-only and solved once q is cached."""
        return self._cache[q][0] if q in self._cache else _exp_on_support(self.f2, q)

    def triple(self, q: float) -> PerronTriple:
        if q not in self._cache:
            A = _exp_on_support(self.f2, q)
            A.setflags(write=False)
            self._cache[q] = A, perron(A)
        return self._cache[q][1]

    def gibbs(self, q: float) -> MarkovMeasure:
        """The Gibbs-Markov measure of qf, from the matrix and triple solved at q."""
        self.triple(q)
        return _gibbs(self.f2, *self._cache[q])

    def beta(self, q: float) -> float:
        return math.log(self.triple(q).root) - q * self.pressure

    def alpha(self, q: float) -> float:
        """-beta'(q), from the exact entrywise derivative of the family."""
        t = self.triple(q)
        dM = self._table * self.matrix(q)
        dlam = float(t.left @ dM @ t.right)
        return self.pressure - dlam / t.root

    def alpha_slope(self, q: float) -> float:
        """alpha'(q) = -beta''(q): minus the asymptotic variance of f under
        the Gibbs chain of qf, from the cached Perron data at q (no solve).

        With P the Gibbs matrix of qf, pi = u*v its stationary vector and
        F~ the table centred at its mean, the variance is
        pi.((F~*G)1) + 2 pi.(G w), where G = F~*P and w solves
        (I - P) w = G1, pi.w = 0 (the group inverse of I - P; Meyer 1975).
        Centring before squaring keeps the relative accuracy where the
        variance is far below the squared mean.
        """
        t = self.triple(q)
        n = self._table.shape[0]
        P = self.matrix(q) * t.right / (t.root * t.right[:, None])
        pi = t.left * t.right
        mean = pi @ (self._table * P).sum(axis=1)
        F = self._table - mean  # P is 0 off the support
        G = F * P
        g = G.sum(axis=1)
        # bordered system [[P - I, 1], [pi, 0]] [w; s] = [-g; 0]
        K = np.zeros((n + 1, n + 1))
        K[:n, :n] = P - np.eye(n)
        K[:n, n] = 1.0
        K[n, :n] = pi
        w = np.linalg.solve(K, np.append(-g, 0.0))[:n]
        return -float(pi @ (F * G).sum(axis=1) + 2.0 * (pi @ (G @ w)))


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


def _solve_alpha(bf: BetaFunction, target: float) -> float | None:
    """The q with alpha(q) = target, or None if it lies beyond +-Q_CAP.

    alpha is decreasing.  A doubling bracket [lo, hi] is grown from [-1, 1];
    from its midpoint, Newton steps on the exact slope alpha_slope run
    inside the bracket, which each step tightens by the sign of the error.
    A step that would leave the bracket, or a slope that is not finite and
    negative (at strong tilts it underflows to -0), is replaced by bisection.
    alpha and alpha_slope share the Perron data at q: one solve a step.
    Once the next step is below 1e-12 relative, q itself is returned, so
    its Perron data serve beta(q) as well.
    """
    lo, hi = -1.0, 1.0
    while bf.alpha(lo) < target:  # alpha is decreasing: the root is left of lo
        lo, hi = 2 * lo, lo
        if lo < -Q_CAP:
            return None
    while bf.alpha(hi) > target:
        lo, hi = hi, 2 * hi
        if hi > Q_CAP:
            return None
    for end in (lo, hi):  # cached: a Newton step from inside would round past it
        if bf.alpha(end) == target:
            return end
    q = 0.5 * (lo + hi)
    for _ in range(200):
        err = bf.alpha(q) - target
        if err == 0.0:
            break
        if err > 0.0:
            lo = q
        else:
            hi = q
        slope = bf.alpha_slope(q)
        step = q - err / slope if -math.inf < slope < 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - q) <= 1e-12 * max(1.0, abs(q)):
            break
        q = step
    return q


def _endpoint_limit(bf: BetaFunction, target: float, sign: float) -> float:
    """Limit of beta(q) + q*target as q -> sign*infinity, with a step-halving check."""
    full = bf.beta(sign * Q_CAP) + sign * Q_CAP * target
    half = bf.beta(sign * Q_CAP / 2) + sign * (Q_CAP / 2) * target
    if abs(full - half) > 1e-4 * max(1.0, abs(full)):
        raise SolverError(
            f"endpoint value not settled at q_cap={Q_CAP}: {full} vs {half} at half cap"
        )
    return max(full, 0.0)


def entropy_spectrum(f: Potential, alpha_value: float) -> SpectrumValue:
    """E(alpha) via the variational formula; 0 outside the alpha-range.

    alpha_value = +-inf is outside the range; nan is refused with ValueError.
    """
    if math.isnan(alpha_value):
        raise ValueError(f"alpha_value must be a number, got {alpha_value!r}")
    bf = f if isinstance(f, BetaFunction) else BetaFunction(f)
    rng = alpha_range(bf)
    if rng.degenerate:
        if abs(alpha_value - rng.alpha_min) <= 1e-9:
            return SpectrumValue(bf.beta(0.0), FLAG_DEGENERATE, 0.0)
        return SpectrumValue(0.0, FLAG_OUTSIDE)
    if alpha_value < rng.alpha_min - 1e-12 or alpha_value > rng.alpha_max + 1e-12:
        return SpectrumValue(0.0, FLAG_OUTSIDE)
    q = _solve_alpha(bf, alpha_value)
    if q is None:
        sign = 1.0 if alpha_value <= bf.alpha(0.0) else -1.0
        return SpectrumValue(_endpoint_limit(bf, alpha_value, sign), FLAG_ENDPOINT)
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


def sample_spectrum(f: Potential, q_grid) -> SpectrumCurve:
    """Parametric spectrum samples (q, alpha(q), beta(q), E) over a sorted grid.

    Each entropy value is cross-checked against the entropy rate of the
    tilted Gibbs measure.  A degenerate curve is one point: every sample
    reports alpha_min and E = beta(0), not the rounding noise around them.
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
        # re-solves bf.matrix(q) bit for bit; ROADMAP items 2 and 3 read it from bf
        h = entropy_rate(gibbs_markov(bf.f2.scale(q)))
        if abs(e - h) > CROSS_CHECK_TOL:
            raise SolverError(
                f"duality cross-check failed at q={q}: E={e} vs entropy rate {h}"
            )
        if rng.degenerate:
            a, e = rng.alpha_min, bf.beta(0.0)
        samples.append(SpectrumSample(q, a, b, e, FLAG_DEGENERATE if rng.degenerate else FLAG_INTERIOR))
    return SpectrumCurve(tuple(samples), rng.alpha_min, rng.alpha_max, rng.degenerate)


# step 1/4 on [-20, 20], by increasing |q| and positive before negative
COMPARE_GRID = tuple(sorted(np.arange(-20.0, 20.25, 0.25).tolist(), key=lambda q: (abs(q), -q)))


@dataclass(frozen=True)
class SpectraComparison:
    equal: bool
    tol: float
    witness_q: float | None = None
    beta_gap: float | None = None
    endpoint_gap: float | None = None


def spectra_equal(f: Potential, g: Potential, tol: float = 1e-9) -> SpectraComparison:
    """Tolerance-based semi-decision of entropy-spectrum equality.

    Equal iff beta agrees on the whole grid and the alpha-range endpoints
    agree; COMPARE_GRID is scanned in order, so the reported witness is
    the smallest-magnitude disagreeing point.
    """
    bf, bg = BetaFunction(f), BetaFunction(g)
    rf, rg = alpha_range(bf), alpha_range(bg)
    endpoint_gap = max(abs(rf.alpha_min - rg.alpha_min), abs(rf.alpha_max - rg.alpha_max))
    for q in COMPARE_GRID:
        gap = abs(bf.beta(q) - bg.beta(q))
        if gap > tol:
            return SpectraComparison(False, tol, q, gap, endpoint_gap)
    if endpoint_gap > tol:
        return SpectraComparison(False, tol, None, None, endpoint_gap)
    return SpectraComparison(True, tol, None, None, endpoint_gap)
