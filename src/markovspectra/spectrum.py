"""The entropy spectrum, from beta(q) (``thermo.BetaFunction``, re-exported).

The spectrum is always obtained from the Legendre-type variational formula
E(alpha) = inf_q (beta(q) + q alpha); level sets are never materialized.
This module applies the formula and its checks; ``BetaFunction`` builds,
solves and reads the tilts (``BetaFunction.read`` for a grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
# perron is not called here: the benchmark's tracer rebinds it by name in
# every module, and its self-test asserts it does so here
from .perron import cycle_mean_extremes, perron
from .thermo import BetaFunction, Potential

Q_CAP = 200.0
DEGENERACY_TOL = 1e-10
CROSS_CHECK_TOL = 1e-8


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
    extremes = cycle_mean_extremes(bf.f2.base, bf.dense_table)
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

    ``BetaFunction.read`` solves the grid and gives alpha, the entropy rate
    of the tilted Gibbs measure and its rows' check at each q, bit for bit
    the per-q ``BetaFunction.alpha``, ``gibbs`` and ``entropy_rate``; beta
    is ``BetaFunction.beta`` of each q.  Each entropy value E = beta + q
    alpha is cross-checked against that entropy rate, which on 3 or more
    order-2 states reads the grid's stacked solve of q (``perron``'s bits)
    and on 2 symbols comes from a second ``perron`` solve of the built
    matrix.

    Errors are raised in grid order, each q's as the per-q path raises it:
    a q whose tilt is out of range or whose stacked row was refused raises
    its own ``BetaFunction.triple`` error (``perron``'s, after one solve),
    unless an earlier q fails first; a q's failing Gibbs rows raise
    ``BetaFunction.gibbs``' error before its cross-check.  A degenerate
    curve is one point: every sample reports alpha_min and E = beta(0), not
    the rounding noise around them.
    A grid with a NaN or infinite q is refused before any solve.
    """
    grid = [float(q) for q in q_grid]
    bad = [q for q in grid if not math.isfinite(q)]
    if bad:
        raise ValueError(f"q grid must be finite, got {bad[0]!r}")
    if grid != sorted(grid):
        raise ValueError("q grid must be sorted")
    bf = f if isinstance(f, BetaFunction) else BetaFunction(f)
    rng = alpha_range(bf)
    alphas, rates, errors, failure = bf.read(grid)
    samples = []
    for q, a, h, error in zip(grid, alphas, rates, errors):
        if error is not None:
            raise error
        b = bf.beta(q)
        e = b + q * a
        if abs(e - h) > CROSS_CHECK_TOL:
            raise SolverError(f"duality cross-check failed at q={q}: E={e} vs entropy rate {h}")
        if rng.degenerate:
            a, e = rng.alpha_min, bf.beta(0.0)
        samples.append(SpectrumSample(q, a, b, e, FLAG_DEGENERATE if rng.degenerate else FLAG_INTERIOR))
    if failure is not None:
        raise failure
    return SpectrumCurve(tuple(samples), rng.alpha_min, rng.alpha_max, rng.degenerate)


# step 1/4 on [-20, 20], by increasing |q| and positive before negative
COMPARE_GRID = tuple(sorted(np.arange(-20.0, 20.25, 0.25).tolist(), key=lambda q: (abs(q), -q)))
# q = 0, 0.25, -0.25 are solved one at a time: most unequal pairs disagree
# there first (beta(0) is the entropy of the support, and beta(1) = 0)
SCAN_LEAD = 3


@dataclass(frozen=True)
class SpectraComparison:
    equal: bool
    tol: float
    witness_q: float | None = None
    beta_gap: float | None = None
    endpoint_gap: float | None = None


def _cohomology_gap(f2: Potential, g2: Potential) -> float:
    """Sup residual delta of f2 - g2 = c + h_j - h_i on the edges (i, j) of
    two order-2 potentials, for the c and h of one least-squares fit over
    the E x (n + 1) incidence system; inf when their bases differ.

    delta bounds the exact residual of the exact tables: the computed one
    plus 2 eps (3 max|x| + max|d|), the rounding of the difference d and of
    each residual's three sums.  So delta is 0 only for equal tables.
    """
    if not np.array_equal(f2.base.entries, g2.base.entries):
        return math.inf
    d = f2.table - g2.table
    if not d.any():
        return 0.0
    src, dst = f2.base.edge_index
    rows = np.arange(d.size)
    K = np.zeros((d.size, f2.base.n_symbols + 1))
    K[:, 0] = 1.0
    K[rows, 1 + dst] += 1.0
    K[rows, 1 + src] -= 1.0  # a loop (i, i) keeps 0
    x = np.linalg.lstsq(K, d)[0]
    rounding = 2.0 * np.finfo(float).eps * (3.0 * np.abs(x).max() + np.abs(d).max())
    return float(np.abs(K @ x - d).max() + rounding)


def spectra_equal(f: Potential, g: Potential, tol: float = 1e-9) -> SpectraComparison:
    """Tolerance-based semi-decision of entropy-spectrum equality; ``tol``
    must be non-negative and finite.

    Equal iff beta agrees on the whole grid and the alpha-range endpoints
    agree; COMPARE_GRID is scanned in order, so the reported witness is
    the smallest-magnitude disagreeing point.

    Before any grid solve, a cohomology (Livsic) certificate is tried.  If
    the reduced potentials sit on equal base matrices, one least-squares
    fit of f - g = c + h_j - h_i over the order-2 edges leaves a sup
    residual delta (``_cohomology_gap``).  Then f - g = c + h_j - h_i + r
    with |r| <= delta on every edge, so with D = diag(exp(q h)) the matrix
    A(qf) lies entrywise between exp(qc -+ |q| delta) D^-1 A(qg) D.  The
    Perron root grows with the entries and D^-1 A(qg) D has the root of
    A(qg), so |P(qf) - P(qg) - qc| <= |q| delta.  That bound at q and at
    q = 1, in beta(q) = P(qf) - q P(f), gives
    |beta_f(q) - beta_g(q)| <= 2|q| delta.  Round any cycle the coboundary
    sums to 0, so each cycle mean of f - g is c within delta, and the
    alpha-range endpoints, pressure minus an extreme cycle mean, move by at
    most 2 delta.
    When 2 max|q| delta = 40 delta <= tol, no grid point can disagree, and
    the result is that of a scan that finds none: equal iff the
    endpoint gap, computed from ``alpha_range`` as always, is within tol.
    At tol = 0 this holds only for identical reduced tables; every other
    pair is scanned.

    The first SCAN_LEAD q are built and solved one at a time, so a scan
    that stops there builds and solves nothing past its witness; the rest
    of the grid is filled for both potentials by one ``BetaFunction.solve``
    each once the scan reaches it.  A block that fails to build, or a q
    whose stacked solve fails, is left to the scan, so a witness before the
    failing q is still reported, and a failing q raises its own error.  On
    2-symbol forms every q is solved one at a time as the scan reaches it:
    the benchmark pins the number of ``perron`` calls a compare makes
    (ROADMAP item 2b).
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    bf, bg = BetaFunction(f), BetaFunction(g)
    rf, rg = alpha_range(bf), alpha_range(bg)
    endpoint_gap = max(abs(rf.alpha_min - rg.alpha_min), abs(rf.alpha_max - rg.alpha_max))
    # the grid ends at its largest |q|
    if 2.0 * abs(COMPARE_GRID[-1]) * _cohomology_gap(bf.f2, bg.f2) <= tol:
        return SpectraComparison(endpoint_gap <= tol, tol, None, None, endpoint_gap)
    for i, q in enumerate(COMPARE_GRID):
        if i == SCAN_LEAD:
            bf.solve(COMPARE_GRID[i:])
            bg.solve(COMPARE_GRID[i:])
        gap = abs(bf.beta(q) - bg.beta(q))
        if gap > tol:
            return SpectraComparison(False, tol, q, gap, endpoint_gap)
    if endpoint_gap > tol:
        return SpectraComparison(False, tol, None, None, endpoint_gap)
    return SpectraComparison(True, tol, None, None, endpoint_gap)
