"""Potentials, pressure, Gibbs-Markov measures, normalized potentials.

Everything is reduced to 2-locally constant potentials before numerical
work: order-1 tables are lifted to order 2, and orders >= 3 go through the
higher-block recoding (a shift-commuting conjugacy, so pressures and
spectra are unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .errors import (
    EnumerationCapError,
    PotentialRangeError,
    StochasticityError,
    WordLengthError,
)
from .perron import PerronTriple, perron, stationary_distribution
from .shiftspace import (
    ENUMERATION_CAP,
    BlockRecoding,
    TransitionMatrix,
    Word,
    admissible_words,
    higher_block_recode,
    word_count,
)

LOG_SPACE_DEPTH = 30


@dataclass(frozen=True, eq=False)
class Potential:
    """n-locally constant potential given by a total table on W_A^n."""

    base: TransitionMatrix
    order: int
    values: dict[Word, float]

    @classmethod
    def from_table(cls, base: TransitionMatrix, order: int, table) -> "Potential":
        if order < 1:
            raise ValueError("potential order must be at least 1")
        expected = set(admissible_words(base, order))
        keys = {tuple(k) for k in table}
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            raise ValueError(f"table must be total on admissible words; missing={missing[:5]} extra={extra[:5]}")
        values = {tuple(k): float(v) for k, v in table.items()}
        if any(not math.isfinite(v) for v in values.values()):
            raise ValueError("potential values must be finite")
        return cls(base, order, values)

    @classmethod
    def constant(cls, base: TransitionMatrix, c: float, order: int = 2) -> "Potential":
        return cls.from_table(base, order, {w: c for w in admissible_words(base, order)})

    @classmethod
    def from_matrix_log(cls, base: TransitionMatrix, matrix) -> "Potential":
        """Order-2 potential f = log(matrix) on the support of the base."""
        M = np.asarray(matrix, dtype=float)
        table = {(i, j): math.log(M[i - 1, j - 1]) for i, j in base.edges()}
        return cls.from_table(base, 2, table)

    def __call__(self, w: Word) -> float:
        return self.values[tuple(w)]

    def scale(self, q: float) -> "Potential":
        return Potential(self.base, self.order, {w: q * v for w, v in self.values.items()})

    def shift(self, c: float) -> "Potential":
        return Potential(self.base, self.order, {w: v + c for w, v in self.values.items()})


def reduce_to_order2(f: Potential, cap: int = ENUMERATION_CAP) -> tuple[Potential, BlockRecoding | None]:
    """2-locally constant representative of f (recoded base for orders >= 3)."""
    if f.order == 2:
        return f, None
    if f.order == 1:
        table = {(i, j): f.values[(i,)] for i, j in f.base.edges()}
        return Potential.from_table(f.base, 2, table), None
    recoding = higher_block_recode(f.base, f.order, cap=cap)
    table = {
        (s, t): f.values[recoding.edge_word(s, t)]
        for s, t in recoding.matrix.edges()
    }
    return Potential.from_table(recoding.matrix, 2, table), recoding


def _table_array(f: Potential) -> np.ndarray:
    """The order-2 table of f as an n x n array, 0 off the support."""
    if f.order != 2:
        raise ValueError(f"needs an order-2 potential, got order {f.order}; reduce first")
    n = f.base.n_symbols
    table = np.zeros((n, n))
    for (i, j), v in f.values.items():
        table[i - 1, j - 1] = v
    return table


def _checked_exp(v: float) -> float:
    """math.exp(v), which must be positive and finite.  (np.exp rounds
    differently from math.exp in the last bit on some inputs.)"""
    try:
        weight = math.exp(v)
    except OverflowError:
        weight = math.inf
    if not 0.0 < weight < math.inf:
        raise PotentialRangeError(f"exp of the potential value {v!r} is out of floating-point range")
    return weight


def edge_matrix(f: Potential) -> np.ndarray:
    """A(f): exp(f) on support edges, 0 elsewhere.  Requires order 2."""
    table = _table_array(f)
    support = f.base.entries == 1
    A = np.zeros_like(table)
    A[support] = [_checked_exp(v) for v in table[support].tolist()]
    return A


def _reduced_triple(f: Potential) -> tuple[Potential, PerronTriple]:
    f2, _ = reduce_to_order2(f)
    return f2, perron(edge_matrix(f2))


def pressure(f: Potential) -> float:
    """Topological pressure, log of the Perron root of the edge matrix."""
    _, triple = _reduced_triple(f)
    return math.log(triple.root)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, shifted by the finite maximum."""
    peak = np.max(a, axis=-1, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - peak), axis=-1)) + peak[..., 0]


def pressure_by_preimages(f: Potential, terminal_symbol: int, depth: int) -> float:
    """Pressure estimate from weighted preimage sums ending at one symbol.

    Returns log(s_depth / s_{depth-1}) with s_m the terminal column sum of
    A(f)^m, accumulated in log-space.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    f2, _ = reduce_to_order2(f)
    n = f2.base.n_symbols
    if not 1 <= terminal_symbol <= n:
        raise ValueError(f"terminal symbol must be in 1..{n}")
    with np.errstate(divide="ignore"):
        logA = np.log(edge_matrix(f2))
    log_col = np.full(n, -np.inf)
    log_col[terminal_symbol - 1] = 0.0
    prev_sum = None
    for _ in range(depth):
        prev_sum = _logsumexp(log_col)
        log_col = _logsumexp(logA + log_col[np.newaxis, :])
    return float(_logsumexp(log_col) - prev_sum)


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Stationary Markov measure: stochastic matrix P, positive exactly on
    the support of ``base``, and its stationary vector pi."""

    base: TransitionMatrix
    P: np.ndarray
    pi: np.ndarray

    @classmethod
    def from_stochastic(cls, base: TransitionMatrix, matrix) -> "MarkovMeasure":
        P = np.array(matrix, dtype=float)
        if P.shape != base.entries.shape:
            raise ValueError("transition matrix shape does not match the base matrix")
        if ((P > 0) != (base.entries == 1)).any():
            raise ValueError("transition probabilities must be positive exactly on the support of the base")
        return cls(base, P, stationary_distribution(P))


def gibbs_markov(f: Potential) -> MarkovMeasure:
    """The unique Gibbs measure of f as a Markov measure.

    P(f)_ij = A(f)_ij v_j / (lambda v_i); the stationary vector is u_i v_i
    under the library's eigenvector normalization.
    """
    f2, triple = _reduced_triple(f)
    A = edge_matrix(f2)
    v = triple.right
    P = A * v[np.newaxis, :] / (triple.root * v[:, np.newaxis])
    defect = np.max(np.abs(P.sum(axis=1) - 1.0))
    if defect > 1e-8:
        raise StochasticityError(f"Gibbs matrix rows stochastic only within {defect:.3e}")
    if np.count_nonzero(P) < np.count_nonzero(A):
        raise StochasticityError("Gibbs transition probabilities underflow to 0 on the support")
    # absorb the last few ulps of eigenvector error so the rows are exactly
    # stochastic for downstream consumers
    P = P / P.sum(axis=1, keepdims=True)
    pi = triple.left * triple.right
    pi = pi / pi.sum()
    return MarkovMeasure(f2.base, P, pi)


def log_cylinder_measure(mu: MarkovMeasure, w: Word) -> float:
    """log mu([w]); -inf on inadmissible words, 0.0 for the empty word."""
    if not w:
        return 0.0
    if not mu.base.admits(w):
        return -np.inf
    P = mu.P
    total = math.log(mu.pi[w[0] - 1])
    for a, b in zip(w, w[1:]):
        total += math.log(P[a - 1, b - 1])
    return total


def cylinder_measure(mu: MarkovMeasure, w: Word) -> float:
    """mu([w]) as the product of pi and transition entries."""
    if not w:
        return 1.0
    if not mu.base.admits(w):
        return 0.0
    if len(w) > LOG_SPACE_DEPTH:
        return math.exp(log_cylinder_measure(mu, w))
    P = mu.P
    mass = mu.pi[w[0] - 1]
    for a, b in zip(w, w[1:]):
        mass *= P[a - 1, b - 1]
    return float(mass)


def birkhoff_sum(f: Potential, w: Word, m: int) -> float:
    """S_m f on the cylinder [w]; needs |w| >= m + order - 1."""
    if len(w) < m + f.order - 1:
        raise WordLengthError(
            f"word of length {len(w)} cannot determine S_{m} of an order-{f.order} potential"
        )
    # an explicit left-to-right fold: sum() compensates float sums on
    # Python >= 3.12, and the Gibbs audit accumulates in this order
    total = 0.0
    for k in range(m):
        total += f.values[w[k : k + f.order]]
    return total


def normalize_potential(f: Potential) -> Potential:
    """Coboundary-normalized potential using the left Perron eigenvector.

    The transfer operator prepends symbols, so 1-locally constant
    eigenfunctions obey the left eigen-equation; the normalized table
    satisfies sum_i exp(fhat_ij) = lambda for every j.
    """
    f2, triple = _reduced_triple(f)
    log_u = np.log(triple.left)
    table = {
        (i, j): v + log_u[i - 1] - log_u[j - 1] for (i, j), v in f2.values.items()
    }
    return Potential.from_table(f2.base, 2, table)


def jacobian(f: Potential, w: Word, kind: str = "gibbs") -> float:
    """Single-step Jacobian on [w]: lambda^-1 exp(f) (eigen-measure) or
    lambda^-1 exp(fhat) (Gibbs measure)."""
    if len(w) < 2:
        raise WordLengthError("jacobian needs a word of length at least 2")
    f2, triple = _reduced_triple(f)
    if kind == "eigen":
        g = f2
    elif kind == "gibbs":
        g = normalize_potential(f2)
    else:
        raise ValueError("kind must be 'eigen' or 'gibbs'")
    return math.exp(g.values[tuple(w[:2])]) / triple.root


def eigen_measure_cylinder(f: Potential, w: Word) -> float:
    """Cylinder mass of the eigen-measure: mu_f([w]) / u_{w_0}."""
    f2, triple = _reduced_triple(f)
    mu = gibbs_markov(f2)
    if not w:
        return 1.0
    return cylinder_measure(mu, w) / triple.left[w[0] - 1]


def entropy_rate(mu: MarkovMeasure) -> float:
    """Kolmogorov-Sinai entropy of a stationary Markov measure."""
    P = mu.P
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    return float(-mu.pi @ plogp.sum(axis=1))


def potential_integral(mu: MarkovMeasure, f: Potential) -> float:
    """Integral of an order-2 potential against a Markov measure on its base."""
    return float(mu.pi @ (mu.P * _table_array(f)).sum(axis=1))


@dataclass(frozen=True)
class GibbsAudit:
    pressure: float
    constant: float
    observed_min: float
    observed_max: float
    theoretical_min: float
    theoretical_max: float
    depth: int
    within_bounds: bool


def gibbs_constant_audit(f: Potential, depth: int = 12, cap: int = ENUMERATION_CAP) -> GibbsAudit:
    """Audit the defining Gibbs inequality over all cylinders up to `depth`.

    For each w in W_A^{m+1} (m <= depth) the audited ratio is
    mu([w|m]) / exp(-mP + S_m f on [w]); its closed form is
    pi_{w_0} v_{w_0}^{-1} v_{w_{m-1}} lambda / A(f)_{w_{m-1} w_m}, so the
    theoretical extremes run over attainable (start, end, edge) triples.
    """
    f2, triple = _reduced_triple(f)
    total_words = sum(word_count(f2.base, m + 1) for m in range(1, depth + 1))
    if total_words > cap:
        raise EnumerationCapError(f"{total_words} cylinders exceed the cap {cap}")

    mu = gibbs_markov(f2)
    P_press = math.log(triple.root)
    A = edge_matrix(f2)
    pi, v = mu.pi, triple.right
    n = f2.base.n_symbols
    support = A > 0

    # Attainable start->end pairs: a path of length m-1 for some m in 1..depth.
    reach = np.eye(n, dtype=bool)
    attain = reach.copy()
    for _ in range(depth - 1):
        reach = reach.astype(np.int64) @ f2.base.entries > 0
        attain |= reach
    with np.errstate(divide="ignore"):
        closed_form = (pi / v)[:, None, None] * v[None, :, None] * triple.root / A[None]
    theo_values = closed_form[attain[:, :, None] & support[None]]
    theo_min, theo_max = float(theo_values.min()), float(theo_values.max())
    constant = max(theo_max, 1.0 / theo_min)

    # Level-m frontier: every admissible word u of length m, as parallel
    # arrays of its last symbol, log mu([u]) and S_{m-1} f(u), in
    # lexicographic order.  Each audited word w = u j extends the frontier by
    # one edge; sums run left to right like the per-word formulas, and the
    # logs come from math.log, so every log-ratio is bit-identical to them.
    log_P = np.full((n, n), -np.inf)
    log_P[support] = [math.log(p) for p in mu.P[support].tolist()]
    f_table = _table_array(f2)
    symbols = np.arange(n)
    last = symbols
    log_mu = np.array([math.log(p) for p in pi])
    birkhoff = np.zeros(n)
    observed_min, observed_max = np.inf, -np.inf
    for m in range(1, depth + 1):
        parent = np.repeat(np.arange(last.size), n)
        nxt = np.tile(symbols, last.size)
        keep = support[last[parent], nxt]
        parent, nxt = parent[keep], nxt[keep]
        edge = (last[parent], nxt)
        birkhoff = birkhoff[parent] + f_table[edge]
        log_ratio = log_mu[parent] + m * P_press - birkhoff
        # exp is monotone, so exp of the extreme log-ratio is the extreme ratio
        observed_min = min(observed_min, math.exp(log_ratio.min()))
        observed_max = max(observed_max, math.exp(log_ratio.max()))
        log_mu = log_mu[parent] + log_P[edge]
        last = nxt

    slack = 1e-10 * max(1.0, constant)
    within = bool(
        1.0 / constant - slack <= observed_min and observed_max <= constant + slack
    )
    return GibbsAudit(
        P_press, constant, float(observed_min), float(observed_max), theo_min, theo_max, depth, within
    )
