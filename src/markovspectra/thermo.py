"""Potentials, pressure, Gibbs-Markov measures, normalized potentials and
the pressure-difference function beta(q).

Everything is reduced to 2-locally constant potentials before numerical
work: order-1 tables are lifted to order 2, and orders >= 3 go through the
higher-block recoding (a shift-commuting conjugacy, so pressures and
spectra are unchanged).  ``BetaFunction`` reduces a potential and builds
and solves its tilts A(qf): pressure, the Gibbs measure, the normalized
potential, the Jacobians and the audit read q = 1, spectrum and sim the rest.
Every A(qf), single or stacked, is one math.exp map over the scaled table,
and every Gibbs measure, single or stacked, is one ``_gibbs`` pass over a
tilt and its Perron data.  ``BetaFunction.read`` reads a q grid for
spectrum: alpha, the entropy rate and the Gibbs check of each point.
``solve_tables`` solves any stack of tables, for the density probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import NoReturn

import numpy as np
from .errors import MarkovSpectraError, PotentialRangeError, StochasticityError, WordLengthError
from .perron import PerronTriple, perron, perron_stack, stationary_distribution
from .shiftspace import BlockRecoding, TransitionMatrix, Word, admissible_words, higher_block_recode


@dataclass(frozen=True, eq=False)
class Potential:
    """n-locally constant potential: ``table`` holds, read-only, its values on
    ``words``, the admissible ``order``-words in lexicographic order;
    ``values`` is a read-only word -> float view of them.  The recoded edges
    of a higher-block recoding, row-major, are the n-words in lexicographic
    order, so for order >= 2 the table is the edge array (``edge_index``
    order) of the order-2 base.  ``from_table`` validates outside tables;
    derived potentials are built directly."""

    base: TransitionMatrix
    order: int
    words: tuple[Word, ...]
    table: np.ndarray

    def __post_init__(self):
        self.table.setflags(write=False)

    @cached_property
    def values(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self.words, self.table.tolist())))

    @classmethod
    def from_table(cls, base: TransitionMatrix, order: int, table) -> "Potential":
        if order < 1:
            raise ValueError("potential order must be at least 1")
        words = tuple(admissible_words(base, order))
        expected = set(words)
        keys = {tuple(k) for k in table}
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            raise ValueError(f"table must be total on admissible words; missing={missing[:5]} extra={extra[:5]}")
        values = {tuple(k): float(v) for k, v in table.items()}
        array = np.array([values[w] for w in words])
        if not np.isfinite(array).all():
            raise ValueError("potential values must be finite")
        return cls(base, order, words, array)

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
        return Potential(self.base, self.order, self.words, q * self.table)

    def shift(self, c: float) -> "Potential":
        return Potential(self.base, self.order, self.words, self.table + c)


def reduce_to_order2(f: Potential) -> tuple[Potential, BlockRecoding | None]:
    """2-locally constant representative of f (recoded base for orders >= 3)."""
    if f.order == 2:
        return f, None
    if f.order == 1:
        return Potential(f.base, 2, tuple(f.base.edges()), f.table[f.base.edge_index[0]]), None
    recoding = higher_block_recode(f.base, f.order)
    return Potential(recoding.matrix, 2, tuple(recoding.matrix.edges()), f.table), recoding


def _edges(f: Potential) -> tuple[np.ndarray, np.ndarray]:
    """0-based support edges (src, dst), row-major: the order of f.table."""
    if f.order != 2:
        raise ValueError(f"needs an order-2 potential, got order {f.order}; reduce first")
    return f.base.edge_index


def _table_array(f: Potential) -> np.ndarray:
    """The order-2 table of f as an n x n array, 0 off the support."""
    table = np.zeros(f.base.entries.shape)
    table[_edges(f)] = f.table
    return table


def _exp_on_support(f2: Potential, q: float = 1.0, table: np.ndarray | None = None) -> np.ndarray:
    """A(q g) = exp(q g), positive and finite, on the support edges of the order-2
    f2, 0 elsewhere, for g = f2 or, stacked, each row of a (k, E) ``table`` on
    its support; math.exp, as np.exp rounds differently.  A table with a
    value out of range raises PotentialRangeError naming the first such
    value in table order."""
    values = f2.table if table is None else table
    scaled = values.ravel().tolist()
    # Stacks come with q = 1, and a single tilt is small: its products go in
    # a list, where one that overflows to inf raises no NumPy warning.
    if q != 1:
        scaled = [q * v for v in scaled]
    try:
        weights = np.fromiter(map(math.exp, scaled), dtype=float, count=len(scaled))
    except OverflowError:
        _raise_first_out_of_range(values, q)
    if not (weights.min(initial=math.inf) > 0.0 and weights.max(initial=0.0) < math.inf):
        _raise_first_out_of_range(values, q)
    A = np.zeros(values.shape[:-1] + f2.base.entries.shape)
    src, dst = _edges(f2)
    A[..., src, dst] = weights.reshape(values.shape)
    return A


def _raise_first_out_of_range(values: np.ndarray, q: float) -> NoReturn:
    """Raise PotentialRangeError for the first value v of ``values``, in table
    order, whose math.exp(q * v) is not positive and finite."""
    for v in values.ravel().tolist():
        try:
            weight = math.exp(q * v)
        except OverflowError:
            weight = math.inf
        if not 0.0 < weight < math.inf:
            tilt = "" if q == 1 else f" times q={q!r}"
            raise PotentialRangeError(f"exp of the potential value {v!r}{tilt} is out of floating-point range")


def edge_matrix(f: Potential) -> np.ndarray:
    """A(f): exp(f) on support edges, 0 elsewhere.  Requires order 2."""
    return _exp_on_support(f)


def pressure(f: Potential) -> float:
    """Topological pressure, log of the Perron root of the edge matrix."""
    return BetaFunction(f).pressure


# Floats in one stacked block (2 MiB), read by _blocks only: 2**18 // n**2
# terminals, tilts or tables of n symbols a block, 64 at n = 64 and 4 at 256.
ORACLE_BUFFER_FLOATS = 2**18


def _blocks(items, floats_each: int):
    """Consecutive slices of ``items`` that hold at most ORACLE_BUFFER_FLOATS
    floats at ``floats_each`` an item (one item where that is more)."""
    size = max(1, ORACLE_BUFFER_FLOATS // floats_each)
    return [items[start : start + size] for start in range(0, len(items), size)]


def solve_tables(f2: Potential, tables: np.ndarray) -> tuple[np.ndarray, PerronTriple]:
    """A = exp(g) on the order-2 f2's support for each row g of a (k, E) stack
    of tables, and their Perron triples with a stack axis: one
    ``_exp_on_support`` build and one ``perron_stack`` a ``_blocks`` block,
    so row i is ``perron(A[i])`` bit for bit.  The first block that fails
    raises its range error, or its first refused table's ``perron`` error."""
    matrices, triples = [], []
    for rows in _blocks(tables, f2.base.n_symbols**2) or [tables]:
        A = _exp_on_support(f2, table=rows)
        t, refused = perron_stack(A)
        # perron refuses each row the stack fails: a 2x2 one with a zero
        # off-diagonal entry, solved densely there, has a zero vector entry
        if refused.any():
            perron(A[np.argmax(refused)])
        matrices.append(A)
        triples.append(t)
    if len(triples) == 1:  # joining one block copies it: 2% of a 40-trial density probe
        return matrices[0], triples[0]
    stacked = (np.concatenate([getattr(t, field.name) for t in triples]) for field in fields(PerronTriple))
    return np.concatenate(matrices), PerronTriple(*stacked)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, shifted by the finite maximum."""
    peak = np.max(a, axis=-1, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - peak), axis=-1)) + peak[..., 0]


def pressure_by_preimages(f: Potential, depth: int) -> list[float]:
    """Pressure estimates from weighted preimage sums, one per terminal symbol.

    Entry t-1 is log(s_depth / s_{depth-1}), with s_m the column sum of
    A(f)^m at terminal symbol t, accumulated in log-space.  All terminals
    advance together on the support's edge arrays, and exp is taken on the
    edges only.  The exponentials are then summed where they sit in a dense
    n x n row, zeros included: np.sum adds rows of 8 or more entries
    pairwise, grouped by position, so summing the edges alone would change
    the last bits.  The dense sum gives every estimate the bits of a
    one-terminal loop of n x n log-sum-exp steps.  Terminals run in blocks
    whose dense buffer holds at most ORACLE_BUFFER_FLOATS floats (``_blocks``).
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    f2, _ = reduce_to_order2(f)
    n = f2.base.n_symbols
    src, dst = f2.base.edge_index  # row-major: each row's edges are contiguous
    row_starts = np.flatnonzero(np.diff(src, prepend=-1))  # a primitive support has no empty row
    w = np.log(edge_matrix(f2)[src, dst])
    flat = src * n + dst  # the edges' positions in a flattened n x n row
    estimates: list[float] = []
    for terminals in _blocks(np.eye(n, dtype=bool), n * n):
        k = len(terminals)
        log_col, prev = np.where(terminals, 0.0, -np.inf), np.empty((k, n))
        dense = np.zeros((k, n * n))  # off-edge entries stay 0
        rows = dense.reshape(k, n, n)
        with np.errstate(divide="ignore"):
            for _ in range(depth):
                log_col, prev = prev, log_col
                a = prev.take(dst, axis=1)
                a += w
                peak = np.maximum.reduceat(a, row_starts, axis=1)
                peak[~np.isfinite(peak)] = 0.0
                a -= peak.take(src, axis=1)
                dense[:, flat] = np.exp(a, out=a)
                np.log(np.add.reduce(rows, axis=-1, out=log_col), out=log_col)
                log_col += peak
        estimates.extend((_logsumexp(log_col) - _logsumexp(prev)).tolist())
    return estimates


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
        if not np.where(base.entries == 1, (0 < P) & (P < math.inf), P == 0).all():
            raise ValueError("transition probabilities must be finite, positive on the base's support and 0 off it")
        return cls(base, P, stationary_distribution(P))


def _gibbs(base: TransitionMatrix, A: np.ndarray, root, left: np.ndarray, right: np.ndarray) -> tuple:
    """The Gibbs-Markov measure of the tilt A = A(qf) from its Perron data
    (lambda, u, v), with the defect max|row sum - 1| of its rows
    P_ij = A_ij v_j / (lambda v_i) before normalization and whether an entry
    of A's support underflows to 0 in P, which ``_gibbs_error`` reads; rows
    of a stack alike.  P is normalized to its row sums, and pi = u v / (u.v)
    under the library's eigenvector normalization.  Both reductions are
    ufunc reductions: in ``np.max`` and ``np.count_nonzero(..., axis=...)``
    a Python wrapper costs more than the work on one small matrix."""
    lam = np.asarray(root)[..., np.newaxis, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):  # only in rows that fail their check
        P = A * right[..., np.newaxis, :] / (lam * right[..., :, np.newaxis])
        sums = P.sum(axis=-1)
        defect = np.maximum.reduce(np.abs(sums - 1.0), axis=-1)
        underflow = np.logical_or.reduce((P == 0) > (A == 0), axis=(-2, -1))
        # absorb the last few ulps of eigenvector error so the rows are exactly
        # stochastic for downstream consumers
        pi = left * right
        mu = MarkovMeasure(base, P / sums[..., np.newaxis], pi / pi.sum(axis=-1, keepdims=True))
    return mu, defect.tolist(), underflow.tolist()


def _gibbs_error(defect: float, underflow: bool) -> StochasticityError | None:
    """The error of Gibbs rows that ``_gibbs`` finds not stochastic, else None."""
    if not defect <= 1e-8:  # a NaN defect fails too
        return StochasticityError(f"Gibbs matrix rows stochastic only within {defect:.3e}")
    if underflow:
        return StochasticityError("Gibbs transition probabilities underflow to 0 on the support")
    return None


def _alpha(table: np.ndarray, pressure: float, A: np.ndarray, root, left: np.ndarray, right: np.ndarray):
    """alpha = -beta'(q) = pressure - u.(table*A)v / lambda at the tilt
    A = A(qf) with Perron data (lambda, u, v), from the exact entrywise
    derivative table*A of the family: a float, or for a stack A the list of
    each row's."""
    # [()] makes the 0-d result of a single A a scalar, whose arithmetic is
    # cheaper than a 0-d array's
    dlam = (left[..., np.newaxis, :] @ (table * A) @ right[..., np.newaxis])[..., 0, 0][()]
    return (pressure - dlam / root).tolist()


class BetaFunction:
    """The Perron table of f's tilts A(qf), and beta(q) = P(qf) - qP(f).  Each
    q caches A(qf) once it is built and its Perron triple once it is solved;
    ``solve`` fills a grid of q in stacked blocks, ``read`` reads one block
    by block, and any other q is built and solved on its own when first
    asked for."""

    def __init__(self, f: Potential):
        self.f2, _ = reduce_to_order2(f)
        self._matrices: dict[float, np.ndarray] = {}
        self._triples: dict[float, PerronTriple] = {}
        self.pressure = math.log(self.triple(1.0).root)

    @cached_property
    def dense_table(self) -> np.ndarray:
        """The order-2 table as an n x n array, 0 off the support."""
        return _table_array(self.f2)

    def matrix(self, q: float) -> np.ndarray:
        """A(qf) = exp(q f) on the support, 0 elsewhere: read-only, built
        and cached on first use, and the matrix that q's solve reads."""
        if q not in self._matrices:
            A = _exp_on_support(self.f2, q)
            A.setflags(write=False)
            self._matrices[q] = A
        return self._matrices[q]

    def solve(self, qs) -> None:
        """Build A(qf) for each q of ``qs`` not yet built, one stacked build
        per ``_blocks`` block, and on 3 or more states solve that block with
        one ``perron_stack``: bit for bit the per-q build (the same IEEE
        products q * v, and math.exp(1.0 * t) is math.exp(t)) and
        ``perron``.  A block with a tilt out of range is not cached, nor is
        the triple of a row that ``perron`` refuses, so that such a q raises
        its own error when asked for."""
        n = self.f2.base.n_symbols
        todo = [q for q in qs if q not in self._matrices]
        for rows in _blocks(todo, n * n):
            try:
                with np.errstate(over="ignore"):  # a product that overflows fails the range check
                    A = _exp_on_support(self.f2, table=np.multiply.outer(rows, self.f2.table))
            except PotentialRangeError:
                continue
            A.setflags(write=False)
            self._matrices.update(zip(rows, A))
            if n == 2:
                # solved one q at a time only because the benchmark pins their
                # perron calls: delete this if when ROADMAP item 2b re-pins them
                continue
            t, failed = perron_stack(A)
            for i in np.flatnonzero(~failed):
                self._triples[rows[i]] = PerronTriple(
                    float(t.root[i]), t.left[i], t.right[i], float(t.residual[i]), int(t.iterations[i])
                )

    def read(self, qs) -> tuple[list[float], list[float], list[StochasticityError | None], Exception | None]:
        """alpha, the entropy rate of the Gibbs measure and the error of its
        rows' check (``_gibbs_error``, None where they pass) of each q of
        ``qs`` in order, up to the first q whose ``triple`` raises, and that
        q's error (None where no q raises).  Each ``_blocks`` block is
        solved (``solve``) and then read in one array pass over its stacked
        tilts and Perron vectors: bit for bit ``alpha``, ``gibbs`` and
        ``entropy_rate`` of each q."""
        n = self.f2.base.n_symbols
        alphas, rates, errors, failure = [], [], [], None
        for block in _blocks(list(qs), n * n):
            self.solve(block)
            triples = []
            for q in block:
                try:
                    triples.append(self.triple(q))
                except (MarkovSpectraError, np.linalg.LinAlgError) as exc:
                    failure = exc
                    break
            if triples:
                matrices = [self._matrices[q] for q in block[: len(triples)]]
                if n == 2:
                    # solved twice only because the benchmark pins their
                    # perron calls: delete this if when ROADMAP item 2b re-pins them
                    triples = [perron(A) for A in matrices]
                A, root = np.stack(matrices), np.array([t.root for t in triples])
                left, right = np.stack([t.left for t in triples]), np.stack([t.right for t in triples])
                alphas += _alpha(self.dense_table, self.pressure, A, root, left, right)
                mu, defect, underflow = _gibbs(self.f2.base, A, root, left, right)
                rates += entropy_rate(mu)
                errors += map(_gibbs_error, defect, underflow)
            if failure is not None:
                break
        return alphas, rates, errors, failure

    def triple(self, q: float) -> PerronTriple:
        if q not in self._triples:
            self._triples[q] = perron(self.matrix(q))
        return self._triples[q]

    def gibbs(self, q: float) -> MarkovMeasure:
        """The Gibbs-Markov measure of qf, from the matrix and triple solved at
        q; rows that fail their check raise ``_gibbs_error``'s error."""
        t = self.triple(q)
        mu, defect, underflow = _gibbs(self.f2.base, self._matrices[q], t.root, t.left, t.right)
        error = _gibbs_error(defect, underflow)
        if error is not None:
            raise error
        return mu

    def beta(self, q: float) -> float:
        return math.log(self.triple(q).root) - q * self.pressure

    def alpha(self, q: float) -> float:
        """-beta'(q), from the exact entrywise derivative of the family."""
        t = self.triple(q)
        return _alpha(self.dense_table, self.pressure, self._matrices[q], t.root, t.left, t.right)

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
        n = self.dense_table.shape[0]
        P = self.matrix(q) * t.right / (t.root * t.right[:, None])
        pi = t.left * t.right
        mean = pi @ (self.dense_table * P).sum(axis=1)
        F = self.dense_table - mean  # P is 0 off the support
        G = F * P
        g = G.sum(axis=1)
        # bordered system [[P - I, 1], [pi, 0]] [w; s] = [-g; 0]
        K = np.zeros((n + 1, n + 1))
        K[:n, :n] = P - np.eye(n)
        K[:n, n] = 1.0
        K[n, :n] = pi
        w = np.linalg.solve(K, np.append(-g, 0.0))[:n]
        return -float(pi @ (F * G).sum(axis=1) + 2.0 * (pi @ (G @ w)))


def gibbs_markov(f: Potential) -> MarkovMeasure:
    """The unique Gibbs measure of f as a Markov measure."""
    return BetaFunction(f).gibbs(1.0)


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
    """mu([w]) = exp(log mu([w])); 0.0 on inadmissible words."""
    return math.exp(log_cylinder_measure(mu, w))


def birkhoff_sum(f: Potential, w: Word, m: int) -> float:
    """S_m f on the cylinder [w]; needs m >= 0, an admissible w and
    |w| >= m + order - 1."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m!r}")
    if not f.base.admits(w):
        raise ValueError(f"word {tuple(w)!r} is not admissible")
    if len(w) < m + f.order - 1:
        raise WordLengthError(
            f"word of length {len(w)} cannot determine S_{m} of an order-{f.order} potential"
        )
    w = tuple(w)  # its slices are the table's keys
    # an explicit left-to-right fold: sum() compensates float sums on
    # Python >= 3.12, and the Gibbs audit accumulates in this order
    total = 0.0
    for k in range(m):
        total += f.values[w[k : k + f.order]]
    return total


def normalized_table(f2: Potential, left: np.ndarray, table: np.ndarray) -> np.ndarray:
    """table + log u_i - log u_j on f2's edges (i, j); rows of a stack alike."""
    log_u = np.log(left)
    src, dst = _edges(f2)
    return table + log_u.take(src, -1) - log_u.take(dst, -1)


def _normalized(f2: Potential, triple: PerronTriple) -> Potential:
    """Normalized form of the order-2 f2 from its Perron triple."""
    return Potential(f2.base, 2, f2.words, normalized_table(f2, triple.left, f2.table))


def normalize_potential(f: Potential) -> Potential:
    """Coboundary-normalized potential using the left Perron eigenvector.

    The transfer operator prepends symbols, so 1-locally constant
    eigenfunctions obey the left eigen-equation; the normalized table
    satisfies sum_i exp(fhat_ij) = lambda for every j.
    """
    bf = BetaFunction(f)
    return _normalized(bf.f2, bf.triple(1.0))


def jacobian(f: Potential, w: Word, kind: str = "gibbs") -> float:
    """Single-step Jacobian on [w]: lambda^-1 exp(f) (eigen-measure) or
    lambda^-1 exp(fhat) (Gibbs measure).  Like gibbs_markov's measure, w is
    read on the order-2 form's alphabet: the recoded blocks for order >= 3."""
    if len(w) < 2:
        raise WordLengthError("jacobian needs a word of length at least 2")
    if kind not in ("eigen", "gibbs"):
        raise ValueError("kind must be 'eigen' or 'gibbs'")
    bf = BetaFunction(f)
    f2, triple = bf.f2, bf.triple(1.0)
    if not f2.base.admits(w):
        raise ValueError(f"word {tuple(w)!r} is not admissible")
    g = f2 if kind == "eigen" else _normalized(f2, triple)
    return math.exp(g.values[tuple(w[:2])]) / triple.root


def eigen_measure_cylinder(f: Potential, w: Word) -> float:
    """Cylinder mass of the eigen-measure: mu_f([w]) / u_{w_0}; 0.0 on
    inadmissible words.  Like ``jacobian``, w is read on the order-2 form's
    alphabet: the recoded blocks for order >= 3."""
    if not w:
        return 1.0
    bf = BetaFunction(f)
    if not bf.f2.base.admits(w):
        return 0.0
    return cylinder_measure(bf.gibbs(1.0), w) / bf.triple(1.0).left[w[0] - 1]


def entropy_rate(mu: MarkovMeasure):
    """Kolmogorov-Sinai entropy of a stationary Markov measure: a float, or
    for a measure with a stack axis (``_gibbs``) the list of each row's.
    Rows of a stack that fail their Gibbs check may hold inf or nan, and
    raise no warning."""
    P = mu.P
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
        return (-mu.pi[..., np.newaxis, :] @ plogp.sum(axis=-1)[..., np.newaxis])[..., 0, 0].tolist()


def potential_integral(mu: MarkovMeasure, f: Potential) -> float:
    """Integral of an order-2 potential against a Markov measure on its base."""
    if not np.array_equal(f.base.entries, mu.base.entries):
        raise ValueError("the potential and the measure must have the same base")
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


def gibbs_constant_audit(f: Potential, depth: int = 12) -> GibbsAudit:
    """Audit the defining Gibbs inequality over all cylinders up to `depth`.

    For each w in W_A^{m+1} (m <= depth) the audited ratio is
    mu([w|m]) / exp(-mP + S_m f on [w]); its closed form is
    pi_{w_0} v_{w_0}^{-1} v_{w_{m-1}} lambda / A(f)_{w_{m-1} w_m}.  Both of its
    extremes come from max-plus recursions over the support's edges; the min
    side runs as the max of the negated values, which is exact.

    Theoretical: reach[e] is the largest pi_s / v_s over the starts s joined
    to e by at most m-1 edges.  A^p > 0 for p the base's aperiodicity power,
    so reach is fixed after p steps.  Rounding is monotone, so reach[e] v_e
    lambda over row e's least (largest) A(f) entry has the bits of the
    extreme over the attainable (start, end) pairs.

    Observed: hi[i] is the largest log mu([u]) - S_{m-1} f(u) + (m-1)P over
    the m-words u ending at i, and each audited w = u j adds the edge (i, j):
    log ratio = hi[i] - f_ij + P.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    bf = BetaFunction(f)
    f2, A, triple = bf.f2, bf.matrix(1.0), bf.triple(1.0)
    mu = bf.gibbs(1.0)
    P_press = bf.pressure
    pi, v = mu.pi, triple.right
    # sorted by target, each target's in-edges are one reduceat segment
    # (a primitive support leaves no target without one)
    src, dst = _edges(f2)
    by_dst = np.argsort(dst, kind="stable")
    src, dst = src[by_dst], dst[by_dst]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    sign = np.array([[1.0], [-1.0]])  # rows: max, -min

    with np.errstate(all="ignore"):
        reach = sign * (pi / v)
        for _ in range(min(depth - 1, f2.base.aperiodicity_power)):
            reach = np.maximum(reach, np.maximum.reduceat(reach[:, src], starts, axis=1))
        head = sign * reach * v * triple.root
        theo_min = float((head[1] / A.max(axis=1)).min())
        theo_max = float((head[0] / np.where(A > 0, A, np.inf).min(axis=1)).max())

        gain = P_press - f2.table[by_dst]  # -f_ij + P
        step = np.log(mu.P[src, dst]) + gain  # log P_ij - f_ij + P
        gain, step, ends = sign * gain, sign * step, sign * np.log(pi)
        extreme = np.full(2, -np.inf)
        for _ in range(depth):
            tail = ends[:, src]
            extreme = np.maximum(extreme, (tail + gain).max(axis=1))
            ends = np.maximum.reduceat(tail + step, starts, axis=1)
    try:
        # exp is monotone, so exp of the extreme log-ratio is the extreme ratio
        observed_max, observed_min = math.exp(extreme[0]), math.exp(-extreme[1])
        constant = max(theo_max, 1.0 / theo_min)
    except (OverflowError, ZeroDivisionError):
        observed_max = observed_min = constant = math.inf
    if not all(map(math.isfinite, (theo_min, theo_max, constant, observed_min, observed_max))):
        raise PotentialRangeError("the Gibbs audit constant or an observed extreme ratio is out of floating-point range")

    slack = 1e-10 * max(1.0, constant)
    within = bool(1.0 / constant - slack <= observed_min and observed_max <= constant + slack)
    return GibbsAudit(P_press, constant, observed_min, observed_max, theo_min, theo_max, depth, within)
