"""Perron-Frobenius numerics for primitive non-negative matrices.

``perron`` solves primitive 2x2 matrices in closed form and larger ones
with one dense LAPACK ``dgeev`` eigen-solve per eigenvector, each refined by
one Newton step so that every entry is accurate relative to its own size.
``perron_stack`` solves a ``(k, n, n)`` stack; row i of its result is
``perron(A[i])``, bit for bit.

The 2x2 closed form has two twins.  ``perron`` evaluates it on Python
floats (13 us a solve, against 65 us for the array form at k = 1; best of
9 runs over 1,000 random matrices on a 2-vCPU Xeon): it reads the matrix
once as floats, and each scalar step is one IEEE operation and rounds as
in NumPy, with two exceptions kept in NumPy: ``np.hypot`` (``math.hypot``
rounds differently on some inputs), and the products M v, u M and u . v,
whose BLAS kernels fuse multiply-adds that plain float arithmetic would
round twice.  The stack evaluates it on arrays, calling the same kernels
through ``np.matmul``.

A stack of larger matrices makes one stacked dgeev per eigenvector and
one stacked Newton solve per half, for the whole stack.  LAPACK solves
each matrix of a stack as it solves it alone, and every other step is
elementwise, a matmul or a sum taken in ``perron``'s order, so the rows
keep ``perron``'s bits (a 4x4 grid of 161 tilts: 2.3 ms against 22 ms
solved one matrix at a time, 2-vCPU Xeon).  A stack with a failing row
is solved matrix by matrix, so that the row raises its own error.

Normalization convention used throughout the library: the right eigenvector
v has unit coordinate sum and the left eigenvector u satisfies u . v = 1.
With this choice the Gibbs-Markov stationary vector is u_i v_i directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, SingularSystemError, StochasticityError
from .shiftspace import TransitionMatrix

RESIDUAL_TOL = 1e-13
STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class PerronTriple:
    """Output of ``perron``: ``iterations`` is 0 for the 2x2 closed form, 1
    for dgeev.  ``perron_stack`` gives each field a stack axis."""

    root: float
    left: np.ndarray
    right: np.ndarray
    residual: float
    iterations: int


def _perron_vector(B: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and right eigenvector of B, accurate in every entry.

    dgeev's error is normwise, so entries far below the largest may carry
    large relative errors.  One Newton step fixes them in the basis scaled
    by the dgeev vector v, where the Perron vector of D^-1 B D (D = diag(v))
    is close to all ones.
    """
    values, vectors = np.linalg.eig(B)
    k = int(np.argmax(values.real))
    mu, v = values[k], vectors[:, k].real
    v = v if v.sum() >= 0 else -v
    if not (mu.imag == 0 and mu.real > 0 and (v > 0).all()):
        raise NonConvergenceError(f"dominant eigenpair is not positive: root {mu}, least entry {v.min():.3e}")
    mu = float(mu.real)
    # Newton step from (w, mu) = (1, mu) for C w = mu w with sum(dw) = 0.
    n = len(v)
    C = B * v[np.newaxis, :] / v[:, np.newaxis]
    J = np.ones((n + 1, n + 1))
    J[:n, :n] = C - mu * np.eye(n)
    J[:n, n], J[n, n] = -1.0, 0.0
    try:
        step = np.linalg.solve(J, np.append(mu - C.sum(axis=1), 0.0))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"Perron root is not simple: {exc}") from exc
    return mu + float(step[n]), v * (1.0 + step[:n])


def _perron_vectors(B: np.ndarray, transposed: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """``_perron_vector`` of each matrix of the (k, n, n) stack B, or of its
    transpose, row for row and bit for bit; None if a row fails.

    dgeev and the Newton solve see each row's matrix as ``perron`` passes
    it.  ``perron`` hands B.T, an F-ordered view, to the transposed half,
    so its Newton right-hand side is summed as an F-ordered array sums:
    column by column, not pairwise along the row.
    """
    try:
        values, vectors = np.linalg.eig(B.transpose(0, 2, 1) if transposed else B)
    except np.linalg.LinAlgError:
        return None
    k = np.argmax(values.real, axis=1)
    mu = np.take_along_axis(values, k[:, np.newaxis], axis=1)[:, 0]
    v = np.take_along_axis(vectors, k[:, np.newaxis, np.newaxis], axis=2)[:, :, 0].real
    v = np.where((v.sum(axis=1) >= 0)[:, np.newaxis], v, -v)
    if not ((mu.imag == 0) & (mu.real > 0) & (v > 0).all(axis=1)).all():
        return None
    mu = mu.real
    n = v.shape[1]
    if transposed:
        C = B * v[:, :, np.newaxis] / v[:, np.newaxis, :]
        C, sums = C.transpose(0, 2, 1), C.sum(axis=1)
    else:
        C = B * v[:, np.newaxis, :] / v[:, :, np.newaxis]
        sums = C.sum(axis=2)
    J = np.ones((len(B), n + 1, n + 1))
    J[:, :n, :n] = C - mu[:, np.newaxis, np.newaxis] * np.eye(n)
    J[:, :n, n], J[:, n, n] = -1.0, 0.0
    rhs = np.zeros((len(B), n + 1, 1))
    rhs[:, :n, 0] = mu[:, np.newaxis] - sums
    try:
        step = np.linalg.solve(J, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        return None
    return mu + step[:, n], v * (1.0 + step[:, :n])


def _dense_stack(M: np.ndarray) -> PerronTriple | None:
    """``perron``'s dense solve of each matrix of the (k, n, n) stack M, bit
    for bit: one dgeev and one Newton solve per half for the whole stack;
    None if a row fails.  Floating-point warnings are silenced: a row that
    raises one fails, and its own ``perron`` call repeats it."""
    with np.errstate(all="ignore"):
        magnitude = M.max(axis=(1, 2))
        if not (np.isfinite(magnitude) & (magnitude > 0)).all():
            return None
        B = M / magnitude[:, np.newaxis, np.newaxis]
        halves = _perron_vectors(B, False), _perron_vectors(B, True)
        if None in halves:
            return None
        (mu, right), (_, left) = halves
        root = mu * magnitude
        right = right / right.sum(axis=1)[:, np.newaxis]
        left = left / np.matmul(left[:, np.newaxis, :], right[:, :, np.newaxis])[:, 0]
    residual = _accepted_residuals(M, root, left, right)
    if residual is None:
        return None
    return PerronTriple(root, left, right, residual, np.ones(len(M), dtype=int))


def _perron_2x2(a: float, b: float, c: float, d: float) -> tuple[float, np.ndarray, np.ndarray, list, list]:
    """Closed form for the primitive 2x2 matrix [[a, b], [c, d]] (b, c > 0):
    the root and the normalized left and right vectors, as arrays and as
    lists of floats, before acceptance.

    All terms under the square root are non-negative and root - a is taken
    without cancellation (conjugate form when a dominates), so the result
    is exact up to rounding unless an entry product under- or overflows.
    """
    s = float(np.hypot(a - d, 2.0 * math.sqrt(b * c)))
    try:
        # Python floats raise on a zero divisor where NumPy gave NaN or inf;
        # other NaN or inf results fail the acceptance check.
        gap = 2.0 * b * c / (s + (a - d)) if a >= d else ((d - a) + s) / 2.0
        total = b + gap
        r = [b / total, gap / total]
        right = np.array(r)
        dot = float(np.matmul(np.array([c, gap]), right))
        l = [c / dot, gap / dot]
    except ZeroDivisionError as exc:
        raise NonConvergenceError("2x2 closed form divides by zero: an entry product under- or overflows") from exc
    return a + gap, np.array(l), right, l, r


def _closed_form_stack(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_perron_2x2`` on a (k, 2, 2) stack; a zero divisor leaves a NaN or
    inf that fails acceptance."""
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    with np.errstate(all="ignore"):
        s = np.hypot(a - d, 2.0 * np.sqrt(b * c))
        gap = np.where(a >= d, 2.0 * b * c / (s + (a - d)), ((d - a) + s) / 2.0)
        right = np.stack([b, gap], axis=1) / (b + gap)[:, np.newaxis]
        cg = np.stack([c, gap], axis=1)
        return a + gap, cg / np.matmul(cg[:, np.newaxis, :], right[:, :, np.newaxis])[:, 0], right


def _accepted_residual(M: np.ndarray, root: float, left: np.ndarray, right: np.ndarray, l: list, r: list) -> float:
    """Residual of a normalized Perron triple that passes the acceptance
    check, else NonConvergenceError; ``l`` and ``r`` are ``left`` and
    ``right`` as lists of floats.

    The check asks for finite and strictly positive vectors, a finite
    positive root, and a max-normalized residual max|Mx - root x| / max x
    (for M v and u M, against M) of at most ``RESIDUAL_TOL * root``.
    Finiteness is tested entry by entry, because ``min`` and ``max`` over a
    list skip a NaN that is not first.  With finite vectors and root, a
    residual term is NaN only when a product overflows, which the last test
    catches.  ``_accepted_residuals`` is its twin on stacks.
    """
    lr = l + r
    if not (all(map(math.isfinite, lr)) and min(lr) > 0):
        raise NonConvergenceError("Perron eigenvectors are not strictly positive")
    if not 0 < root < math.inf:
        raise NonConvergenceError(f"Perron root {root!r} is not positive and finite")
    Mr, lM = np.matmul(M, right).tolist(), np.matmul(left, M).tolist()
    residual = max(
        max([abs(y - root * x) for y, x in zip(Mr, r)]) / max(r),
        max([abs(y - root * x) for y, x in zip(lM, l)]) / max(l),
    )
    if not (residual <= RESIDUAL_TOL * root and all(map(math.isfinite, Mr + lM))):
        raise NonConvergenceError(f"Perron residual {residual:.3e} exceeds tol={RESIDUAL_TOL} times the root")
    return residual


def _accepted_residuals(M: np.ndarray, root: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
    """``_accepted_residual`` of each row of a stack; None if a row fails."""
    with np.errstate(all="ignore"):
        Mr = np.matmul(M, right[:, :, np.newaxis])[:, :, 0]
        lM = np.matmul(left[:, np.newaxis, :], M)[:, 0]
        residual = np.maximum(
            np.abs(Mr - root[:, np.newaxis] * right).max(axis=1) / right.max(axis=1),
            np.abs(lM - root[:, np.newaxis] * left).max(axis=1) / left.max(axis=1),
        )
        finite = np.isfinite(left) & np.isfinite(right) & np.isfinite(Mr) & np.isfinite(lM)
        ok = (finite & (left > 0) & (right > 0)).all(axis=1) & (root > 0) & (root < math.inf)
    return residual if (ok & (residual <= RESIDUAL_TOL * root)).all() else None


def perron(A: np.ndarray) -> PerronTriple:
    """Perron root and positive left/right eigenvectors of the primitive
    non-negative array ``A``.

    Primitive 2x2 matrices use the quadratic closed form in Python-float
    arithmetic (``np.hypot`` and the three BLAS products stay in NumPy, for
    their rounding; see the module docstring); larger ones are scaled to
    M / max(M) and solved by dgeev (which balances them itself) for the
    right vector and on the transpose for the left one.  Both paths return
    only a triple that passes ``_accepted_residual``, else raise
    NonConvergenceError.
    """
    M = np.asarray(A, dtype=float)
    if M.shape == (2, 2):
        (a, b), (c, d) = M.tolist()
        if b > 0 and c > 0:
            root, left, right, l, r = _perron_2x2(a, b, c, d)
            return PerronTriple(root, left, right, _accepted_residual(M, root, left, right, l, r), 0)
    # Work on M / max(M): the root scales linearly and extreme magnitudes
    # (e.g. strongly tilted matrices) stay representable.
    magnitude = float(np.max(M))
    if magnitude <= 0 or not np.isfinite(magnitude):
        raise NonConvergenceError("matrix has no positive finite entries")
    B = M / magnitude
    mu, right = _perron_vector(B)
    _, left = _perron_vector(B.T)
    root = mu * magnitude
    right = right / right.sum()
    left = left / float(left @ right)
    residual = _accepted_residual(M, root, left, right, left.tolist(), right.tolist())
    return PerronTriple(root, left, right, residual, 1)


def perron_stack(A: np.ndarray) -> PerronTriple:
    """``perron`` of each matrix of the (k, n, n) stack ``A``: row i of each
    field is ``perron(A[i])``'s.  A 2x2 stack is solved as arrays in closed
    form, an n >= 3 one by stacked dgeev and Newton solves.  A stack with a
    failing row goes matrix by matrix, so the first failing row raises its
    own error."""
    M = np.asarray(A, dtype=float)
    if M.shape[1] == 2:
        root, left, right = _closed_form_stack(M)
        residual = _accepted_residuals(M, root, left, right)
        if residual is not None:
            return PerronTriple(root, left, right, residual, np.zeros(len(M), dtype=int))
    elif M.shape[1] >= 3:
        stacked = _dense_stack(M)
        if stacked is not None:
            return stacked
    rows = [perron(matrix) for matrix in M]
    return PerronTriple(
        np.array([t.root for t in rows], dtype=float),
        np.reshape([t.left for t in rows], M.shape[:2]),
        np.reshape([t.right for t in rows], M.shape[:2]),
        np.array([t.residual for t in rows], dtype=float),
        np.array([t.iterations for t in rows], dtype=int),
    )


def perron_vector_by_linear_solve(A: np.ndarray, lam: float) -> np.ndarray:
    """Right Perron vector with unit coordinate sum, via the (N+1)xN system.

    Deletes one eigen-equation row to obtain an invertible NxN system and
    checks the solution against the full system.
    """
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    C = np.vstack([M - lam * np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    scale = max(1.0, float(np.max(np.abs(C))))
    for i in range(n):
        Ci = np.delete(C, i, axis=0)
        bi = np.delete(b, i)
        try:
            x = np.linalg.solve(Ci, bi)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(C @ x - b)) <= 1e-9 * scale and (x > 0).all():
            return x
    raise SingularSystemError("no row deletion yields an invertible, consistent system")


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary probability vector of a row-stochastic matrix."""
    M = np.asarray(P, dtype=float)
    row_defect = np.max(np.abs(M.sum(axis=1) - 1.0))
    if row_defect > STOCHASTIC_TOL:
        raise StochasticityError(f"rows sum to 1 only within {row_defect:.3e} (tol {STOCHASTIC_TOL})")
    # pi solves pi P = pi, sum pi = 1: the right-eigenvector system of P^T at 1.
    return perron_vector_by_linear_solve(M.T, 1.0)


@dataclass(frozen=True)
class CycleMeanExtremes:
    min_mean: float
    max_mean: float
    min_cycle: tuple[int, ...]
    max_cycle: tuple[int, ...]


def _karp_min_mean(W: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Karp's minimum mean cycle of the graph with edge weights W (+inf off
    the graph), with 0-based vertices.

    D[k, v] is the least weight of a k-edge walk ending at v; D[0] = 0 at
    every vertex starts a walk anywhere, so every vertex is reachable.  Ties
    take the lowest predecessor (argmin keeps the first minimum).
    """
    n = W.shape[0]
    D = np.zeros((n + 1, n))
    parent = np.zeros((n + 1, n), dtype=int)
    for k in range(1, n + 1):
        walks = D[k - 1][:, np.newaxis] + W
        parent[k] = walks.argmin(axis=0)
        D[k] = walks.min(axis=0)

    # A vertex with no n-edge walk has D[n] = inf: inf - inf is NaN, which
    # fmax skips, and the finite D[0] gives it the ratio +inf.
    with np.errstate(invalid="ignore"):
        ratios = (D[n] - D[:n]) / (n - np.arange(n))[:, np.newaxis]
    worst = np.fmax.reduce(ratios, axis=0)
    best_v = int(np.argmin(worst))
    best = float(worst[best_v])

    # The optimal n-edge walk into best_v contains a min-mean cycle.
    walk = [best_v]
    for k in range(n, 0, -1):
        walk.append(int(parent[k, walk[-1]]))
    walk.reverse()
    seen: dict[int, int] = {}
    cycle: tuple[int, ...] = ()
    for pos, vertex in enumerate(walk):
        if vertex in seen:
            cycle = tuple(walk[seen[vertex] : pos])
            break
        seen[vertex] = pos
    mean = sum(W[u, v] for u, v in zip(cycle, cycle[1:] + cycle[:1])) / len(cycle)
    if abs(mean - best) > 1e-9 * max(1.0, abs(best)):
        raise NonConvergenceError("extracted cycle does not realize the Karp optimum")
    return best, cycle


def cycle_mean_extremes(base: TransitionMatrix, weights) -> CycleMeanExtremes:
    """Exact minimum and maximum mean cycle weight over the support graph.

    ``weights`` is an NxN array whose values on support edges are used;
    off-support values are ignored.
    """
    W = np.asarray(weights, dtype=float)
    support = base.entries == 1
    lo, lo_cycle = _karp_min_mean(np.where(support, W, np.inf))
    hi_neg, hi_cycle = _karp_min_mean(np.where(support, -W, np.inf))
    # the two runs keep different rounded Karp ratios: equal extremes (a
    # constant W) can come out one ulp the wrong way round, so the means are
    # returned in order
    lo, hi = sorted((lo, -hi_neg))
    to_word = lambda cyc: tuple(v + 1 for v in cyc)
    return CycleMeanExtremes(lo, hi, to_word(lo_cycle), to_word(hi_cycle))
