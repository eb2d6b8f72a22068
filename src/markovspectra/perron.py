"""Perron-Frobenius numerics for primitive non-negative matrices.

``perron`` solves primitive 2x2 matrices in closed form and larger ones
with one dense LAPACK ``dgeev`` eigen-solve per eigenvector, each refined by
one Newton step so that every entry is accurate relative to its own size.

Normalization convention used throughout the library: the right eigenvector
v has unit coordinate sum and the left eigenvector u satisfies u . v = 1.
With this choice the Gibbs-Markov stationary vector is u_i v_i directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, SingularSystemError, StochasticityError
from .shiftspace import TransitionMatrix

DEFAULT_TOL = 1e-13


@dataclass(frozen=True)
class PerronTriple:
    """Output of ``perron``: ``iterations`` is 0 for the 2x2 closed form, 1 for dgeev."""

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


def perron(A: np.ndarray, tol: float = DEFAULT_TOL) -> PerronTriple:
    """Perron root and positive left/right eigenvectors of the primitive
    non-negative array ``A``.

    Primitive 2x2 matrices use the quadratic closed form; larger ones are
    scaled to M / max(M) and solved by dgeev (which balances them itself)
    for the right vector and on the transpose for the left one.  The result
    must pass an acceptance check, else NonConvergenceError is raised: a
    real positive root, strictly positive eigenvectors, and for both vectors
    a max-normalized residual max|Mx - root x| / max|x| (against M, kept as
    ``residual``) of at most ``tol * root``.
    """
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    if n == 2 and M[0, 1] > 0 and M[1, 0] > 0:
        # Primitive 2x2 matrices have positive off-diagonals, so the
        # quadratic closed form is exact and numerically stable (all terms
        # in the square root are non-negative).
        a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
        s = np.hypot(a - d, 2.0 * np.sqrt(b * c))
        # root - a without cancellation (conjugate form when a dominates)
        gap = 2.0 * b * c / (s + (a - d)) if a >= d else ((d - a) + s) / 2.0
        root = float(a + gap)
        right, left = np.array([b, gap]), np.array([c, gap])
        iterations = 0
    else:
        # Work on M / max(M): the root scales linearly and extreme
        # magnitudes (e.g. strongly tilted matrices) stay representable.
        magnitude = float(np.max(M))
        if magnitude <= 0 or not np.isfinite(magnitude):
            raise NonConvergenceError("matrix has no positive finite entries")
        B = M / magnitude
        mu, right = _perron_vector(B)
        _, left = _perron_vector(B.T)
        root = mu * magnitude
        iterations = 1
    right = right / right.sum()
    left = left / float(left @ right)
    # Plain-list minimum: cheap enough for the closed form, which runs
    # hundreds of times per request.  NaN entries fail the residual check.
    if not min(right.tolist() + left.tolist()) > 0:
        raise NonConvergenceError("Perron eigenvectors are not strictly positive")
    residual = max(
        float(np.abs(M @ right - root * right).max() / right.max()),
        float(np.abs(left @ M - root * left).max() / left.max()),
    )
    if not residual <= tol * root:
        raise NonConvergenceError(f"Perron residual {residual:.3e} exceeds tol={tol} times the root")
    return PerronTriple(root, left, right, residual, iterations)


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


def stationary_distribution(P: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Stationary probability vector of a row-stochastic matrix."""
    M = np.asarray(P, dtype=float)
    row_defect = np.max(np.abs(M.sum(axis=1) - 1.0))
    if row_defect > tol:
        raise StochasticityError(f"rows sum to 1 only within {row_defect:.3e} (tol {tol})")
    # pi solves pi P = pi, sum pi = 1: the right-eigenvector system of P^T at 1.
    return perron_vector_by_linear_solve(M.T, 1.0)


@dataclass(frozen=True)
class CycleMeanExtremes:
    min_mean: float
    max_mean: float
    min_cycle: tuple[int, ...]
    max_cycle: tuple[int, ...]


def _karp_min_mean(n: int, edges: list[tuple[int, int, float]]) -> tuple[float, tuple[int, ...]]:
    """Karp's minimum mean cycle on vertices 0..n-1 (all on cycles reachable).

    A virtual source n with zero-weight edges to every vertex guarantees
    reachability; cycles never pass through it.
    """
    total = n + 1
    aug = edges + [(n, v, 0.0) for v in range(n)]
    INF = np.inf
    dist = np.full((total + 1, total), INF)
    parent = np.full((total + 1, total), -1, dtype=int)
    dist[0, n] = 0.0
    for k in range(1, total + 1):
        for u, v, w in aug:
            cand = dist[k - 1, u] + w
            if cand < dist[k, v]:
                dist[k, v] = cand
                parent[k, v] = u

    best = INF
    best_v = -1
    for v in range(n):
        if not np.isfinite(dist[total, v]):
            continue
        worst = -INF
        for k in range(total):
            if np.isfinite(dist[k, v]):
                worst = max(worst, (dist[total, v] - dist[k, v]) / (total - k))
        if worst < best:
            best = worst
            best_v = v

    # The optimal walk of length `total` into best_v contains a min-mean cycle.
    walk = [best_v]
    cur = best_v
    for k in range(total, 0, -1):
        cur = int(parent[k, cur])
        walk.append(cur)
    walk.reverse()
    seen: dict[int, int] = {}
    cycle: tuple[int, ...] = ()
    for pos, vertex in enumerate(walk):
        if vertex in seen:
            cycle = tuple(walk[seen[vertex] : pos])
            break
        seen[vertex] = pos
    weight_of = {(u, v): w for u, v, w in aug}
    mean = sum(
        weight_of[(cycle[i], cycle[(i + 1) % len(cycle)])] for i in range(len(cycle))
    ) / len(cycle)
    if abs(mean - best) > 1e-9 * max(1.0, abs(best)):
        raise NonConvergenceError("extracted cycle does not realize the Karp optimum")
    return float(best), cycle


def cycle_mean_extremes(base: TransitionMatrix, weights) -> CycleMeanExtremes:
    """Exact minimum and maximum mean cycle weight over the support graph.

    ``weights`` is an NxN array whose values on support edges are used;
    off-support values are ignored.
    """
    W = np.asarray(weights, dtype=float)
    n = base.n_symbols
    edges = [(i - 1, j - 1, float(W[i - 1, j - 1])) for i, j in base.edges()]
    lo, lo_cycle = _karp_min_mean(n, edges)
    hi_neg, hi_cycle = _karp_min_mean(n, [(u, v, -w) for u, v, w in edges])
    to_word = lambda cyc: tuple(v + 1 for v in cyc)
    return CycleMeanExtremes(lo, -hi_neg, to_word(lo_cycle), to_word(hi_cycle))
