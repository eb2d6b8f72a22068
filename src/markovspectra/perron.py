"""Perron-Frobenius numerics for primitive non-negative matrices.

``perron`` solves primitive 2x2 matrices in closed form and larger ones
with dense LAPACK ``dgeev``, refined by one Newton step so that every entry
is accurate relative to its own size.  ``perron_stack`` solves a
``(k, n, n)`` stack; row i of its result is ``perron(A[i])``, bit for bit,
and its mask marks the rows that ``perron`` refuses.

The 2x2 closed form has two twins.  ``perron`` runs it and its acceptance
check in one pass on Python floats (6.4 us a solve, against 47 us as a
stack of one; best of 9 runs over 1,000 random matrices, 2-vCPU Xeon).
Each step is one IEEE operation except ``np.hypot`` (``math.hypot`` rounds
differently on some inputs) and the products M v, u M and u . v, which
``ndarray.dot`` sends to the BLAS kernels that the stack's ``np.matmul``
calls: they fuse multiply-adds that float arithmetic would round twice.

Larger matrices have one kernel, ``_perron_vectors``: ``perron`` calls it
on a stack of one and ``perron_stack`` on the whole stack.  It stacks the
k matrices and their k transposes, so the right and left eigenvectors of
every matrix come from one stacked dgeev and one stacked Newton solve.
LAPACK solves each matrix of a stack as it solves it alone, and every other
step is elementwise, a matmul or a sum taken in a fixed order, so a row's
bits do not depend on the stack around it.  The one order to keep: a left
half's Newton right-hand side is summed left to right (a cumulative sum),
the order in which NumPy sums the rows of the F-ordered view B.T and in
which the pinned bits were recorded; a plain sum along the row is pairwise
from 8 entries on and moves last bits.  A stack records each row's failure
and solves its other rows; ``thermo.solve_tables``, which must fail on a
failing row, asks that row's own ``perron`` for its error.  ``perron`` keeps its own dense path:
as row 0 of a stack of one, a solve cost 1.30, 1.20 and 1.14 times as much
at n = 3, 8 and 16 (medians of 600 interleaved rounds, 2-vCPU x86-64).

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


def _perron_vectors(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Perron root and right and left eigenvectors of each matrix of the
    (k, n, n) stack B, accurate in every entry, and the error message of
    each failing matrix by index, its right half's before its left one's;
    a failing matrix's rows hold no solution.  An eig LinAlgError propagates.

    The right halves of B and of B's transposes (the left halves) form one
    stack of 2k: one dgeev, then one Newton solve.  dgeev's error is
    normwise, so entries far below the largest may carry large relative
    errors.  One Newton step fixes them in the basis scaled by the dgeev
    vector v, where the Perron vector of D^-1 B D (D = diag(v)) is close to
    all ones.
    """
    k, n = len(B), B.shape[1]
    S = np.concatenate([B, B.transpose(0, 2, 1)])
    values, vectors = np.linalg.eig(S)
    rows, top = np.arange(2 * k), np.argmax(values.real, axis=1)
    mu, v = values[rows, top], vectors[rows, :, top].real
    v = np.where((v.sum(axis=1) >= 0)[:, np.newaxis], v, -v)
    errors: dict[int, str] = {}
    for i in (~((mu.imag == 0) & (mu.real > 0) & (v > 0).all(axis=1))).nonzero()[0].tolist():
        # eig returns a complex stack if any matrix has a complex eigenvalue;
        # the root prints as one matrix's own eig would print it
        root = mu[i] if values[i].imag.any() else mu[i].real
        errors.setdefault(i % k, f"dominant eigenpair is not positive: root {root}, least entry {v[i].min():.3e}")
    mu = mu.real
    # Newton step from (w, mu) = (1, mu) for C w = mu w with sum(dw) = 0;
    # a failing matrix's NaN or inf stays in its own rows.
    C = S * v[:, np.newaxis, :] / v[:, :, np.newaxis]
    J = np.ones((2 * k, n + 1, n + 1))
    J[:, :n, :n] = C - mu[:, np.newaxis, np.newaxis] * np.eye(n)
    J[:, :n, n], J[:, n, n] = -1.0, 0.0
    # A left half's row sums run left to right, as they do on the F-ordered
    # view B.T: n >= 8 entries would otherwise be summed pairwise.
    rhs = np.zeros((2 * k, n + 1, 1))
    rhs[:, :n, 0] = mu[:, np.newaxis] - np.concatenate([C[:k].sum(axis=2), np.cumsum(C[k:], axis=2)[:, :, -1]])
    try:
        step = np.linalg.solve(J, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stacked solve: solve each alone
        step = np.full((2 * k, n + 1), np.nan)
        for i in range(2 * k):
            try:
                step[i] = np.linalg.solve(J[i : i + 1], rhs[i : i + 1])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                errors.setdefault(i % k, f"Perron root is not simple: {exc}")
    mu, v = mu + step[:, n], v * (1.0 + step[:, :n])
    return mu[:k], v[:k], v[k:], errors


def _perron_2x2(M: np.ndarray, a: float, b: float, c: float, d: float) -> PerronTriple:
    """``perron`` of the primitive 2x2 matrix M = [[a, b], [c, d]] (b, c > 0)
    in closed form, with ``_accepted_residual``'s check unrolled.

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
        r0, r1 = b / total, gap / total
        right = np.array((r0, r1))
        dot = float(np.array((c, gap)).dot(right))
        l0, l1 = c / dot, gap / dot
    except ZeroDivisionError as exc:
        raise NonConvergenceError("2x2 closed form divides by zero: an entry product under- or overflows") from exc
    if not (0 < l0 < math.inf and 0 < l1 < math.inf and 0 < r0 < math.inf and 0 < r1 < math.inf):
        raise NonConvergenceError("Perron eigenvectors are not strictly positive")
    root = a + gap
    if not 0 < root < math.inf:
        raise NonConvergenceError(f"Perron root {root!r} is not positive and finite")
    left = np.array((l0, l1))
    (Mr0, Mr1), (lM0, lM1) = M.dot(right).tolist(), left.dot(M).tolist()
    right_residual = max(abs(Mr0 - root * r0), abs(Mr1 - root * r1)) / max(r0, r1)
    residual = max(right_residual, max(abs(lM0 - root * l0), abs(lM1 - root * l1)) / max(l0, l1))
    if not (residual <= RESIDUAL_TOL * root and all(map(math.isfinite, (Mr0, Mr1, lM0, lM1)))):
        raise NonConvergenceError(f"Perron residual {residual:.3e} exceeds tol={RESIDUAL_TOL} times the root")
    return PerronTriple(root, left, right, residual, 0)


def _closed_form_stack(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_perron_2x2`` on a (k, 2, 2) stack; a zero divisor leaves a NaN or
    inf that fails acceptance."""
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    s = np.hypot(a - d, 2.0 * np.sqrt(b * c))
    gap = np.where(a >= d, 2.0 * b * c / (s + (a - d)), ((d - a) + s) / 2.0)
    right = np.stack([b, gap], axis=1) / (b + gap)[:, np.newaxis]
    cg = np.stack([c, gap], axis=1)
    return a + gap, cg / np.matmul(cg[:, np.newaxis, :], right[:, :, np.newaxis])[:, 0], right


def _accepted_residual(M: np.ndarray, root: float, left: np.ndarray, right: np.ndarray) -> float:
    """Residual of a dense solve's normalized Perron triple that passes the
    acceptance check, else NonConvergenceError.

    The check asks for finite and strictly positive vectors, a finite
    positive root, and a max-normalized residual max|Mx - root x| / max x
    (for M v and u M, against M) of at most ``RESIDUAL_TOL * root``.
    Finiteness is tested entry by entry, because ``min`` and ``max`` over a
    list skip a NaN that is not first.  With finite vectors and root, a
    residual term is NaN only when a product overflows, which the last test
    catches.  ``_perron_2x2`` inlines it, ``_accepted_residuals`` stacks it.
    """
    l, r = left.tolist(), right.tolist()
    if not (all(map(math.isfinite, l + r)) and min(l + r) > 0):
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


def _accepted_residuals(M: np.ndarray, root: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple:
    """``_accepted_residual`` of each row of a stack: the residuals and the
    mask of the rows that pass."""
    Mr = np.matmul(M, right[:, :, np.newaxis])[:, :, 0]
    lM = np.matmul(left[:, np.newaxis, :], M)[:, 0]
    residual = np.maximum(
        np.abs(Mr - root[:, np.newaxis] * right).max(axis=1) / right.max(axis=1),
        np.abs(lM - root[:, np.newaxis] * left).max(axis=1) / left.max(axis=1),
    )
    finite = np.isfinite(left) & np.isfinite(right) & np.isfinite(Mr) & np.isfinite(lM)
    ok = (finite & (left > 0) & (right > 0)).all(axis=1) & (root > 0) & (root < math.inf)
    return residual, ok & (residual <= RESIDUAL_TOL * root)


def perron(A: np.ndarray) -> PerronTriple:
    """Perron root and positive left/right eigenvectors of the primitive
    non-negative array ``A``.

    Primitive 2x2 matrices take ``_perron_2x2``: the closed form and its
    acceptance check in one pass on Python floats, with ``np.hypot`` and
    the three products (``ndarray.dot``) in NumPy for their rounding.
    Larger ones are scaled to M / max(M) and solved by ``_perron_vectors``
    as a stack of one: one dgeev (which balances each matrix itself) for M
    and its transpose, and one Newton solve for both vectors, warnings
    silenced, then checked by ``_accepted_residual``.  Both return only an
    accepted triple, else raise NonConvergenceError.
    """
    M = np.asarray(A, dtype=float)
    if M.shape == (2, 2):
        (a, b), (c, d) = M.tolist()
        if b > 0 and c > 0:
            return _perron_2x2(M, a, b, c, d)
    # Work on M / max(M): the root scales linearly and extreme magnitudes
    # (e.g. strongly tilted matrices) stay representable.
    magnitude = float(np.max(M))
    if magnitude <= 0 or not np.isfinite(magnitude):
        raise NonConvergenceError("matrix has no positive finite entries")
    with np.errstate(all="ignore"):
        mu, right, left, errors = _perron_vectors((M / magnitude)[np.newaxis])
        if errors:
            raise NonConvergenceError(errors[0])
        root = float(mu[0]) * magnitude
        right = right[0] / right[0].sum()
        left = left[0] / float(left[0] @ right)
        residual = _accepted_residual(M, root, left, right)
    return PerronTriple(root, left, right, residual, 1)


def perron_stack(A: np.ndarray) -> tuple[PerronTriple, np.ndarray]:
    """``perron`` of each matrix of the (k, n, n) stack ``A``, bit for bit:
    row i of each field is ``perron(A[i])``'s.  Also returns the mask of the
    rows that ``perron`` refuses, whose fields hold no solution.  A 2x2 stack
    takes ``_closed_form_stack``, any other one ``_perron_vectors``.
    Floating-point warnings are silenced: a row that raises one fails."""
    M = np.asarray(A, dtype=float)
    k, n = M.shape[:2]
    with np.errstate(all="ignore"):
        if n == 2:
            (root, left, right), errors = _closed_form_stack(M), {}
        else:
            magnitude = M.max(axis=(1, 2))
            B = M / magnitude[:, np.newaxis, np.newaxis]
            # a row with no positive finite entry solves as 0, and fails
            B[~(np.isfinite(magnitude) & (magnitude > 0))] = 0.0
            mu, right, left, errors = _perron_vectors(B)
            root = mu * magnitude
            right = right / right.sum(axis=1)[:, np.newaxis]
            left = left / np.matmul(left[:, np.newaxis, :], right[:, :, np.newaxis])[:, 0]
        residual, accepted = _accepted_residuals(M, root, left, right)
    accepted[list(errors)] = False
    return PerronTriple(root, left, right, residual, np.full(k, int(n != 2))), ~accepted


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
    """Stationary probability vector of a row-stochastic matrix: finite,
    non-negative entries whose rows sum to 1."""
    M = np.asarray(P, dtype=float)
    if not ((M >= 0) & (M < math.inf)).all():
        raise StochasticityError("transition probabilities must be finite and non-negative")
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


def _karp_min_mean(W: np.ndarray) -> list[tuple[float, tuple[int, ...]]]:
    """Karp's minimum mean cycle of each graph of the (g, n, n) stack W of
    edge weights (+inf off the graph), with 0-based vertices.

    D[k, g, v] is the least weight of a k-edge walk in graph g ending at v;
    D[0] = 0 at every vertex starts a walk anywhere, so every vertex is
    reachable.  Each step is one min-plus product over the whole stack; min
    is exact, so each graph gets the bits of a run on it alone.  Ties take
    the lowest predecessor (argmin keeps the first minimum).
    """
    n = W.shape[1]
    D = np.zeros((n + 1,) + W.shape[:2])
    parent = np.zeros(D.shape, dtype=int)
    for k in range(1, n + 1):
        walks = D[k - 1][:, :, np.newaxis] + W
        parent[k] = walks.argmin(axis=1)
        D[k] = walks.min(axis=1)

    # A vertex with no n-edge walk has D[n] = inf: inf - inf is NaN, which
    # fmax skips, and the finite D[0] gives it the ratio +inf.
    with np.errstate(invalid="ignore"):
        ratios = (D[n] - D[:n]) / (n - np.arange(n))[:, np.newaxis, np.newaxis]
    worst = np.fmax.reduce(ratios, axis=0)
    results = []
    for g, best_v in enumerate(np.argmin(worst, axis=1).tolist()):
        best = float(worst[g, best_v])
        # The optimal n-edge walk into best_v contains a min-mean cycle.
        walk = [best_v]
        for k in range(n, 0, -1):
            walk.append(int(parent[k, g, walk[-1]]))
        walk.reverse()
        seen: dict[int, int] = {}
        cycle: tuple[int, ...] = ()
        for pos, vertex in enumerate(walk):
            if vertex in seen:
                cycle = tuple(walk[seen[vertex] : pos])
                break
            seen[vertex] = pos
        mean = sum(W[g, u, v] for u, v in zip(cycle, cycle[1:] + cycle[:1])) / len(cycle)
        if abs(mean - best) > 1e-9 * max(1.0, abs(best)):
            raise NonConvergenceError("extracted cycle does not realize the Karp optimum")
        results.append((best, cycle))
    return results


def cycle_mean_extremes(base: TransitionMatrix, weights) -> CycleMeanExtremes:
    """Exact minimum and maximum mean cycle weight over the support graph,
    from one Karp run on the stack of W and -W.

    ``weights`` is an NxN array whose values on support edges are used;
    off-support values are ignored.
    """
    W = np.asarray(weights, dtype=float)
    (lo, lo_cycle), (hi_neg, hi_cycle) = _karp_min_mean(np.where(base.entries == 1, [W, -W], np.inf))
    # W and -W keep different rounded Karp ratios: equal extremes (a constant
    # W) can come out one ulp the wrong way round, so the means are returned
    # in order
    lo, hi = sorted((lo, -hi_neg))
    to_word = lambda cyc: tuple(v + 1 for v in cyc)
    return CycleMeanExtremes(lo, hi, to_word(lo_cycle), to_word(hi_cycle))
