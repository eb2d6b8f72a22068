"""Rigidity classification: spectrum twins, 2x2 verdicts, distinct-value sets.

For 2x2 shifts the classification is pointwise and complete: on the full
shift a potential is rigid exactly when its Gibbs matrix is neither of the
two Bernoulli-type families (away from alpha = 1/2), and on the non-full
shifts every potential is rigid.  For larger alphabets only the
distinct-value membership and the degree condition are reported.  The
seeded density probe takes each trial's perturbations in one draw from
its stream and solves all trials' tables in stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import log_p1_potential, log_p2_potential
from .perron import perron, perron_stack
from .shiftspace import TransitionMatrix, Word, out_degrees
from .sim import _trial_draws
from .thermo import (
    Potential,
    _blocks,
    _exp_on_support,
    _normalized_table,
    gibbs_markov,
    normalize_potential,
    reduce_to_order2,
)

ROW_TOL = 1e-10
HALF_TOL = 1e-10
GAP_TOL = 1e-9
OPENNESS_SUBTRIALS = 10
# The share c of an openness ball's certified radius that density_probe
# draws at; c < 2 / (2 + GAP_TOL) covers the growth of the scale over the
# ball, and the rest is left for rounding (density_probe's docstring).
BALL_SAFETY = 0.9


@dataclass(frozen=True)
class GnReport:
    member: bool
    margin: float
    collisions: tuple[tuple[Word, Word], ...]
    values: dict[Word, float]


def _distinct_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, list[tuple[int, int]]]]:
    """Least scaled gap |v_i - v_j| / max(1, max |v|) of each row of a (k, E)
    stack, that scale max(1, max |v|), and, by row, the index pairs with gap
    <= GAP_TOL of each row that has any, in combinations order.  Rounding is
    monotone, so along a sorted row the gaps from one value never fall: the
    least is an adjacent one, and a forward sweep stops at its first gap
    above the tolerance."""
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    scale = np.maximum(1.0, np.abs(values).max(axis=1, initial=0.0))
    gaps = np.diff(ranked, axis=1) / scale[:, np.newaxis]
    collisions: dict[int, list[tuple[int, int]]] = {}
    for row, start in zip(*np.nonzero(gaps <= GAP_TOL)):
        pairs = collisions.setdefault(int(row), [])
        end = start + 1
        while end < ranked.shape[1] and (ranked[row, end] - ranked[row, start]) / scale[row] <= GAP_TOL:
            pairs.append(tuple(sorted((int(order[row, start]), int(order[row, end])))))
            end += 1
    return gaps.min(axis=1, initial=np.inf), scale, {row: sorted(pairs) for row, pairs in collisions.items()}


def g_n_membership(f: Potential) -> GnReport:
    """Pairwise-distinctness of the normalized potential over n-words.

    For n >= 3 the eigenfunction lives on (n-1)-blocks; its logs transfer
    back to n-words through the recoding alphabet.  Order-1 inputs are
    reported on 2-words.
    """
    f2, recoding = reduce_to_order2(f)
    words = f.words if recoding else f2.words
    table = normalize_potential(f2).table
    margin, _, collisions = _distinct_values(table[np.newaxis])
    pairs = tuple((words[i], words[j]) for i, j in collisions.get(0, []))
    return GnReport(not pairs, float(margin[0]), pairs, dict(zip(words, table.tolist())))


@dataclass(frozen=True)
class PairCheck:
    pair: tuple[Word, Word]
    expression: float
    is_zero: bool
    definitional_collision: bool
    agrees: bool


def appendix_condition_check(Af: np.ndarray, orientation: str = "right-v") -> list[PairCheck]:
    """Per-pair distinctness expressions A(e)/A(e') - r(e)/r(e').

    ``Af`` is an edge matrix A(f); its support ``Af > 0`` is the base.  For
    an edge e = (i, j), r(e) = w_i / w_j with w = v (``right-v``) or
    w = 1/u (``left-u``); the latter matches the collision condition of the
    normalized potential exactly.  Each verdict is cross-reported against
    the definitional collision test, which normalizes log ``Af`` by the
    left vector of the same solve.  ``Af`` is checked before any solve: a
    non-finite or negative entry raises ValueError, and a support that is
    not square and primitive raises AperiodicityError.
    """
    if orientation not in ("right-v", "left-u"):
        raise ValueError("orientation must be 'right-v' or 'left-u'")
    Af = np.asarray(Af, dtype=float)
    if not (np.isfinite(Af) & (Af >= 0)).all():
        raise ValueError("edge matrix entries must be finite and non-negative")
    base = TransitionMatrix.from_entries((Af > 0).astype(int))
    triple = perron(Af)
    w = triple.right if orientation == "right-v" else 1.0 / triple.left
    f = Potential.from_matrix_log(base, Af)
    _, _, collisions = _distinct_values(_normalized_table(f, triple.left, f.table)[np.newaxis])
    colliding = np.zeros((len(f.words),) * 2, dtype=bool)
    for e, e2 in collisions.get(0, []):
        colliding[e, e2] = colliding[e2, e] = True

    i, j = base.edge_index
    a = Af[i, j]
    # pairs e = (i, j), e' = (k, l) in itertools.permutations order (the
    # off-diagonal grid, row-major); r(e)/r(e') = w_i w_l / (w_j w_k)
    x, y = np.nonzero(~np.eye(len(f.words), dtype=bool))
    expr = a[x] / a[y] - w[i[x]] * w[j[y]] / (w[j[x]] * w[i[y]])
    is_zero = np.abs(expr) <= GAP_TOL
    collision = colliding[x, y]
    columns = (column.tolist() for column in (x, y, expr, is_zero, collision, is_zero == collision))
    return [PairCheck((f.words[p], f.words[q]), *fields) for p, q, *fields in zip(*columns)]


@dataclass(frozen=True)
class RigidityReport:
    case: str
    strong_rigid: bool | None
    weak_rigid: bool | None
    g2_member: bool
    g2_margin: float
    g2_collisions: tuple[tuple[Word, Word], ...]
    condition_a1: bool
    in_E: bool | None = None
    twin: Potential | None = None
    twin_kind: str | None = None
    alpha_detected: float | None = None


def bernoulli_twin(alpha_detected: float, kind: str) -> Potential:
    """Spectrum twin of a detected Bernoulli-type potential on the full 2-shift."""
    if abs(alpha_detected - 0.5) <= HALF_TOL:
        raise ValueError("alpha = 1/2 has no twin: the two families coincide")
    if kind == "P1":
        return log_p2_potential(alpha_detected)
    if kind == "P2":
        return log_p1_potential(alpha_detected)
    raise ValueError("kind must be 'P1' or 'P2'")


def classify_2x2(f: Potential) -> RigidityReport:
    """Complete rigidity verdict for order-<=2 potentials on a 2x2 shift."""
    if f.base.n_symbols != 2:
        raise ValueError("classify_2x2 needs a 2-symbol base")
    f2, recoding = reduce_to_order2(f)
    if recoding is not None:
        raise ValueError("classify_2x2 needs an order-1 or order-2 potential")

    gn = g_n_membership(f2)
    cond = out_degrees(f.base).condition_a1
    full = bool((f.base.entries == 1).all())
    if not full:
        return RigidityReport(
            "nonfull-2x2", True, True, gn.member, gn.margin, gn.collisions, cond
        )

    P = gibbs_markov(f2).P
    alpha = float(P[0, 1])
    kind = None
    if np.max(np.abs(P[0] - P[1])) <= ROW_TOL:
        kind = "P1"
    elif np.max(np.abs(P[0] - P[1][::-1])) <= ROW_TOL:
        kind = "P2"
    in_E = kind is None or abs(alpha - 0.5) <= HALF_TOL
    twin = None if in_E else bernoulli_twin(alpha, kind)
    return RigidityReport(
        "full-2-shift",
        in_E,
        in_E,
        gn.member,
        gn.margin,
        gn.collisions,
        cond,
        in_E=in_E,
        twin=twin,
        twin_kind=None if in_E else kind,
        alpha_detected=None if kind is None else alpha,
    )


def classify_general(f: Potential) -> RigidityReport:
    """Partial report for N >= 3: distinct-value membership and (A.1) only."""
    gn = g_n_membership(f)
    cond = out_degrees(f.base).condition_a1
    return RigidityReport("general", None, None, gn.member, gn.margin, gn.collisions, cond)


@dataclass(frozen=True)
class DensityProbeResult:
    fraction: float
    members: int
    trials: int
    openness_checked: int
    openness_violations: int


def _member_rows(f2: Potential, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g_n_membership(...).margin of each row of a (k, E) stack of f2's
    tables and the scale its gaps are divided by, solved in stacked blocks
    (``thermo._blocks``).  A table that ``perron`` refuses raises that
    refusal."""
    margins, scales = [np.empty(0)], [np.empty(0)]
    for rows in _blocks(tables, f2.base.n_symbols**2):
        A = _exp_on_support(f2, table=rows)
        t, refused = perron_stack(A)
        # perron refuses each row the stack fails: a 2x2 one with a zero
        # off-diagonal entry, solved densely there, has a zero vector entry
        if refused.any():
            perron(A[np.argmax(refused)])
        margin, scale, _ = _distinct_values(_normalized_table(f2, t.left, rows))
        margins.append(margin)
        scales.append(scale)
    return np.concatenate(margins), np.concatenate(scales)


def _certified_radius(f2: Potential, tables: np.ndarray, margin: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """c (margin - GAP_TOL) scale / (2L) of each row of a (k, E) stack of
    member tables of f2, with their ``_member_rows`` margins and scales and
    c = BALL_SAFETY: the radius of the ball around each that holds members
    only (``density_probe`` proves it).

    L = 1 + 2p / (1 - tau) = 1 + p (1 + exp(Delta / 2)), where tau =
    tanh(Delta / 4) is the Birkhoff contraction coefficient of B = A^p, p =
    f2.base.aperiodicity_power and Delta = max log(B_ik B_jl / (B_il B_jk))
    is B's projective diameter; a B with a zero or non-finite entry gives L
    = inf and radius 0.  One stacked ``matrix_power`` a block
    (``thermo._blocks``) of A = np.exp of the tables: a bound needs no last
    bits of A."""
    n, p = f2.base.n_symbols, f2.base.aperiodicity_power
    src, dst = f2.base.edge_index
    diameters = [np.empty(0)]
    with np.errstate(all="ignore"):
        for rows in _blocks(tables, n**3):
            A = np.zeros((len(rows), n, n))
            A[:, src, dst] = np.exp(rows)
            R = np.log(np.linalg.matrix_power(A, p))
            # spread[m, i, j] = max_k (R_ik - R_jk); Delta = max (spread + its transpose)
            spread = (R[:, :, np.newaxis, :] - R[:, np.newaxis, :, :]).max(axis=3)
            diameters.append((spread + spread.transpose(0, 2, 1)).reshape(len(rows), -1).max(axis=1))
        L = 1.0 + p * (1.0 + np.exp(np.concatenate(diameters) / 2.0))
    return BALL_SAFETY * (margin - GAP_TOL) * scale / (2.0 * np.where(np.isnan(L), np.inf, L))


def density_probe(f: Potential, radius: float, trials: int, seed: int) -> DensityProbeResult:
    """Fraction of uniform table perturbations of radius ``radius`` that have
    pairwise-distinct normalized values, with a ball of tables around each
    member found, each of which must be a member again.  All trials are
    solved before any member's ball, so a failing trial table raises even
    where an earlier member's ball fails too.

    Member m's ball has radius r_m = min(radius / 100, c (margin_m -
    GAP_TOL) scale_m / (2 L_m)) (``_certified_radius``), with c =
    BALL_SAFETY and margin_m and scale_m from ``_member_rows``.  Every
    table in it is a member in exact arithmetic, so a violation reports a
    fault of the solve, not a ball the set need not contain.  Proof, in
    Hilbert's projective metric d_H with Birkhoff's contraction
    d_H(xB, yB) <= tau d_H(x, y) for B = A_m^p > 0 (Birkhoff 1957; Seneta,
    ch. 3):

    - A table moved by |delta|_inf <= r has A' = A_m exp(delta) entrywise,
      so each entry of B' = A'^p, a sum of p-edge products, is within a
      factor exp(+-pr) of B's, and d_H(xB', xB) <= 2pr for every x > 0.
    - The left vectors, u B = rho u and u' B' = rho' u', then satisfy
      d_H(u', u) <= d_H(u'B', u'B) + d_H(u'B, uB) <= 2pr + tau d_H(u', u),
      so d_H(u', u) <= 2pr / (1 - tau).
    - A normalized value g_ij + log u_i - log u_j moves by at most
      r + d_H(u', u) <= rL: each gap by at most 2rL, and the scale
      max(1, max |value|) grows by at most rL.
    - The least gap, margin_m scale_m, therefore stays above GAP_TOL times
      the grown scale when rL (2 + GAP_TOL) < (margin_m - GAP_TOL) scale_m.
      At r = r_m this holds for c < 2 / (2 + GAP_TOL), and the least gap
      clears the tolerance by at least (1 - c - c GAP_TOL / 2) (margin_m -
      GAP_TOL) scale_m: at c = 0.9, a tenth of the member's excess is left
      for the rounding of the two solves.

    Each ball draws uniform(-radius / 100, radius / 100) from its trial's
    stream and scales it by r_m / (radius / 100), so a ball whose radius is
    not cut keeps its draws bit for bit."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials!r}")
    if not (radius >= 0 and math.isfinite(2.0 * radius)):
        raise ValueError(f"radius must be non-negative, with 2 * radius finite, got {radius!r}")
    f2, _ = reduce_to_order2(f)
    size = f2.table.size
    shrunk = radius / 100.0
    # Each trial's stream draws its table's perturbation, then its ball's:
    # uniform(low, high) is low + (high - low) u of the stream's next doubles.
    draws = np.empty((trials, 1 + OPENNESS_SUBTRIALS, size))
    _trial_draws(draws, seed, (), range(trials))
    low = np.array([-radius] + [-shrunk] * OPENNESS_SUBTRIALS)[:, np.newaxis]
    draws *= np.array([radius] + [shrunk] * OPENNESS_SUBTRIALS)[:, np.newaxis] - low
    draws += low
    tables = f2.table + draws[:, 0]
    margin, scale = _member_rows(f2, tables)
    members = np.flatnonzero(margin > GAP_TOL)
    certified = _certified_radius(f2, tables[members], margin[members], scale[members])
    # radius 0 draws only zeros, which need no cut
    cut = np.minimum(shrunk, certified) / shrunk if shrunk else np.ones(members.size)
    balls = tables[members, np.newaxis] + draws[members, 1:] * cut[:, np.newaxis, np.newaxis]
    openness = _member_rows(f2, balls.reshape(-1, size))[0] > GAP_TOL
    fraction = members.size / trials if trials else 0.0
    return DensityProbeResult(fraction, members.size, trials, openness.size, int(openness.size - openness.sum()))
