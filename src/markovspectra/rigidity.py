"""Rigidity classification: spectrum twins, 2x2 verdicts, distinct-value sets.

For 2x2 shifts the classification is pointwise and complete: on the full
shift a potential is rigid exactly when its Gibbs matrix is neither of the
two Bernoulli-type families (away from alpha = 1/2), and on the non-full
shifts every potential is rigid.  For larger alphabets only the
distinct-value membership and the degree condition are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import log_p1_potential, log_p2_potential
from .perron import perron, perron_stack
from .shiftspace import TransitionMatrix, Word, out_degrees
from .sim import _trial_rngs
from .thermo import (
    ORACLE_BUFFER_FLOATS,
    Potential,
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


@dataclass(frozen=True)
class GnReport:
    member: bool
    margin: float
    collisions: tuple[tuple[Word, Word], ...]
    values: dict[Word, float]


def _distinct_values(values: np.ndarray) -> tuple[np.ndarray, list[list[tuple[int, int]]]]:
    """Least scaled gap |v_i - v_j| / max(1, max |v|) of each row of a (k, E)
    stack, and each row's index pairs with gap <= GAP_TOL, in combinations
    order.  Rounding is monotone, so along a sorted row the gaps from one
    value never fall: the least is an adjacent one, and a forward sweep
    stops at its first gap above the tolerance."""
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    scale = np.maximum(1.0, np.abs(values).max(axis=1, initial=0.0))
    gaps = np.diff(ranked, axis=1) / scale[:, np.newaxis]
    collisions: list[list[tuple[int, int]]] = [[] for _ in values]
    for row, start in zip(*np.nonzero(gaps <= GAP_TOL)):
        end = start + 1
        while end < ranked.shape[1] and (ranked[row, end] - ranked[row, start]) / scale[row] <= GAP_TOL:
            collisions[row].append(tuple(sorted((int(order[row, start]), int(order[row, end])))))
            end += 1
    return gaps.min(axis=1, initial=np.inf), [sorted(pairs) for pairs in collisions]


def g_n_membership(f: Potential) -> GnReport:
    """Pairwise-distinctness of the normalized potential over n-words.

    For n >= 3 the eigenfunction lives on (n-1)-blocks; its logs transfer
    back to n-words through the recoding alphabet.  Order-1 inputs are
    reported on 2-words.
    """
    f2, recoding = reduce_to_order2(f)
    words = f.words if recoding else f2.words
    table = normalize_potential(f2).table
    margin, collisions = _distinct_values(table[np.newaxis])
    pairs = tuple((words[i], words[j]) for i, j in collisions[0])
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
    the definitional collision test.
    """
    if orientation not in ("right-v", "left-u"):
        raise ValueError("orientation must be 'right-v' or 'left-u'")
    triple = perron(Af)
    w = triple.right if orientation == "right-v" else 1.0 / triple.left

    base = TransitionMatrix.from_entries((Af > 0).astype(int))
    f = Potential.from_matrix_log(base, Af)
    position = {word: k for k, word in enumerate(f.words)}
    colliding = np.zeros((len(f.words),) * 2, dtype=bool)
    for e, e2 in g_n_membership(f).collisions:
        colliding[position[e], position[e2]] = colliding[position[e2], position[e]] = True

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


def _member_rows(f2: Potential, tables: np.ndarray) -> np.ndarray:
    """g_n_membership(...).member of each row of a (k, E) stack of f2's
    tables, solved in blocks whose matrices hold at most ORACLE_BUFFER_FLOATS
    floats, as in pressure_by_preimages."""
    n = f2.base.n_symbols
    block = max(1, ORACLE_BUFFER_FLOATS // (n * n))
    member = []
    for start in range(0, len(tables), block):
        rows = tables[start : start + block]
        left = perron_stack(_exp_on_support(f2, table=rows)).left
        margin, _ = _distinct_values(_normalized_table(f2, left, rows))
        member.extend((margin > GAP_TOL).tolist())
    return np.array(member, dtype=bool)


def density_probe(f: Potential, radius: float, trials: int, seed: int) -> DensityProbeResult:
    """Fraction of uniform table perturbations that have pairwise-distinct
    normalized values, with a shrunken-ball probe around each member found.
    All trials are solved before any member's ball, so a failing trial table
    raises even where an earlier member's ball fails too."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials!r}")
    if not (radius >= 0 and math.isfinite(2.0 * radius)):
        raise ValueError(f"radius must be non-negative, with 2 * radius finite, got {radius!r}")
    f2, _ = reduce_to_order2(f)
    size = f2.table.size
    shrunk = radius / 100.0
    # Each trial's stream draws its table's perturbation, then its ball's.
    draws = np.empty((trials, 1 + OPENNESS_SUBTRIALS, size))
    for trial_draws, rng in zip(draws, _trial_rngs(seed, (), range(trials))):
        trial_draws[0] = rng.uniform(-radius, radius, size)
        trial_draws[1:] = rng.uniform(-shrunk, shrunk, (OPENNESS_SUBTRIALS, size))
    tables = f2.table + draws[:, 0]
    members = np.flatnonzero(_member_rows(f2, tables))
    balls = tables[members, np.newaxis] + draws[members, 1:]
    openness = _member_rows(f2, balls.reshape(-1, size))
    fraction = members.size / trials if trials else 0.0
    return DensityProbeResult(fraction, members.size, trials, openness.size, int(openness.size - openness.sum()))
