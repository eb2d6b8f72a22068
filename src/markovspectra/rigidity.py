"""Rigidity classification: spectrum twins, 2x2 verdicts, distinct-value sets.

For 2x2 shifts the classification is pointwise and complete: on the full
shift a potential is rigid exactly when its Gibbs matrix is neither of the
two Bernoulli-type families (away from alpha = 1/2), and on the non-full
shifts every potential is rigid.  For larger alphabets only the
distinct-value membership and the degree condition are reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .families import log_p1_potential, log_p2_potential
from .perron import perron
from .shiftspace import TransitionMatrix, Word, admissible_words, out_degrees
from .thermo import Potential, gibbs_markov, normalize_potential, reduce_to_order2

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


def g_n_membership(f: Potential) -> GnReport:
    """Pairwise-distinctness of the normalized potential over n-words.

    For n >= 3 the eigenfunction lives on (n-1)-blocks; its logs transfer
    back to n-words through the recoding alphabet.  Order-1 inputs are
    reported on 2-words.
    """
    f2, recoding = reduce_to_order2(f)
    word = recoding.edge_word if recoding else lambda s, t: (s, t)
    values = {word(s, t): v for (s, t), v in normalize_potential(f2).values.items()}
    scale = max(1.0, max(abs(v) for v in values.values()))
    margin = np.inf
    collisions = []
    for (w1, v1), (w2, v2) in itertools.combinations(sorted(values.items()), 2):
        gap = abs(v1 - v2) / scale
        margin = min(margin, gap)
        if gap <= GAP_TOL:
            collisions.append((w1, w2))
    return GnReport(not collisions, float(margin), tuple(collisions), values)


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
    report = g_n_membership(Potential.from_matrix_log(base, Af))
    colliding = {frozenset(pair) for pair in report.collisions}

    words = admissible_words(base, 2)
    i, j = np.array(words).T - 1
    a = Af[i, j]
    # r(e)/r(e') = w_i w_l / (w_j w_k) for e = (i, j), e' = (k, l)
    expressions = a[:, None] / a[None, :] - np.outer(w[i], w[j]) / np.outer(w[j], w[i])
    checks = []
    for (x, e), (y, e2) in itertools.permutations(enumerate(words), 2):
        expr = float(expressions[x, y])
        is_zero = abs(expr) <= GAP_TOL
        collision = frozenset((e, e2)) in colliding
        checks.append(PairCheck((e, e2), expr, is_zero, collision, is_zero == collision))
    return checks


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


def density_probe(f: Potential, radius: float, trials: int, seed: int) -> DensityProbeResult:
    """Fraction of uniform table perturbations that have pairwise-distinct
    normalized values, with a shrunken-ball probe around each member found."""
    f2, _ = reduce_to_order2(f)
    words = sorted(f2.values)

    def perturbed(rng, center: dict, eps: float) -> Potential:
        noise = rng.uniform(-eps, eps, size=len(words))
        return Potential(f2.base, 2, {w: center[w] + noise[k] for k, w in enumerate(words)})

    members = 0
    openness_checked = 0
    openness_violations = 0
    for trial in range(trials):
        # Per-trial stream so trials can be partitioned without changing results.
        rng = np.random.default_rng((seed, trial))
        g = perturbed(rng, f2.values, radius)
        if g_n_membership(g).member:
            members += 1
            for _ in range(OPENNESS_SUBTRIALS):
                openness_checked += 1
                h = perturbed(rng, g.values, radius / 100.0)
                if not g_n_membership(h).member:
                    openness_violations += 1
    return DensityProbeResult(
        members / trials if trials else 0.0,
        members,
        trials,
        openness_checked,
        openness_violations,
    )
