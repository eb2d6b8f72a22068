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


@dataclass(frozen=True)
class GnReport:
    member: bool
    margin: float
    collisions: tuple[tuple[Word, Word], ...]
    values: dict[Word, float]


def normalized_word_values(f: Potential) -> dict[Word, float]:
    """Values of the normalized potential on W_A^n for an order-n input.

    For n >= 3 the eigenfunction lives on (n-1)-blocks; its logs transfer
    back to n-words through the recoding alphabet.
    """
    if f.order <= 2:
        f2, _ = reduce_to_order2(f)
        return dict(normalize_potential(f2).values)
    f2, recoding = reduce_to_order2(f)
    fhat2 = normalize_potential(f2)
    return {recoding.edge_word(s, t): v for (s, t), v in fhat2.values.items()}


def g_n_membership(f: Potential, gap_tol: float = GAP_TOL) -> GnReport:
    """Pairwise-distinctness of the normalized potential over n-words."""
    values = normalized_word_values(f)
    scale = max(1.0, max(abs(v) for v in values.values()))
    margin = np.inf
    collisions = []
    for (w1, v1), (w2, v2) in itertools.combinations(sorted(values.items()), 2):
        gap = abs(v1 - v2) / scale
        margin = min(margin, gap)
        if gap <= gap_tol:
            collisions.append((w1, w2))
    return GnReport(not collisions, float(margin), tuple(collisions), values)


@dataclass(frozen=True)
class PairCheck:
    pair: tuple[Word, Word]
    expression: float
    is_zero: bool
    definitional_collision: bool
    agrees: bool


def appendix_condition_check(
    Af: np.ndarray,
    orientation: str = "right-v",
    tol: float = GAP_TOL,
) -> list[PairCheck]:
    """Per-pair distinctness expressions A(ij)/A(kl) - (eigenvector ratio).

    ``Af`` is an edge matrix A(f); its support ``Af > 0`` is the base.
    ``right-v`` uses the right eigenvector arrangement v_i v_l / (v_j v_k);
    ``left-u`` uses u_k u_j / (u_i u_l), which matches the collision
    condition of the normalized potential exactly.  Each verdict is
    cross-reported against the definitional collision test.
    """
    triple = perron(Af)
    if orientation == "right-v":
        w = triple.right

        def ratio(i, j, k, l):
            return w[i] * w[l] / (w[j] * w[k])

    elif orientation == "left-u":
        w = triple.left

        def ratio(i, j, k, l):
            return w[k] * w[j] / (w[i] * w[l])

    else:
        raise ValueError("orientation must be 'right-v' or 'left-u'")

    base = TransitionMatrix.from_entries((Af > 0).astype(int))
    f = Potential.from_matrix_log(base, Af)
    report = g_n_membership(f, gap_tol=tol)
    colliding = {frozenset(pair) for pair in report.collisions}

    words = admissible_words(base, 2)
    checks = []
    for (i, j), (k, l) in itertools.permutations(words, 2):
        expr = float(Af[i - 1, j - 1] / Af[k - 1, l - 1] - ratio(i - 1, j - 1, k - 1, l - 1))
        is_zero = abs(expr) <= tol
        collision = frozenset(((i, j), (k, l))) in colliding
        checks.append(PairCheck(((i, j), (k, l)), float(expr), is_zero, collision, is_zero == collision))
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


def density_probe(
    f: Potential,
    radius: float,
    trials: int,
    seed: int,
    gap_tol: float = GAP_TOL,
    openness_subtrials: int = 10,
) -> DensityProbeResult:
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
        if g_n_membership(g, gap_tol=gap_tol).member:
            members += 1
            for _ in range(openness_subtrials):
                openness_checked += 1
                h = perturbed(rng, g.values, radius / 100.0)
                if not g_n_membership(h, gap_tol=gap_tol).member:
                    openness_violations += 1
    return DensityProbeResult(
        members / trials if trials else 0.0,
        members,
        trials,
        openness_checked,
        openness_violations,
    )
