"""Command-line surface: pressure, spectrum, compare, classify, audit, sample.

Structured results go to stdout as JSON; curves and histograms go to CSV
files.  Exit codes: 0 success, 2 parse/validation error, 3 solver
non-convergence or a potential out of floating-point range, 4 Gibbs-audit
violation, 5 resource cap exceeded or memory exhausted.  A library error
exits with its type's ``exit_code``.
The verdict-carrying commands (compare, classify) exit 0 with either
verdict, but like every command they exit 3 when a solve fails on valid
input: ``compare`` of 20 log P1(1/3) against 20 log P2(1/3) does.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import EnumerationCapError, MarkovSpectraError
from .modelio import parse_model, serialize_model, word_key
from .perron import perron
from .rigidity import classify_2x2, classify_general
from .shiftspace import word_count
from .spectrum import alpha_range, sample_spectrum, spectra_equal
from .sim import empirical_local_entropy
from .thermo import (
    BetaFunction,
    entropy_rate,
    gibbs_constant_audit,
    gibbs_markov,
    pressure_by_preimages,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_AUDIT = 4
EXIT_RESOURCE = 5

MAX_Q_POINTS = 100_001
# Largest pressure --oracle-depth and gibbs-audit --depth.
MAX_DEPTH = 10_000
# The oracle advances every order-2 symbol's preimage sum together; each of
# its depth steps sums a symbols^2 block per terminal: depth x symbols^3 cell
# updates.  With the depth cap this bounds a whole request to under a second
# on a 2-vCPU x86-64 host: 0.84 s for 21 symbols at depth 10,000, the longest
# accepted (0.69 s for 32 symbols at depth 3,051, 0.81 s for 343 at depth 2).
MAX_ORACLE_WORK = 10**8


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_pressure(args) -> int:
    model = parse_model(args.model)
    if args.oracle_depth is not None:
        symbols = word_count(model.base, max(model.potential.order, 2) - 1)
        work = args.oracle_depth * symbols**3
        if work > MAX_ORACLE_WORK:
            raise EnumerationCapError(
                f"--oracle-depth {args.oracle_depth} on {symbols} order-2 symbols needs"
                f" {work} cell updates, over the cap {MAX_ORACLE_WORK}"
            )
    bf = BetaFunction(model.potential)
    triple = perron(bf.matrix(1.0))  # bf.triple(1.0) again: ROADMAP items 2 and 3 drop it
    out = {
        "pressure": bf.pressure,
        "lambda": triple.root,
        "left_eigenvector": list(triple.left),
        "right_eigenvector": list(triple.right),
        "residual": triple.residual,
    }
    if args.oracle_depth is not None:
        estimates = pressure_by_preimages(bf.f2, args.oracle_depth)
        out["oracle"] = {
            "depth": args.oracle_depth,
            "estimates": {str(t): v for t, v in enumerate(estimates, 1)},
            "max_gap": max(abs(v - bf.pressure) for v in estimates),
        }
    _emit(out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    model = parse_model(args.model)
    qmin, qmax, qstep = args.qmin, args.qmax, args.qstep
    if qmin > qmax:
        raise ValueError(f"empty q grid: --qmin {qmin} exceeds --qmax {qmax}")
    stop = qmax + qstep / 2
    # np.arange makes ceil((stop - qmin) / qstep) points; inf when the range overflows
    if (stop - qmin) / qstep > MAX_Q_POINTS:
        raise ValueError(
            f"q grid too large: --qmin {qmin} --qmax {qmax} --qstep {qstep}"
            f" give more than {MAX_Q_POINTS} points"
        )
    # arange's values, but only its points qmin + i qstep up to qmax within the
    # rounding of the inputs, and qmin alone where qmax absorbs qstep / 2
    grid = np.arange(qmin, stop, qstep)
    i = np.arange(grid.size)
    slack = 4 * np.finfo(float).eps * (abs(qmin) + abs(qmax) + i * qstep)
    grid = grid[i * qstep <= qmax - qmin + slack] if grid.size else np.array([qmin])
    # arange steps by (qmin + qstep) - qmin, which rounds to 0 below the spacing of doubles at qmin
    if (np.diff(grid) <= 0).any():
        raise ValueError(
            f"q grid repeats points: --qstep {qstep} is below the spacing of doubles at --qmin {qmin}"
        )
    bf = BetaFunction(model.potential)
    curve = sample_spectrum(bf, grid)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["q", "alpha", "beta", "E", "flags"])
            for s in curve.samples:
                writer.writerow([repr(s.q), repr(s.alpha), repr(s.beta), repr(s.entropy), s.flag])
    peak = max(curve.samples, key=lambda s: s.entropy)
    _emit(
        {
            "alpha_min": curve.alpha_min,
            "alpha_max": curve.alpha_max,
            "degenerate": curve.degenerate,
            "h_top": bf.beta(0.0),
            # re-solves bf.matrix(1.0) bit for bit; ROADMAP items 2 and 3 read it from bf
            "h_mu": entropy_rate(gibbs_markov(bf.f2)),
            "peak": {"alpha": peak.alpha, "E": peak.entropy},
            "samples": len(curve.samples),
            "csv": args.out,
        }
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    f = parse_model(args.model_f).potential
    g = parse_model(args.model_g).potential
    _emit(dataclasses.asdict(spectra_equal(f, g, tol=args.tol)))
    return EXIT_OK


def cmd_classify(args) -> int:
    model = parse_model(args.model)
    if model.base.n_symbols == 2 and model.potential.order <= 2:
        report = classify_2x2(model.potential)
    else:
        report = classify_general(model.potential)
    out = {
        "case": report.case,
        "strong_rigid": report.strong_rigid,
        "weak_rigid": report.weak_rigid,
        "in_E": report.in_E,
        "g2_member": report.g2_member,
        "g2_margin": report.g2_margin,
        "g2_collisions": [[word_key(a), word_key(b)] for a, b in report.g2_collisions],
        "condition_A1": report.condition_a1,
        "alpha_detected": report.alpha_detected,
        "twin_kind": report.twin_kind,
        "twin": serialize_model(report.twin) if report.twin is not None else None,
    }
    _emit(out)
    return EXIT_OK


def cmd_gibbs_audit(args) -> int:
    model = parse_model(args.model)
    audit = gibbs_constant_audit(model.potential, depth=args.depth)
    _emit(dataclasses.asdict(audit))
    return EXIT_OK if audit.within_bounds else EXIT_AUDIT


def cmd_sample(args) -> int:
    model = parse_model(args.model)
    mu = gibbs_markov(model.potential)
    result = empirical_local_entropy(mu, args.n, args.trials, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["bucket_low", "bucket_high", "count"])
            for lo, hi, count in zip(result.bin_edges, result.bin_edges[1:], result.counts):
                writer.writerow([repr(float(lo)), repr(float(hi)), int(count)])
    _emit(
        {
            "mean": result.mean,
            "std_error": result.std_error,
            "target_entropy_rate": entropy_rate(mu),
            "n": result.n,
            "trials": result.trials,
            "seed": result.seed,
            "csv": args.out,
        }
    )
    return EXIT_OK


def _bounded(kind, low=-math.inf, strict: bool = False, high=math.inf):
    """argparse type: a finite ``kind`` number >= low (> low when strict)
    and <= high."""

    def number(text: str):
        value = kind(text)
        # not math.isfinite, which overflows on ints beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not (value > low if strict else value >= low):
            bound = "greater than" if strict else "at least"
            raise argparse.ArgumentTypeError(f"must be {bound} {low}, got {text}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return value

    return number


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="markovspectra",
        description="Gibbs measures, pressure and entropy spectra on Markov shifts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="topological pressure and Perron data")
    p.add_argument("model")
    p.add_argument("--oracle-depth", type=_bounded(int, 2, high=MAX_DEPTH), default=None)

    p = sub.add_parser("spectrum", help="sample the entropy spectrum curve")
    p.add_argument("model")
    p.add_argument("--qmin", type=_bounded(float), default=-10.0)
    p.add_argument("--qmax", type=_bounded(float), default=10.0)
    p.add_argument("--qstep", type=_bounded(float, 0.0, strict=True), default=0.5)
    p.add_argument("--out", default=None, help="CSV output path")

    p = sub.add_parser("compare", help="decide spectrum equality of two models")
    p.add_argument("model_f")
    p.add_argument("model_g")
    p.add_argument("--tol", type=_bounded(float, 0.0), default=1e-9)

    p = sub.add_parser("classify", help="rigidity classification report")
    p.add_argument("model")

    p = sub.add_parser("gibbs-audit", help="audit the defining Gibbs inequality")
    p.add_argument("model")
    p.add_argument("--depth", type=_bounded(int, 1, high=MAX_DEPTH), default=12)

    p = sub.add_parser("sample", help="Monte-Carlo local entropy exponents")
    p.add_argument("model")
    p.add_argument("--n", type=_bounded(int, 1), default=10_000)
    p.add_argument("--trials", type=_bounded(int, 100), default=10_000)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--out", default=None, help="histogram CSV output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # by name at call time, so a rebound cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except MarkovSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
