"""Seeded job mixes for the markovspectra benchmark, with independent checks.

A job is one request to the program: either a CLI request through
``markovspectra.cli.main(argv)`` with stdout captured, or a library call
for a function that has no CLI command.  Inputs reach the program only as
model JSON text.  Every reference value a check compares against is
computed here with plain numpy (dense eigen-decompositions, no code from
the package), so a wrong answer from the program cannot also be the
reference.

A workload is a list of job *templates* drawn from
``default_rng((seed, workload index))``.  The benchmark runs every template
several times, once per *pass*; pass ``p`` draws from
``default_rng((seed, workload index, p))`` a cost twin of each template
(see ``shifted``), so the same seed always gives the same inputs, every
pass does the same work, and no request is repeated byte for byte.  The
spectra workload draws its potentials from a fixed seed instead (see
``POTENTIAL_SEED``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import markovspectra as ms
from markovspectra import cli

FULL2 = np.ones((2, 2), dtype=int)
FULL3 = np.ones((3, 3), dtype=int)
GOLDEN = np.array([[1, 1], [1, 0]])
REVERSE_GOLDEN = np.array([[0, 1], [1, 1]])


@dataclass(frozen=True)
class Job:
    """One request.  ``argv`` for a CLI request, ``call`` for a library call.

    ``check`` receives the parsed JSON payload (CLI) or the returned object
    (library) and returns None when the result is right, else a reason.
    """

    kind: str
    check: Callable[[object], str | None]
    argv: tuple[str, ...] | None = None
    call: Callable[[], object] | None = None


@dataclass(frozen=True)
class Outcome:
    latency: float
    output: str  # exact text the job produced (compared across runs)
    error: str | None  # exception or unexpected exit code
    value: object = None  # parsed payload or returned object, for the check


def run_job(job: Job) -> Outcome:
    """Run one job, timing only the request itself."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(list(job.argv))
                except SystemExit as exc:  # argparse rejects arguments this way
                    code = exc.code
            value = None
        else:
            value = job.call()
            code = 0
    except Exception as exc:  # a crash fails the job; the run goes on
        latency = time.perf_counter() - start
        text = f"{type(exc).__name__}: {exc}"
        return Outcome(latency, text, text)
    latency = time.perf_counter() - start
    if job.argv is None:
        return Outcome(latency, repr(value), None, value)
    output = stdout.getvalue()
    if code != 0:
        return Outcome(latency, f"exit {code}\n{output}{stderr.getvalue()}", f"exit code {code}")
    try:
        value = json.loads(output)
    except json.JSONDecodeError:
        value = None
    return Outcome(latency, output, None, value)


def check_outcome(job: Job, outcome: Outcome) -> str | None:
    """None when the job passed; otherwise why it failed."""
    if outcome.error is not None:
        return outcome.error
    if job.argv is not None and outcome.value is None:
        return "stdout is not JSON"
    try:
        return job.check(outcome.value)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed result: {type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# Model construction and numpy references


def words_of(support: np.ndarray, length: int) -> list[tuple[int, ...]]:
    """Admissible words (1-based symbols) of a 0/1 support, lexicographic."""
    n = support.shape[0]
    words = [(i,) for i in range(1, n + 1)]
    for _ in range(length - 1):
        words = [w + (j,) for w in words for j in range(1, n + 1) if support[w[-1] - 1, j - 1]]
    return words


def primitive(support: np.ndarray) -> bool:
    n = support.shape[0]
    base = support.astype(bool)
    power = base.copy()
    for _ in range(n * n - 2 * n + 2):
        if power.all():
            return True
        power = (power.astype(np.int64) @ base) > 0
    return bool(power.all())


def random_support(rng, n: int) -> np.ndarray:
    while True:
        support = (rng.random((n, n)) < 0.55).astype(int)
        if primitive(support):
            return support


@dataclass(frozen=True)
class Model:
    """A potential as the program sees it (JSON text) plus its order-2 form."""

    text: str
    support: np.ndarray  # 0/1 base of the text
    weights: np.ndarray  # order-2 log-weights on the reduced alphabet, -inf off support


def model_text(support: np.ndarray, order: int, values: dict) -> str:
    if support.shape[0] <= 9:
        table = {"".join(map(str, w)): v for w, v in sorted(values.items())}
    else:
        table = [[list(w), v] for w, v in sorted(values.items())]
    return json.dumps(
        {"transition": support.tolist(), "potential": {"order": order, "values": table}}
    )


def block_form(support: np.ndarray, order: int, values: dict) -> tuple[np.ndarray, np.ndarray]:
    """Order-2 support and log-weights on the (order-1)-block alphabet."""
    if order == 1:
        w = np.where(support == 1, 0.0, -np.inf)
        for (i,), v in values.items():
            w[i - 1, support[i - 1] == 1] = v
        return support, w
    if order == 2:
        w = np.full(support.shape, -np.inf)
        for (i, j), v in values.items():
            w[i - 1, j - 1] = v
        return support, w
    blocks = words_of(support, order - 1)
    index = {b: k for k, b in enumerate(blocks)}
    m = len(blocks)
    block_support = np.zeros((m, m), dtype=int)
    w = np.full((m, m), -np.inf)
    for word, v in values.items():
        s, t = index[word[:-1]], index[word[1:]]
        block_support[s, t] = 1
        w[s, t] = v
    return block_support, w


def random_values(rng, support: np.ndarray, order: int) -> dict:
    """Potential values uniform in [-0.5, 0.5]."""
    return {w: float(rng.uniform(-0.5, 0.5)) for w in words_of(support, order)}


def make_model(support: np.ndarray, order: int, values: dict) -> Model:
    _, weights = block_form(support, order, values)
    return Model(model_text(support, order, values), support, weights)


def random_model(rng, support: np.ndarray, order: int) -> Model:
    return make_model(support, order, random_values(rng, support, order))


def shifted(values: dict, rng) -> dict:
    """Cost twin of a potential: the same values plus a constant drawn from
    rng.  The constant moves the pressure by itself and leaves the Gibbs
    measure, the spectrum and the Perron iteration counts as they were
    (power iteration works on M / max M), so the twins of one template do
    the same work on inputs that differ byte for byte."""
    c = float(rng.uniform(-0.5, 0.5))
    return {w: v + c for w, v in values.items()}


def higher_block_twin(support: np.ndarray, order: int, values: dict) -> str:
    """Order-2 model on the (order-1)-block alphabet, built directly."""
    block_support, w = block_form(support, order, values)
    table = {
        (int(s) + 1, int(t) + 1): float(w[s, t]) for s, t in zip(*np.nonzero(block_support))
    }
    return model_text(block_support, 2, table)


@dataclass(frozen=True)
class Spectral:
    root: float
    left: np.ndarray
    right: np.ndarray
    matrix: np.ndarray


def spectral(weights: np.ndarray, q: float = 1.0) -> Spectral:
    """Perron data of exp(q * weights) by dense eigen-decomposition."""
    mask = np.isfinite(weights)
    M = np.zeros(weights.shape)
    M[mask] = np.exp(q * weights[mask])
    vals, vecs = np.linalg.eig(M)
    k = int(np.argmax(vals.real))
    right = np.abs(vecs[:, k].real)
    lvals, lvecs = np.linalg.eig(M.T)
    left = np.abs(lvecs[:, int(np.argmax(lvals.real))].real)
    return Spectral(float(vals[k].real), left, right, M)


def pressure_ref(weights: np.ndarray) -> float:
    return math.log(spectral(weights).root)


def alpha_ref(weights: np.ndarray, q: float) -> float:
    """alpha(q) = P(f) - d log lambda(q) / dq, by first-order perturbation."""
    s = spectral(weights, q)
    W = np.where(np.isfinite(weights), weights, 0.0)
    dlam = float(s.left @ (W * s.matrix) @ s.right) / float(s.left @ s.right)
    return pressure_ref(weights) - dlam / s.root


def gibbs_ref(weights: np.ndarray, q: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs-Markov transition matrix and stationary vector of q * weights."""
    s = spectral(weights, q)
    P = s.matrix * s.right[np.newaxis, :] / (s.root * s.right[:, np.newaxis])
    pi = s.left * s.right
    return P, pi / pi.sum()


def entropy_ref(weights: np.ndarray) -> float:
    P, pi = gibbs_ref(weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    return float(-pi @ plogp.sum(axis=1))


def h_top_ref(support: np.ndarray) -> float:
    return math.log(float(np.max(np.abs(np.linalg.eigvals(support.astype(float))))))


def preimage_ref(weights: np.ndarray, depth: int) -> list[float]:
    """log(s_depth / s_{depth-1}) for every terminal symbol t, where s_m is
    the column sum 1^T A^m e_t; sorted, so alphabet order does not matter."""
    A = spectral(weights).matrix
    estimates = []
    for t in range(A.shape[0]):
        x = np.zeros(A.shape[0])
        x[t] = 1.0
        for _ in range(depth - 1):
            x = A @ x
            x /= x.sum()
        estimates.append(math.log(float((A @ x).sum())))
    return sorted(estimates)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _expect(ok: bool, reason: str) -> str | None:
    return None if ok else reason


# --------------------------------------------------------------------------
# Job builders


def pressure_job(model: Model, depth: int) -> Job:
    """The oracle estimates must match the exact preimage ratios at this
    depth; they approach the pressure at the rate |lambda_2 / lambda|^depth,
    which on sparse supports can leave them above 1e-8 from it at depth 60."""
    p_ref = pressure_ref(model.weights)
    oracle_ref = preimage_ref(model.weights, depth)

    def check(out):
        if not close(out["pressure"], p_ref, 1e-9):
            return f"pressure {out['pressure']!r} != reference {p_ref!r}"
        got = sorted(out["oracle"]["estimates"].values())
        if len(got) != len(oracle_ref):
            return f"{len(got)} oracle estimates for {len(oracle_ref)} terminal symbols"
        for g, r in zip(got, oracle_ref):
            if not close(g, r, 1e-8):
                return f"oracle estimate {g!r} != reference {r!r}"
        gap = max(abs(r - p_ref) for r in oracle_ref)
        return _expect(close(out["oracle"]["max_gap"], gap, 1e-8), f"oracle max_gap {out['oracle']['max_gap']}")

    return Job("pressure", check, argv=("pressure", model.text, "--oracle-depth", str(depth)))


def spectrum_job(model: Model) -> Job:
    h_top = h_top_ref(model.support)
    h_mu = entropy_ref(model.weights)

    def check(out):
        if out["samples"] != 41:
            return f"{out['samples']} samples on the default grid"
        if not close(out["h_top"], h_top, 1e-9):
            return f"h_top {out['h_top']!r} != reference {h_top!r}"
        if not close(out["h_mu"], h_mu, 1e-8):
            return f"h_mu {out['h_mu']!r} != reference {h_mu!r}"
        return _expect(out["alpha_min"] <= out["peak"]["alpha"] <= out["alpha_max"], "peak outside alpha range")

    return Job("spectrum", check, argv=("spectrum", model.text))


def compare_job(text_f: str, text_g: str) -> Job:
    return Job(
        "compare",
        lambda out: _expect(out["equal"] is True, f"twins reported unequal: {out}"),
        argv=("compare", text_f, text_g),
    )


def entropy_spectrum_job(model: Model, q0: float) -> Job:
    a = alpha_ref(model.weights, q0)
    s = spectral(model.weights, q0)
    p = pressure_ref(model.weights)
    e_ref = math.log(s.root) - q0 * p + q0 * a

    def call():
        return ms.entropy_spectrum(ms.parse_model(model.text).potential, a)

    def check(res):
        if res.flag != "interior":
            return f"flag {res.flag} at interior alpha"
        if not close(res.q, q0, 1e-5):
            return f"q {res.q!r} != {q0!r}"
        return _expect(close(res.value, e_ref, 1e-7), f"E {res.value!r} != reference {e_ref!r}")

    return Job("entropy_spectrum", check, call=call)


def _log_table(P: np.ndarray) -> dict:
    return {(i + 1, j + 1): float(math.log(P[i, j])) for i in range(2) for j in range(2)}


def p1(a: float) -> np.ndarray:
    return np.array([[1 - a, a], [1 - a, a]])


def p2(a: float) -> np.ndarray:
    return np.array([[1 - a, a], [a, 1 - a]])


def classify_job(support: np.ndarray, order: int, values: dict) -> Job:
    """Expected verdict from the numpy Gibbs matrix of the input."""
    full = bool((support == 1).all())
    _, weights = block_form(support, order, values)
    expected_kind, twin = None, None
    if full:
        P, _ = gibbs_ref(weights)
        a = float(P[0, 1])
        if np.max(np.abs(P[0] - P[1])) <= 1e-7:
            expected_kind, twin = "P1", _log_table(p2(a))
        elif np.max(np.abs(P[0] - P[1][::-1])) <= 1e-7:
            expected_kind, twin = "P2", _log_table(p1(a))

    def check(out):
        if not full:
            return _expect(
                out["case"] == "nonfull-2x2" and out["strong_rigid"] is True,
                f"non-full shift not rigid: {out['case']}",
            )
        if out["case"] != "full-2-shift" or out["twin_kind"] != expected_kind:
            return f"twin_kind {out['twin_kind']} != expected {expected_kind}"
        if expected_kind is None:
            return _expect(out["strong_rigid"] is True and out["twin"] is None, "generic potential not rigid")
        got = out["twin"]["potential"]["values"]
        for (i, j), v in twin.items():
            if not close(got[f"{i}{j}"], v, 1e-9):
                return f"twin value {i}{j}: {got[f'{i}{j}']!r} != {v!r}"
        return None

    return Job("classify", check, argv=("classify", model_text(support, order, values)))


def density_job(values: dict, radius: float, trials: int, seed: int) -> Job:
    """``values``: an order-2 table on the full 2-shift whose Gibbs matrix is
    P1(a) (the log table of P1(a) plus a constant)."""
    text = model_text(FULL2, 2, values)

    def call():
        return ms.density_probe(ms.parse_model(text).potential, radius, trials, seed)

    def check(res):
        return _expect(
            res.fraction == 1.0 and res.openness_violations == 0 and res.trials == trials,
            f"density probe {res}",
        )

    return Job("density_probe", check, call=call)


def audit_job(model: Model, depth: int) -> Job:
    p_ref = pressure_ref(model.weights)

    def check(out):
        if not close(out["pressure"], p_ref, 1e-9):
            return f"audit pressure {out['pressure']!r} != reference {p_ref!r}"
        for side in ("min", "max"):
            obs, theo = out[f"observed_{side}"], out[f"theoretical_{side}"]
            if not close(obs, theo, 1e-10):
                return f"observed {side} {obs!r} != theoretical {theo!r}"
        return _expect(out["within_bounds"] is True and out["depth"] == depth, "audit out of bounds")

    return Job("gibbs_audit", check, argv=("gibbs-audit", model.text, "--depth", str(depth)))


def _path_mean(rate: float, pi_start: np.ndarray, pi_f: np.ndarray, n: int) -> float:
    """Expected -(1/n) log mu_f([w]) over stationary paths of n symbols whose
    first symbol has law pi_start: the first symbol costs -log pi_f, each of
    the n-1 transitions costs `rate` on average."""
    return ((n - 1) * rate - float(pi_start @ np.log(pi_f))) / n


def sample_job(model: Model, n: int, trials: int, seed: int) -> Job:
    """The sampled mean must lie within 5 standard errors of its exact
    expectation at this n, which differs from the entropy rate by
    (H(pi) - h) / n; that bias exceeds 5 standard errors on measures whose
    local exponents barely vary."""
    _, pi = gibbs_ref(model.weights)
    h_ref = entropy_ref(model.weights)
    expected = _path_mean(h_ref, pi, pi, n)

    def check(out):
        if not close(out["target_entropy_rate"], h_ref, 1e-9):
            return f"target entropy {out['target_entropy_rate']!r} != reference {h_ref!r}"
        gap = abs(out["mean"] - expected)
        return _expect(gap <= 5 * out["std_error"], f"SMB mean off its expectation by {gap} > 5 std errors")

    argv = ("sample", model.text, "--n", str(n), "--trials", str(trials), "--seed", str(seed))
    return Job("sample", check, argv=argv)


def histogram_job(model: Model, n: int, trials: int, q_list: tuple[float, ...], seed: int) -> Job:
    """Tilted sampling: paths from the Gibbs measure of q*f, exponents under
    that of f.  Each row's mean must lie within 5 standard errors of its exact
    expectation at this n, whose transitions average alpha(q)."""
    _, pi_f = gibbs_ref(model.weights)
    alphas = [alpha_ref(model.weights, q) for q in q_list]
    expected = [_path_mean(a, gibbs_ref(model.weights, q)[1], pi_f, n) for q, a in zip(q_list, alphas)]

    def call():
        return ms.empirical_spectrum_histogram(ms.parse_model(model.text).potential, n, trials, list(q_list), seed)

    def check(rows):
        for row, a, e in zip(rows, alphas, expected):
            if not close(row.alpha, a, 1e-8):
                return f"alpha({row.q}) {row.alpha!r} != reference {a!r}"
            if abs(row.mean - e) > 5 * row.std_error:
                return f"tilted mean at q={row.q} off its expectation by {abs(row.mean - e)}"
        return _expect(len(rows) == len(q_list), "missing rows")

    return Job("spectrum_histogram", check, call=call)


# --------------------------------------------------------------------------
# Workloads

# A template returns, for the rng of a pass, one cost twin of its job.
Template = Callable[[np.random.Generator], Job]


def twins(build, support: np.ndarray, order: int, values: dict, *args) -> Template:
    """Template whose twins hand ``build`` a shifted copy of the potential."""
    return lambda rng: build(make_model(support, order, shifted(values, rng)), *args)


def seeded_twins(build, support: np.ndarray, order: int, values: dict, *args) -> Template:
    """As ``twins``, for a sampler: each twin also gets a fresh sampling seed."""
    return lambda rng: build(
        make_model(support, order, shifted(values, rng)), *args, int(rng.integers(1 << 30))
    )


# Seed of the potentials of the spectra workload.  The cost of a spectra
# request varies up to five-fold from one potential to the next (power
# iteration at strong tilts, the known spectrum failures, Newton steps), more
# than the thirty requests a run can repeat will average out, so a run's
# throughput and latency would mostly measure its draw.  The potentials are
# therefore drawn once from this seed, unfiltered, and the benchmark's
# --seed draws their twins and the order of the jobs.
POTENTIAL_SEED = 2009


def spectra_templates(rng) -> list[Template]:
    """Multi-state Perron requests, from 4 to 16 states.

    Entropy_spectrum (|q| <= 3) and pressure requests on 3-8 symbol supports
    and order-3 to 5 full-shift potentials make up four fifths of the jobs
    and carry the median; the p90 lies among the spectrum requests (on
    order-3 to 5 inputs, two of which fail), and one order-3 compare of 322
    solves tops each pass.  ``rng`` is unused: see POTENTIAL_SEED.
    """
    pool = np.random.default_rng(POTENTIAL_SEED)

    def model(build, support, order, *args):
        return twins(build, support, order, random_values(pool, support, order), *args)

    def support(n):
        return random_support(pool, n)

    def q0():
        return float(pool.uniform(-3, 3))

    values3 = random_values(pool, FULL2, 3)

    def compare(twin_rng):
        values = shifted(values3, twin_rng)
        return compare_job(model_text(FULL2, 3, values), higher_block_twin(FULL2, 3, values))

    sizes = range(3, 9)
    templates = [compare]
    templates += [model(spectrum_job, FULL2, order) for order in (3, 4, 5)]
    templates += [model(spectrum_job, support(n), 2) for n in (4, 7)]
    templates += [model(pressure_job, FULL2, 5, 60) for _ in range(4)]
    templates += [model(pressure_job, support(n), 2, 60) for n in sizes]
    templates += [model(entropy_spectrum_job, FULL2, order, q0()) for order in (3, 4, 5)]
    templates += [model(entropy_spectrum_job, support(n), 2, q0()) for n in (*sizes, *sizes)]
    return templates


def _twin_alpha(rng) -> float:
    """Uniform in (0.05, 0.95) away from 1/2, where P1 and P2 coincide."""
    a = float(rng.uniform(0.05, 0.45))
    return a if rng.random() < 0.5 else 1.0 - a


def rigidity_templates(rng) -> list[Template]:
    """Many light 2-symbol requests, where every Perron solve takes the 2x2
    closed form: classify (the lightest third), P1/P2 compares, which carry
    the median, and density probes, which carry the p90."""

    def classify(support, order, values):
        return lambda twin_rng: classify_job(support, order, shifted(values, twin_rng))

    def compare(a):
        return lambda twin_rng: compare_job(
            model_text(FULL2, 2, shifted(_log_table(p1(a)), twin_rng)),
            model_text(FULL2, 2, shifted(_log_table(p2(a)), twin_rng)),
        )

    def density(a):
        return lambda twin_rng: density_job(
            shifted(_log_table(p1(a)), twin_rng), 0.05, 40, int(twin_rng.integers(1 << 30))
        )

    templates = [
        classify(support, order, random_values(rng, support, order))
        for support in (FULL2, GOLDEN, REVERSE_GOLDEN)
        for order in (1, 2)
        for _ in range(4)
    ]
    templates += [classify(FULL2, 2, _log_table(family(_twin_alpha(rng)))) for family in (p1, p2) for _ in range(6)]
    templates += [compare(_twin_alpha(rng)) for _ in range(44)]
    templates += [density(_twin_alpha(rng)) for _ in range(20)]
    return templates


def cylinders_templates(rng) -> list[Template]:
    """Enumeration and sampling with few Perron solves per job.

    Samples and tilted histograms are the light third; Gibbs audits at
    depth 6 on 3 symbols carry the median, audits at depth 7 on 3 symbols
    the p90, and one order-6 pressure request (recoded to 32 blocks) tops
    each pass.
    """

    def model(build, support, order, *args):
        return twins(build, support, order, random_values(rng, support, order), *args)

    def sampler(build, support, *args):
        return seeded_twins(build, support, 2, random_values(rng, support, 2), *args)

    templates = [
        sampler(sample_job, support, 1000, 200)
        for support in (FULL2, GOLDEN, FULL3, random_support(rng, 4))
        for _ in range(2)
    ]
    templates += [
        sampler(histogram_job, support, 400, 200, (-1.0, 0.0, 1.0)) for support in (FULL2, GOLDEN, FULL3) for _ in range(2)
    ]
    templates += [model(audit_job, FULL2, 2, 10) for _ in range(9)]
    templates += [model(audit_job, FULL3, 2, 6) for _ in range(9)]
    templates += [model(audit_job, FULL3, 2, 7) for _ in range(8)]
    templates.append(model(pressure_job, FULL2, 6, 60))
    return templates


WORKLOADS = {
    "spectra": (1, spectra_templates),
    "rigidity": (2, rigidity_templates),
    "cylinders": (3, cylinders_templates),
}


def make_templates(workload: str, seed: int) -> list[Template]:
    index, build = WORKLOADS[workload]
    return build(np.random.default_rng((seed, index)))


def make_pass(workload: str, seed: int, templates: list[Template], p: int) -> list[tuple[int, Job]]:
    """Pass p: one twin of every template, as (template index, job), in a
    seeded random order, so that the twins of a template meet the host's
    speed at different moments of the run."""
    index, _ = WORKLOADS[workload]
    rng = np.random.default_rng((seed, index, p))
    jobs = [template(rng) for template in templates]
    return [(int(k), jobs[k]) for k in rng.permutation(len(jobs))]


def warmup_jobs(workload: str) -> list[Job]:
    """One small, seed-independent job per job kind of the workload."""
    rng = np.random.default_rng(0)
    small3 = random_model(rng, FULL2, 3)
    twins = compare_job(model_text(FULL2, 2, _log_table(p1(0.3))), model_text(FULL2, 2, _log_table(p2(0.3))))
    if workload == "spectra":
        short_grid = ("--qmin", "-1", "--qmax", "1", "--qstep", "1")
        return [
            pressure_job(small3, 2),
            entropy_spectrum_job(small3, 0.5),
            Job("spectrum", lambda out: None, argv=("spectrum", small3.text, *short_grid)),
            twins,
        ]
    if workload == "rigidity":
        return [classify_job(FULL2, 2, _log_table(p1(0.3))), twins, density_job(_log_table(p1(0.3)), 0.05, 2, 0)]
    small2 = random_model(rng, FULL2, 2)
    return [
        audit_job(small2, 3),
        sample_job(small2, 10, 100, 0),
        pressure_job(small3, 2),
        histogram_job(small2, 10, 10, (0.0,), 0),
    ]


# Pinned Perron-solve counts of single CLI requests on the shipped models,
# measured on the unmodified program; the traced run and the self-test
# assert that the wrappers see exactly these calls.
PINNED_PERRON_CALLS = (
    (("pressure", "models/full2_p1_third.json"), 2),
    (("spectrum", "models/full2_p1_third.json"), 83),
    (("compare", "models/full2_p1_third.json", "models/full2_p2_third.json"), 322),
    (("classify", "models/full2_p1_third.json"), 2),
    (("sample", "models/full2_p1_third.json", "--n", "100", "--trials", "100"), 1),
)
