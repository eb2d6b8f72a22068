"""Property tests: the paper's spectrum invariances, the potential's
array representation and a CLI fuzz.

Isomorphic Gibbs systems have equal entropy spectra.  Relabelling the
symbols, adding a constant, adding a coboundary h - h∘σ and rewriting a
potential as a longer-word table all give isomorphic systems, so
``spectra_equal`` must hold for each.  The P1(α)/P2(α) twins have equal
spectra without being isomorphic.  Supports are random aperiodic 0/1
matrices drawn from a hypothesis-chosen seed.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markovspectra import (
    BetaFunction,
    Potential,
    TransitionMatrix,
    admissible_words,
    alpha_range,
    classify_2x2,
    edge_matrix,
    entropy_rate,
    full_shift,
    log_p1_potential,
    log_p2_potential,
    normalize_potential,
    perron_vector_by_linear_solve,
    pressure,
    pressure_by_preimages,
    reduce_to_order2,
    sample_spectrum,
    spectra_equal,
)
from markovspectra import thermo
from markovspectra.cli import main
from markovspectra.errors import MarkovSpectraError, NonConvergenceError
from markovspectra.modelio import word_key
from markovspectra.perron import perron, perron_stack
from markovspectra.thermo import _gibbs, _gibbs_error
from conftest import random_aperiodic_base, random_potential, reference_sample_spectrum


def bounded(max_examples: int):
    """Few deterministic examples, so tier-1 stays fast and reproducible."""
    return settings(max_examples=max_examples, deadline=10_000, derandomize=True, database=None)


@st.composite
def order2_potentials(draw, max_symbols: int = 4, min_symbols: int = 2, scale: float = 0.4):
    """A random order-2 potential with values in [-scale, scale] on a random
    aperiodic support.  Values wider than the default 0.4 fail the Perron
    solve itself at |q| = 20 (dgeev loses the small eigenvector entries),
    before any comparison, unless nothing past q = 1 is solved: the
    log-domain solve on the roadmap lifts this bound."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = random_aperiodic_base(rng, draw(st.integers(min_symbols, max_symbols)))
    return random_potential(base, seed, scale=scale)


def certified_equal(f: Potential, g: Potential) -> bool:
    """spectra_equal(f, g).equal, asserting that the cohomology certificate
    answered it: no stacked solve, and only the pressure solves at q = 1."""
    pressures = [BetaFunction(h).matrix(1.0).tolist() for h in (f, g)]
    solves = []
    solve = thermo.perron
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thermo, "perron", lambda A: solves.append(A.tolist()) or solve(A))
        patch.setattr(thermo, "perron_stack", lambda A: pytest.fail("the grid was stacked"))
        equal = spectra_equal(f, g).equal
    assert solves == pressures
    return equal


def table(f: Potential, words, value) -> Potential:
    return Potential.from_table(f.base, len(words[0]), {w: value(w) for w in words})


class TestIsomorphicSystemsHaveEqualSpectra:
    @bounded(12)
    @given(order2_potentials(), st.data())
    def test_symbol_permutation(self, f, data):
        perm = data.draw(st.permutations(range(1, f.base.n_symbols + 1)))
        p = np.asarray(perm) - 1
        entries = np.zeros_like(f.base.entries)
        entries[np.ix_(p, p)] = f.base.entries
        base = TransitionMatrix.from_entries(entries)
        g = Potential.from_table(base, 2, {(perm[i - 1], perm[j - 1]): v for (i, j), v in f.values.items()})
        assert spectra_equal(f, g).equal

    # at values of +-3 a grid scan fails to solve for about half the draws;
    # these pairs are cohomologous, so the certificate answers before it
    @bounded(12)
    @given(order2_potentials(scale=3.0), st.floats(-5.0, 5.0))
    def test_constant(self, f, c):
        assert certified_equal(f, f.shift(c))

    @bounded(12)
    @given(order2_potentials(scale=3.0), st.integers(0, 2**32 - 1))
    def test_coboundary(self, f, seed):
        h = np.random.default_rng(seed).uniform(-1.0, 1.0, f.base.n_symbols + 1)
        g = table(f, sorted(f.values), lambda w: f(w) + h[w[0]] - h[w[1]])
        assert certified_equal(f, g)

    @bounded(12)
    @given(order2_potentials(max_symbols=3))
    def test_order3_table(self, f):
        g = table(f, admissible_words(f.base, 3), lambda w: f(w[:2]))
        assert g.order == 3 and spectra_equal(f, g).equal


@bounded(12)
@given(st.floats(0.05, 0.95).filter(lambda a: abs(a - 0.5) > 1e-6))
def test_bernoulli_twins_equal_spectra_not_isomorphic(alpha):
    p1, p2 = log_p1_potential(alpha), log_p2_potential(alpha)
    assert spectra_equal(p1, p2).equal
    report = classify_2x2(p1)
    assert not report.weak_rigid and report.twin_kind == "P1"
    assert report.twin.values == p2.values


class TestPerronData:
    @bounded(12)
    @given(order2_potentials(max_symbols=6))
    def test_normalized_columns_sum_to_lambda(self, f):
        lam = perron(edge_matrix(f)).root
        column_sums = np.zeros(f.base.n_symbols)
        for (_, j), v in normalize_potential(f).values.items():
            column_sums[j - 1] += np.exp(v)
        assert np.abs(column_sums - lam).max() <= 1e-13 * lam

    @bounded(12)
    @given(order2_potentials(max_symbols=6, min_symbols=3))
    def test_dense_path_matches_linear_solve(self, f):
        A = edge_matrix(f)
        t = perron(A)
        assert t.iterations == 1  # n >= 3 takes the dgeev path
        x = perron_vector_by_linear_solve(A, t.root)
        assert np.abs(t.right - x).max() <= 1e-13 * x.max()

    @bounded(12)
    @given(order2_potentials(max_symbols=6))
    def test_pressure_matches_preimage_oracle(self, f):
        # the preimage estimates converge as |lambda_2 / lambda|^depth:
        # take the depth at which that reaches 1e-10
        moduli = np.sort(np.abs(np.linalg.eigvals(edge_matrix(f))))
        gap = moduli[-2] / moduli[-1]
        depth = 2 if gap < 1e-10 else max(2, math.ceil(math.log(1e-10) / math.log(gap)))
        assume(depth <= 2_000)
        p = pressure(f)
        assert np.abs(np.asarray(pressure_by_preimages(f, depth)) - p).max() <= 1e-8


@st.composite
def matrix_stacks(draw):
    """A (k, n, n) stack, k = 1..6, of matrices on random aperiodic supports
    of one size: n = 2..16 with entries e^U(-2, 2), or 2x2 (the closed form)
    with entries e^U(-70, 70), as far as the twin compare's tilts reach
    (|q| <= 20 times |f| <= 3.5).  About a third of the rows are drawn to be
    refused: dense rows with entries e^U(-400, 400), whose Perron vectors
    underflow, and 2x2 rows with a zero off-diagonal entry or off-diagonal
    entries whose product underflows.  From n = 8 a left half's Newton
    right-hand side rounds differently summed pairwise than left to right;
    the dense hex pins of test_perron.py fix that order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, spread = (2, 70.0) if draw(st.booleans()) else (draw(st.integers(2, 16)), 2.0)
    k = draw(st.integers(1, 6))
    supports = [random_aperiodic_base(rng, n).entries == 1 for _ in range(k)]
    A = np.array([np.where(s, np.exp(rng.uniform(-spread, spread, (n, n))), 0.0) for s in supports])
    for i in np.flatnonzero(rng.random(k) < 1 / 3):
        if n > 2:
            A[i] = np.where(supports[i], np.exp(rng.uniform(-400.0, 400.0, (n, n))), 0.0)
        elif rng.random() < 0.5:
            j = rng.integers(2)
            A[i, j, 1 - j] = 0.0
        else:
            A[i, 0, 1] = A[i, 1, 0] = math.exp(-400.0)
    return A


@bounded(60)
@given(matrix_stacks())
def test_perron_stack_rows_are_perron_bit_for_bit(A):
    # the stack fails a row exactly when perron refuses it, solves every
    # other row as perron does, and the first failed row's perron raises the
    # first refusal
    stacked, failed = perron_stack(A)
    refused = []
    for i, M in enumerate(A):
        try:
            t = perron(M)
        except NonConvergenceError as exc:
            refused.append(str(exc))
            assert failed[i]
            continue
        assert not failed[i]
        assert stacked.root[i] == t.root and stacked.residual[i] == t.residual
        assert stacked.left[i].tolist() == t.left.tolist() and stacked.right[i].tolist() == t.right.tolist()
        assert stacked.iterations[i] == t.iterations
    if refused:
        with pytest.raises(NonConvergenceError) as first:
            perron(A[np.argmax(failed)])
        assert str(first.value) == refused[0]


@st.composite
def stacked_tilt_grids(draw):
    """A potential of order 1-3 with values in [-0.4, 0.4] on a random
    aperiodic support of 3-6 symbols (so 3 or more order-2 states, whose
    grids are stacked), and a sorted grid of 1-8 q drawn uniformly from
    [-60, 60].  Past |q| = 20 perron refuses some tilts (about one point in
    sixteen), so some grids raise: 7 of the 40 drawn below."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = random_aperiodic_base(rng, draw(st.integers(3, 6)))
    f = random_potential(base, seed, scale=0.4, order=draw(st.integers(1, 3)))
    return f, sorted(rng.uniform(-60.0, 60.0, draw(st.integers(1, 8))).tolist())


@bounded(40)
@given(stacked_tilt_grids())
def test_cross_check_reads_what_a_per_q_re_solve_gives(f_grid):
    # sample_spectrum's cross-check once re-solved each built matrix with
    # perron; it now reads the grid's stacked solve.  The re-solve is the
    # oracle: the same entropy rate bit for bit, and the same error at the
    # first q where it raises
    f, grid = f_grid
    bf = BetaFunction(f)
    bf.solve(grid)
    first = None
    for q in grid:
        A = bf.matrix(q)
        try:
            t = perron(A)
            mu, defect, underflow = _gibbs(bf.f2.base, A, t.root, t.left, t.right)
            error = _gibbs_error(defect, underflow)
            if error is not None:
                raise error
            h = entropy_rate(mu)
        except MarkovSpectraError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                bf.gibbs(q)
            first = first or exc
            continue
        assert entropy_rate(bf.gibbs(q)) == h
    if first is None:
        sample_spectrum(f, grid)
    else:
        with pytest.raises(type(first)) as raised:
            sample_spectrum(f, grid)
        assert str(raised.value) == str(first)


CLI_GRID = np.arange(-10.0, 10.25, 0.5).tolist()


@st.composite
def spectrum_grids(draw):
    """A potential with values in [-0.4, 0.4]: order 2 on a random aperiodic
    support of 2-8 symbols, or order 3-5 on the full 2-shift (4-16 recoded
    states), with the CLI's default grid or a sorted grid of 1-60 q drawn
    uniformly from [-40, 40]."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        f = random_potential(random_aperiodic_base(rng, draw(st.integers(2, 8))), seed)
    else:
        f = random_potential(full_shift(2), seed, order=draw(st.integers(3, 5)))
    if draw(st.booleans()):
        return f, CLI_GRID
    return f, sorted(rng.uniform(-40.0, 40.0, draw(st.integers(1, 60))).tolist())


@bounded(60)
@given(spectrum_grids())
def test_sample_spectrum_is_the_per_q_loop_bit_for_bit(f_grid):
    # the array pass over each block against the per-q loop it replaced:
    # every field of every sample, or the same error at the same q
    f, grid = f_grid
    try:
        expected = reference_sample_spectrum(f, grid)
    except MarkovSpectraError as exc:
        with pytest.raises(type(exc)) as raised:
            sample_spectrum(f, grid)
        assert str(raised.value) == str(exc)
        return
    curve = sample_spectrum(f, grid)
    assert curve == expected
    for s, e in zip(curve.samples, expected.samples):
        assert all(type(getattr(s, k)) is type(getattr(e, k)) for k in ("q", "alpha", "beta", "entropy"))


@st.composite
def potentials_of_any_order(draw):
    """A random potential of order 1-4 on a random aperiodic 2-4 symbol support."""
    seed = draw(st.integers(0, 2**32 - 1))
    base = random_aperiodic_base(np.random.default_rng(seed), draw(st.integers(2, 4)))
    return random_potential(base, seed, scale=0.4, order=draw(st.integers(1, 4)))


class TestRepresentation:
    """The array operations give the word-by-word formulas bit for bit."""

    @bounded(60)
    @given(potentials_of_any_order())
    def test_reduction_carries_the_table_to_recoded_edges(self, f):
        f2, rec = reduce_to_order2(f)
        assert f2.words == tuple(f2.base.edges())
        if f.order == 1:
            assert f2.values == {(i, j): f.values[(i,)] for i, j in f.base.edges()}
        elif f.order == 2:
            assert f2 is f
        else:
            # the recoded edges, row-major, are the n-words in lexicographic order
            assert [rec.edge_word(s, t) for s, t in f2.words] == list(f.words)
            assert f2.values == {(s, t): f.values[rec.edge_word(s, t)] for s, t in f2.words}

    @bounded(25)
    @given(potentials_of_any_order(), st.floats(-30.0, 30.0), st.floats(-5.0, 5.0))
    def test_scale_and_shift(self, f, q, c):
        assert f.scale(q).values == {w: q * v for w, v in f.values.items()}
        assert f.shift(c).values == {w: v + c for w, v in f.values.items()}

    @bounded(25)
    @given(potentials_of_any_order())
    def test_normalized_table(self, f):
        f2, _ = reduce_to_order2(f)
        log_u = np.log(perron(edge_matrix(f2)).left).tolist()
        expected = {(i, j): v + log_u[i - 1] - log_u[j - 1] for (i, j), v in f2.values.items()}
        assert normalize_potential(f).values == expected

    @bounded(40)
    @given(potentials_of_any_order(), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-20.0, 20.0)))
    def test_tilt_is_the_edge_matrix_of_the_scaled_table(self, f, q):
        # one builder: A(qf) carries exp(q f) bit for bit, the matrix the tilted Gibbs measure solves
        f2, _ = reduce_to_order2(f)
        assert np.array_equal(BetaFunction(f).matrix(q), edge_matrix(f2.scale(q)))

    @bounded(25)
    @given(potentials_of_any_order())
    def test_read_only(self, f):
        for g in (f, reduce_to_order2(f)[0], f.scale(2.0), normalize_potential(f)):
            assert g.table.flags.writeable is False
            with pytest.raises(TypeError):
                g.values[g.words[0]] = 0.0


class TestExactSlope:
    @bounded(12)
    @given(order2_potentials(), st.floats(-3.0, 3.0))
    def test_matches_central_difference_of_alpha(self, f, q):
        assume(not alpha_range(f).degenerate)
        bf = BetaFunction(f)
        h = 1e-5
        fd = (bf.alpha(q + h) - bf.alpha(q - h)) / (2 * h)
        slope = bf.alpha_slope(q)
        assert slope < 0
        assert abs(slope - fd) <= 1e-6 * abs(fd)


SUPPORTS = [[[1, 1], [1, 1]], [[1, 1], [1, 0]], [[0, 1], [1, 1]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]]
JUNK = st.sampled_from([True, None, "1", [], {}, float("nan"), 800, -800, 1e308, 10**400])


@st.composite
def model_documents(draw) -> str:
    """A model file as JSON text: well formed on a shipped support, or with
    one defect (a junk or out-of-range value, a missing key, or a random
    0/1 transition matrix)."""
    defect = draw(st.sampled_from([None, None, None, "value", "key", "transition"]))
    if defect == "transition":
        n = draw(st.integers(1, 3))
        row = st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
        transition = draw(st.lists(row, min_size=n, max_size=n))
    else:
        transition = draw(st.sampled_from(SUPPORTS))
    n, order = len(transition), draw(st.integers(1, 3))
    words = [(i,) for i in range(1, n + 1)]
    for _ in range(order - 1):
        words = [w + (j,) for w in words for j in range(1, n + 1) if transition[w[-1] - 1][j - 1]]
    values = {"".join(map(str, w)): draw(st.floats(-3.0, 3.0)) for w in words}
    if defect == "value" and values:
        values[draw(st.sampled_from(sorted(values)))] = draw(JUNK)
    model = {"transition": transition, "potential": {"order": order, "values": values}}
    if defect == "key":
        key = draw(st.sampled_from(["transition", "potential", "order", "values"]))
        (model if key in model else model["potential"]).pop(key)
    return json.dumps(model)


FLAG_VALUES = st.sampled_from(["1", "2", "3", "0.5", "0", "-1", "nan", "1e309", "x"])


@st.composite
def commands(draw) -> list[str]:
    model = draw(model_documents())
    command = draw(st.sampled_from(["pressure", "spectrum", "compare", "classify", "gibbs-audit", "sample"]))
    flags = {
        "pressure": ["--oracle-depth"],
        "spectrum": ["--qmin", "--qmax", "--qstep"],
        "compare": ["--tol"],
        "classify": [],
        "gibbs-audit": ["--depth"],
        "sample": ["--n", "--seed"],
    }[command]
    argv = [command, model] + ([draw(model_documents())] if command == "compare" else [])
    # small defaults keep each example cheap; a drawn flag below overrides them
    argv += {
        "spectrum": ["--qmin", "-1", "--qmax", "1"],
        "gibbs-audit": ["--depth", "4"],
        "sample": ["--n", "20", "--trials", "100"],
    }.get(command, [])
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=1)) if flags else []:
        argv += [flag, draw(FLAG_VALUES)]
    return argv


@bounded(100)
@given(commands())
def test_cli_fuzz_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (0, 2, 3, 4, 5)
    if code in (0, 4):  # a result, or an audit that found a violation
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
    assert "Traceback" not in out.getvalue() + err.getvalue()


@st.composite
def valid_models(draw) -> str:
    """A random valid model as JSON text: 2-4 symbols on a random aperiodic
    support, order 1-3, values uniform in +-s for s from 0.1 to 300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_aperiodic_base(rng, draw(st.integers(2, 4)))
    order = draw(st.integers(1, 3))
    s = draw(st.sampled_from([0.1, 1.0, 5.0, 20.0, 60.0, 300.0]))
    values = {word_key(w): rng.uniform(-s, s) for w in admissible_words(base, order)}
    return json.dumps({"transition": base.entries.tolist(), "potential": {"order": order, "values": values}})


VALID_MODEL_REQUESTS = [
    ["pressure"],
    ["pressure", "--oracle-depth", "5"],
    ["spectrum"],
    ["compare"],
    ["classify"],
    ["gibbs-audit", "--depth", "4"],
    ["sample", "--n", "20", "--trials", "100"],
]


@bounded(100)
@given(valid_models())
def test_valid_models_never_exit_parse(model):
    # valid input exits 0, 3, 4 or 5, never 2, and no exception escapes
    for command, *flags in VALID_MODEL_REQUESTS:
        argv = [command, model] + [model] * (command == "compare") + flags
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 3, 4, 5), (argv, err.getvalue())
        if code in (0, 4):
            json.loads(out.getvalue())
        else:
            assert out.getvalue() == ""

