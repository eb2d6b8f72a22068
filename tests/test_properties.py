"""Property tests: the paper's spectrum invariances and a CLI fuzz.

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

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from markovspectra import (
    Potential,
    TransitionMatrix,
    admissible_words,
    classify_2x2,
    log_p1_potential,
    log_p2_potential,
    spectra_equal,
)
from markovspectra.cli import main
from conftest import random_aperiodic_base, random_potential


def bounded(max_examples: int):
    """Few deterministic examples, so tier-1 stays fast and reproducible."""
    return settings(max_examples=max_examples, deadline=10_000, derandomize=True, database=None)


@st.composite
def order2_potentials(draw, max_symbols: int = 4):
    """A random order-2 potential with values in [-0.4, 0.4] on a random
    aperiodic support.  Wider values fail the Perron solve itself at
    |q| = 20 (dgeev loses the small eigenvector entries), before any
    comparison: the log-domain solve on the roadmap lifts this bound."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = random_aperiodic_base(rng, draw(st.integers(2, max_symbols)))
    return random_potential(base, seed, scale=0.4)


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

    @bounded(12)
    @given(order2_potentials(), st.floats(-5.0, 5.0))
    def test_constant(self, f, c):
        assert spectra_equal(f, f.shift(c)).equal

    @bounded(12)
    @given(order2_potentials(), st.integers(0, 2**32 - 1))
    def test_coboundary(self, f, seed):
        h = np.random.default_rng(seed).uniform(-1.0, 1.0, f.base.n_symbols + 1)
        g = table(f, sorted(f.values), lambda w: f(w) + h[w[0]] - h[w[1]])
        assert spectra_equal(f, g).equal

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
