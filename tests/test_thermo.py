import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovspectra import (
    GibbsAudit,
    MarkovMeasure,
    Potential,
    birkhoff_sum,
    cylinder_measure,
    edge_matrix,
    full_shift,
    golden_mean,
    eigen_measure_cylinder,
    entropy_rate,
    gibbs_constant_audit,
    gibbs_markov,
    jacobian,
    log_cylinder_measure,
    normalize_potential,
    potential_integral,
    pressure,
    pressure_by_preimages,
    reduce_to_order2,
    ring3,
)
from markovspectra.errors import PotentialRangeError, WordLengthError
from markovspectra.cli import MAX_DEPTH
from markovspectra.thermo import ORACLE_BUFFER_FLOATS, BetaFunction, _exp_on_support, _logsumexp
from conftest import random_aperiodic_base, random_potential

PHI = (1 + 5**0.5) / 2


class TestPotential:
    def test_total_table_required(self, golden):
        with pytest.raises(ValueError, match="total"):
            Potential.from_table(golden, 2, {(1, 1): 0.0, (1, 2): 0.0})

    def test_inadmissible_key_rejected(self, golden):
        with pytest.raises(ValueError):
            Potential.from_table(
                golden, 2, {(1, 1): 0.0, (1, 2): 0.0, (2, 1): 0.0, (2, 2): 0.0}
            )

    def test_non_finite_rejected(self, full2):
        with pytest.raises(ValueError, match="finite"):
            Potential.from_table(
                full2, 2, {(1, 1): 0.0, (1, 2): np.inf, (2, 1): 0.0, (2, 2): 0.0}
            )

    def test_call_and_scale_shift(self, f_p1_third):
        assert f_p1_third((1, 2)) == pytest.approx(math.log(1 / 3))
        assert f_p1_third.scale(2.0)((1, 2)) == pytest.approx(2 * math.log(1 / 3))
        assert f_p1_third.shift(1.0)((1, 2)) == pytest.approx(math.log(1 / 3) + 1.0)


class TestReduceToOrder2:
    def test_order2_identity(self, f_p1_third):
        f2, rec = reduce_to_order2(f_p1_third)
        assert f2 is f_p1_third and rec is None

    def test_order1_lift(self, golden):
        f = Potential.from_table(golden, 1, {(1,): 0.5, (2,): -0.3})
        f2, rec = reduce_to_order2(f)
        assert rec is None
        assert f2.values == {(1, 1): 0.5, (1, 2): 0.5, (2, 1): -0.3}

    def test_order3_recoding_preserves_pressure(self, golden):
        f3 = random_potential(golden, seed=5, scale=0.5, order=3)
        f2, rec = reduce_to_order2(f3)
        assert rec is not None
        # the recoded potential evaluates identically on translated words
        for (s, t), v in f2.values.items():
            assert v == f3.values[rec.edge_word(s, t)]

    def test_order1_pressure(self, full2):
        f = Potential.from_table(full2, 1, {(1,): 0.0, (2,): 0.0})
        assert pressure(f) == pytest.approx(math.log(2), abs=1e-13)


class TestTrustedConstructions:
    """The library builds its order-2 and normalized potentials without
    ``from_table``; the boundary check must accept every one of them."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("symbols", [2, 3])
    def test_from_table_accepts_derived_potentials(self, symbols, order):
        rng = np.random.default_rng(10 * symbols + order)
        for seed in range(5):
            base = random_aperiodic_base(rng, symbols)
            f = random_potential(base, seed=seed, scale=1.0, order=order)
            for g in (reduce_to_order2(f)[0], normalize_potential(f)):
                checked = Potential.from_table(g.base, 2, g.values)
                assert checked.values == g.values
                assert all(type(v) is float for v in g.values.values())


class TestOneSolve:
    """Each function solves A(f) once, builds it once, and every consumer of
    the solve (Gibbs measure, normalized potential, audit) reads the matrix
    that was solved."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: gibbs_constant_audit(f, depth=4),
            lambda f: eigen_measure_cylinder(f, (1, 2, 1)),
            lambda f: jacobian(f, (1, 2), kind="gibbs"),
            lambda f: jacobian(f, (1, 2), kind="eigen"),
            gibbs_markov,
            normalize_potential,
            pressure,
        ],
        ids=["audit", "eigen-cylinder", "gibbs-jacobian", "eigen-jacobian", "gibbs", "normalize", "pressure"],
    )
    def test_single_perron_solve(self, monkeypatch, call, ring):
        import markovspectra.thermo as thermo

        built, solves = [], []
        build, original = thermo._exp_on_support, thermo.perron
        monkeypatch.setattr(thermo, "_exp_on_support", lambda f2, q: built.append(build(f2, q)) or built[-1])
        monkeypatch.setattr(thermo, "perron", lambda A: solves.append(A) or original(A))
        call(random_potential(ring, seed=3))
        assert len(solves) == 1
        assert len(built) == 1 and solves[0] is built[0]


def reference_exp_on_support(f2, q, table):
    """The per-value build: math.exp(q * v) of each value in table order,
    raising at the first that is not positive and finite."""
    weights = []
    for v in table.ravel().tolist():
        try:
            weight = math.exp(q * v)
        except OverflowError:
            weight = math.inf
        if not 0.0 < weight < math.inf:
            tilt = "" if q == 1 else f" times q={q!r}"
            raise PotentialRangeError(f"exp of the potential value {v!r}{tilt} is out of floating-point range")
        weights.append(weight)
    A = np.zeros(table.shape[:-1] + f2.base.entries.shape)
    A[..., f2.base.edge_index[0], f2.base.edge_index[1]] = np.array(weights).reshape(table.shape)
    return A


class TestStackedExpBuild:
    @settings(max_examples=80, deadline=10_000, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.one_of(st.just(1.0), st.floats(-20.0, 20.0)))
    def test_equals_per_value_loop(self, ring, seed, rows, q):
        # |q v| reaches 800: past exp's range for |q| above about 17.7
        f2 = random_potential(ring, seed=seed % 7)
        table = np.random.default_rng(seed).uniform(-40.0, 40.0, (rows, f2.table.size))
        # the stack, and its first row as a potential's own table
        cases = [(f2, table)] + [(Potential(f2.base, 2, f2.words, row), None) for row in table[:1]]
        for g, stack in cases:
            try:
                expected = reference_exp_on_support(g, q, g.table if stack is None else stack)
            except PotentialRangeError as error:
                with pytest.raises(PotentialRangeError) as got:
                    _exp_on_support(g, q, stack)
                assert str(got.value) == str(error)
            else:
                assert _exp_on_support(g, q, stack).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("q", [1.0, 2.5])
    @pytest.mark.parametrize("first, later", [(-800.0, 800.0), (800.0, -800.0)], ids=["underflow", "overflow"])
    def test_names_the_first_value_out_of_range(self, ring, q, first, later):
        f2 = random_potential(ring, seed=2)
        table = np.tile(f2.table, (3, 1))
        table[1, 2], table[1, 4], table[2, 0] = first, later, later
        tilt = "" if q == 1 else f" times q={q!r}"
        with pytest.raises(PotentialRangeError) as error:
            _exp_on_support(f2, q, table)
        assert str(error.value) == f"exp of the potential value {first!r}{tilt} is out of floating-point range"

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_raises(self, ring, q):
        # q * 0.0 is NaN for an infinite q too
        f2 = random_potential(ring, seed=2)
        table = np.tile(f2.table, (2, 1))
        table[0, 0] = 0.0
        with pytest.raises(PotentialRangeError, match=rf"value 0\.0 times q={q!r} is out"):
            _exp_on_support(f2, q, table)
        with pytest.raises(PotentialRangeError, match=rf"times q={q!r} is out"):
            _exp_on_support(f2, q)


class TestPressure:
    def test_p1_third_zero(self, f_p1_third):
        assert pressure(f_p1_third) == pytest.approx(0.0, abs=1e-13)

    def test_p2_third_zero(self, f_p2_third):
        assert pressure(f_p2_third) == pytest.approx(0.0, abs=1e-13)

    def test_golden_zero_potential(self, golden):
        f = Potential.constant(golden, 0.0)
        assert pressure(f) == pytest.approx(math.log(PHI), abs=1e-13)

    def test_full_shift_topological_entropy(self, full2):
        assert pressure(Potential.constant(full2, 0.0)) == pytest.approx(
            math.log(2), abs=1e-13
        )

    def test_constant_shift(self, test_potentials):
        for f in test_potentials:
            p = pressure(f)
            for c in (-1.3, 0.6):
                assert pressure(f.shift(c)) == pytest.approx(p + c, abs=1e-11)

    def test_order3_recoding_invariance(self, golden):
        # a 3-locally constant function that only depends on the first two
        # symbols must have the pressure of its order-2 version
        f2 = random_potential(golden, seed=21, scale=0.4)
        from markovspectra import admissible_words

        table = {w: f2.values[w[:2]] for w in admissible_words(golden, 3)}
        f3 = Potential.from_table(golden, 3, table)
        assert pressure(f3) == pytest.approx(pressure(f2), abs=1e-12)


def preimage_loop(f, symbol, depth):
    """One terminal's n x n log-sum-exp loop, as the oracle ran before it
    advanced every terminal together."""
    f2, _ = reduce_to_order2(f)
    n = f2.base.n_symbols
    with np.errstate(divide="ignore"):
        logA = np.log(edge_matrix(f2))
    log_col = np.full(n, -np.inf)
    log_col[symbol - 1] = 0.0
    for _ in range(depth - 1):
        log_col = _logsumexp(logA + log_col[np.newaxis, :])
    last = _logsumexp(logA + log_col[np.newaxis, :])
    return float(_logsumexp(last) - _logsumexp(log_col))


def parity_potentials(scale):
    """Order-2 potentials on random 2-6 symbol supports, and order-3..5
    potentials whose recodings have 8 or more states with sparse rows."""
    rng = np.random.default_rng(12)
    potentials = [random_potential(random_aperiodic_base(rng, k), k, scale) for k in range(2, 7)]
    for order, k in ((3, 3), (4, 3), (5, 2), (5, 3)):
        base = random_aperiodic_base(rng, k)
        potentials.append(random_potential(base, order, scale, order=order))
    return potentials


class TestPressureByPreimages:
    def test_p1_third_exact(self, f_p1_third):
        assert pressure_by_preimages(f_p1_third, 40) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_golden_converges_to_log_phi(self, golden):
        f = Potential.constant(golden, 0.0)
        assert pressure_by_preimages(f, 60) == pytest.approx([math.log(PHI)] * 2, abs=1e-8)

    def test_terminal_symbol_independence(self, ring):
        f = random_potential(ring, seed=3, scale=0.25)
        assert pressure_by_preimages(f, 60) == pytest.approx([pressure(f)] * 3, abs=1e-8)

    @pytest.mark.parametrize("depth", [2, 3, 10, 60])
    @pytest.mark.parametrize("support", ["full2", "golden", "ring"])
    def test_identical_to_sum_every_step(self, request, support, depth):
        # the reference takes the column's log-sum before every update
        f = random_potential(request.getfixturevalue(support), seed=depth, scale=1.0)
        with np.errstate(divide="ignore"):
            logA = np.log(edge_matrix(f))
        estimates = pressure_by_preimages(f, depth)
        assert len(estimates) == f.base.n_symbols
        for symbol in range(1, f.base.n_symbols + 1):
            log_col = np.where(np.arange(f.base.n_symbols) == symbol - 1, 0.0, -np.inf)
            for _ in range(depth):
                prev_sum = _logsumexp(log_col)
                log_col = _logsumexp(logA + log_col[np.newaxis, :])
            reference = float(_logsumexp(log_col) - prev_sum)
            assert estimates[symbol - 1] == reference

    @pytest.mark.parametrize("depth", [2, 3, 60, 200])
    @pytest.mark.parametrize("scale", [1.0, 300.0])
    def test_identical_to_per_terminal_loop(self, monkeypatch, scale, depth):
        # np.sum adds rows of 8 or more entries pairwise by position, so the
        # recoded potentials catch an oracle that sums the edges alone
        for f in parity_potentials(scale):
            n = reduce_to_order2(f)[0].base.n_symbols
            reference = [preimage_loop(f, t, depth) for t in range(1, n + 1)]
            # one terminal a block, a short last block, and the default
            for limit in (n * n, 3 * n * n, ORACLE_BUFFER_FLOATS):
                monkeypatch.setattr("markovspectra.thermo.ORACLE_BUFFER_FLOATS", limit)
                assert pressure_by_preimages(f, depth) == reference

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_buffer_bounded_by_the_constant(self, monkeypatch, full2, blocks):
        # 64 recoded states: one unblocked buffer would hold n^3 floats (2 MiB);
        # the request's peak stays within two buffers and four n x n arrays
        f2, _ = reduce_to_order2(random_potential(full2, 5, scale=1.0, order=7))
        n = f2.base.n_symbols
        limit = blocks * n * n
        monkeypatch.setattr("markovspectra.thermo.ORACLE_BUFFER_FLOATS", limit)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pressure_by_preimages(f2, 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * limit + 4 * n * n) < 8 * n**3

    def test_depth_validation(self, f_p1_third):
        with pytest.raises(ValueError):
            pressure_by_preimages(f_p1_third, 1)


class TestGibbsMarkov:
    def test_p1_third(self, f_p1_third):
        mu = gibbs_markov(f_p1_third)
        assert mu.P == pytest.approx(
            np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]]), abs=1e-13
        )
        assert mu.pi == pytest.approx([2 / 3, 1 / 3], abs=1e-13)

    def test_rows_stochastic_and_stationary(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            assert mu.P.sum(axis=1) == pytest.approx(
                np.ones(mu.base.n_symbols), abs=1e-13
            )
            assert mu.pi @ mu.P == pytest.approx(mu.pi, abs=1e-12)
            assert mu.pi.sum() == pytest.approx(1.0, abs=1e-13)

    def test_invariant_under_constant_shift(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            nu = gibbs_markov(f.shift(0.9))
            assert nu.P == pytest.approx(mu.P, abs=1e-12)
            assert nu.pi == pytest.approx(mu.pi, abs=1e-12)


class TestCylinderMeasure:
    def test_values(self, f_p1_third):
        mu = gibbs_markov(f_p1_third)
        assert cylinder_measure(mu, (1,)) == pytest.approx(2 / 3, abs=1e-13)
        assert cylinder_measure(mu, (1, 2)) == pytest.approx(2 / 9, abs=1e-13)
        assert cylinder_measure(mu, ()) == 1.0

    def test_inadmissible_zero(self, golden):
        mu = gibbs_markov(Potential.constant(golden, 0.0))
        assert cylinder_measure(mu, (2, 2)) == 0.0
        assert log_cylinder_measure(mu, (2, 2)) == -np.inf

    def test_additivity(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            from markovspectra import admissible_words

            for n in range(1, 9):
                words = admissible_words(mu.base, n)
                total = sum(cylinder_measure(mu, w) for w in words)
                assert total == pytest.approx(1.0, abs=1e-12)
                for w in admissible_words(mu.base, n - 1) if n > 1 else [()]:
                    children = [u for u in words if u[:-1] == w]
                    mass = sum(cylinder_measure(mu, u) for u in children)
                    assert mass == pytest.approx(cylinder_measure(mu, w), abs=1e-12)

    def test_long_word_log_space(self, f_p1_third):
        mu = gibbs_markov(f_p1_third)
        # alternating word 1212...: 100 edges into state 2, 99 edges into state 1
        w = tuple(1 + (k % 2) for k in range(200))
        expected = math.log(mu.pi[0]) + 100 * math.log(1 / 3) + 99 * math.log(2 / 3)
        assert log_cylinder_measure(mu, w) == pytest.approx(expected, abs=1e-9)
        assert cylinder_measure(mu, w) == pytest.approx(
            math.exp(log_cylinder_measure(mu, w)), rel=1e-12
        )


class TestBirkhoffSum:
    def test_order2(self, f_p1_third):
        w = (1, 2, 1, 1)
        expected = math.log(1 / 3) + math.log(2 / 3) + math.log(2 / 3)
        assert birkhoff_sum(f_p1_third, w, 3) == pytest.approx(expected)

    def test_length_check(self, f_p1_third):
        with pytest.raises(WordLengthError):
            birkhoff_sum(f_p1_third, (1, 2), 2)

    def test_inadmissible_word_refused(self, golden):
        # it raised a bare KeyError: (2, 2)
        with pytest.raises(ValueError, match=r"word \(2, 2, 1\) is not admissible"):
            birkhoff_sum(Potential.constant(golden, 0.0), (2, 2, 1), 2)

    def test_negative_m_refused(self, f_p1_third):
        # it returned 0.0
        with pytest.raises(ValueError, match="m must be non-negative, got -2"):
            birkhoff_sum(f_p1_third, (1, 2), -2)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_list_word_is_the_tuple_word(self, full2, order):
        # a list word raised TypeError: unhashable type: 'list'
        f = random_potential(full2, seed=order, order=order)
        w = (1, 2, 1, 1, 2, 2)
        for m in range(len(w) - order + 2):
            assert birkhoff_sum(f, list(w), m) == birkhoff_sum(f, w, m)


class TestNormalizePotential:
    def test_p1_third_values(self, f_p1_third):
        fhat = normalize_potential(f_p1_third)
        assert fhat.values[(1, 1)] == pytest.approx(math.log(2 / 3), abs=1e-13)
        assert fhat.values[(1, 2)] == pytest.approx(math.log(2 / 3), abs=1e-13)
        assert fhat.values[(2, 1)] == pytest.approx(math.log(1 / 3), abs=1e-13)
        assert fhat.values[(2, 2)] == pytest.approx(math.log(1 / 3), abs=1e-13)

    def test_transfer_identity(self, test_potentials):
        for f in test_potentials:
            fhat = normalize_potential(f)
            lam = math.exp(pressure(f))
            for j in range(1, fhat.base.n_symbols + 1):
                col = sum(
                    math.exp(v) for (a, b), v in fhat.values.items() if b == j
                )
                assert col == pytest.approx(lam, abs=1e-10)

    def test_idempotent_after_pressure_removal(self, test_potentials):
        # normalizing fhat - P(f) is a fixed point of the normalization
        for f in test_potentials:
            fhat = normalize_potential(f).shift(-pressure(f))
            again = normalize_potential(fhat)
            for w, v in fhat.values.items():
                assert again.values[w] == pytest.approx(v, abs=1e-9)

    def test_same_gibbs_measure(self, test_potentials):
        for f in test_potentials:
            mu = gibbs_markov(f)
            nu = gibbs_markov(normalize_potential(f))
            assert nu.P == pytest.approx(mu.P, abs=1e-11)
            assert nu.pi == pytest.approx(mu.pi, abs=1e-11)


class TestJacobians:
    def test_gibbs_jacobian_sums_to_one_over_preimages(self, f_p1_third):
        for j in (1, 2):
            total = sum(
                jacobian(f_p1_third, (i, j), kind="gibbs")
                for i in (1, 2)
                if f_p1_third.base.has_edge(i, j)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_eigen_jacobian(self, f_p1_third):
        assert jacobian(f_p1_third, (1, 2), kind="eigen") == pytest.approx(
            1 / 3, abs=1e-13
        )

    def test_word_length(self, f_p1_third):
        with pytest.raises(WordLengthError):
            jacobian(f_p1_third, (1,))

    def test_bad_kind_refused_before_solving(self, f_p1_third, monkeypatch):
        monkeypatch.setattr("markovspectra.thermo.perron", lambda A: pytest.fail("solved before the kind was checked"))
        with pytest.raises(ValueError, match="kind must be 'eigen' or 'gibbs'"):
            jacobian(f_p1_third, (1, 2), kind="up")

    @pytest.mark.parametrize("kind", ["gibbs", "eigen"])
    def test_inadmissible_word_refused(self, golden, kind):
        # it raised a bare KeyError: (2, 2)
        with pytest.raises(ValueError, match=r"word \(2, 2\) is not admissible"):
            jacobian(Potential.constant(golden, 0.0), (2, 2), kind=kind)


class TestEigenMeasure:
    def test_p1_third_cylinders(self, f_p1_third):
        # nu([w]) = mu([w]) / u_{w0} with u = (4/3, 2/3)
        assert eigen_measure_cylinder(f_p1_third, (1,)) == pytest.approx(
            (2 / 3) / (4 / 3), abs=1e-12
        )
        assert eigen_measure_cylinder(f_p1_third, (2,)) == pytest.approx(
            (1 / 3) / (2 / 3), abs=1e-12
        )
        assert eigen_measure_cylinder(f_p1_third, ()) == 1.0

    @pytest.mark.parametrize("w", [(3,), (0,), (-1,), (1, 3), (3, 1), (1, 2, 3)])
    def test_word_outside_the_alphabet_has_zero_mass(self, f_p1_third, w):
        # u_{w_0} has no entry for a symbol outside the alphabet
        assert eigen_measure_cylinder(f_p1_third, w) == 0.0

    def test_conformality(self, test_potentials):
        # nu([iw]) = lambda^-1 exp(f(iw)) nu([w]) for 2-locally constant f
        for f in test_potentials:
            from markovspectra import reduce_to_order2

            f2, _ = reduce_to_order2(f)
            lam = math.exp(pressure(f2))
            from markovspectra import admissible_words

            for w in admissible_words(f2.base, 3):
                lhs = eigen_measure_cylinder(f2, w)
                rhs = (
                    math.exp(f2.values[w[:2]])
                    / lam
                    * eigen_measure_cylinder(f2, w[1:])
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEntropyAndIntegral:
    def test_bernoulli_third_entropy(self, f_p1_third):
        H = math.log(3) - (2 / 3) * math.log(2)
        assert entropy_rate(gibbs_markov(f_p1_third)) == pytest.approx(H, abs=1e-12)

    def test_variational_identity(self, test_potentials):
        # P(f) = h(mu_f) + integral of f for the Gibbs measure
        for f in test_potentials:
            from markovspectra import reduce_to_order2

            f2, _ = reduce_to_order2(f)
            mu = gibbs_markov(f2)
            assert entropy_rate(mu) + potential_integral(mu, f2) == pytest.approx(
                pressure(f2), abs=1e-11
            )

    def test_uniform_measure_entropy(self, full2):
        mu = MarkovMeasure.from_stochastic(full2, [[0.5, 0.5], [0.5, 0.5]])
        assert entropy_rate(mu) == pytest.approx(math.log(2), abs=1e-14)

    def test_integral_refuses_a_potential_on_another_base(self, full2, golden, f_p1_third):
        # it returned 8/9: the golden-mean table read against a full-shift measure
        with pytest.raises(ValueError, match="same base"):
            potential_integral(gibbs_markov(f_p1_third), Potential.constant(golden, 1.0))


class TestMarkovMeasure:
    @pytest.mark.parametrize(
        "matrix,needle",
        [
            (np.full((3, 3), 1 / 3), "shape"),
            ([[1.0, 0.0], [1.0, 0.0]], "support"),
            ([[0.5, 0.5], [0.5, 0.5]], "support"),
            ([[0.5, 0.5], [1.2, -0.2]], "support"),
            ([[0.5, 0.5], [1.0, math.nan]], "finite"),
        ],
        ids=["shape", "zero-on-support", "positive-off-support", "negative-off-support", "nan-off-support"],
    )
    def test_from_stochastic_checks_the_support(self, golden, matrix, needle):
        with pytest.raises(ValueError, match=needle):
            MarkovMeasure.from_stochastic(golden, matrix)


class TestGibbsAudit:
    def test_p1_third_constant_two(self, f_p1_third):
        audit = gibbs_constant_audit(f_p1_third, depth=12)
        assert audit.constant == pytest.approx(2.0, abs=1e-12)
        assert audit.observed_min == pytest.approx(0.5, abs=1e-12)
        assert audit.observed_max == pytest.approx(2.0, abs=1e-12)
        assert audit.within_bounds

    def test_random_potentials_within_bounds(self, test_potentials):
        for f in test_potentials:
            audit = gibbs_constant_audit(f, depth=10)
            assert audit.within_bounds
            assert audit.theoretical_min - 1e-12 <= audit.observed_min
            assert audit.observed_max <= audit.theoretical_max + 1e-12

    def test_normalized_zero_pressure_audit(self, f_p2_third):
        fhat = normalize_potential(f_p2_third).shift(-pressure(f_p2_third))
        audit = gibbs_constant_audit(fhat, depth=8)
        assert audit.pressure == pytest.approx(0.0, abs=1e-12)
        assert audit.within_bounds

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, f_p1_third, depth):
        # no cylinder would be audited, and an empty audit must not pass
        with pytest.raises(ValueError, match="depth must be at least 1"):
            gibbs_constant_audit(f_p1_third, depth=depth)


def attainable_pairs(base, depth):
    """Start->end pairs joined by a path of m-1 edges for some m in 1..depth,
    from integer matrix products."""
    reach = np.eye(base.n_symbols, dtype=bool)
    attain = reach.copy()
    for _ in range(depth - 1):
        reach = reach.astype(np.int64) @ base.entries > 0
        attain |= reach
    return attain


def reference_gibbs_audit(f, depth):
    """The per-word audit: one log_cylinder_measure and one birkhoff_sum
    call per cylinder, over words grown as tuples."""
    bf = BetaFunction(f)
    f2, A, triple = bf.f2, bf.matrix(1.0), bf.triple(1.0)
    mu = gibbs_markov(f2)
    P_press = math.log(triple.root)
    pi, v = mu.pi, triple.right
    n = f2.base.n_symbols

    attain = attainable_pairs(f2.base, depth)
    theo_values = [
        pi[i] / v[i] * v[j] * triple.root / A[j, k]
        for i in range(n)
        for j in range(n)
        if attain[i, j]
        for k in range(n)
        if A[j, k] > 0
    ]
    theo_min, theo_max = float(min(theo_values)), float(max(theo_values))
    constant = max(theo_max, 1.0 / theo_min)

    observed_min, observed_max = np.inf, -np.inf
    words = [(i,) for i in range(1, n + 1)]
    for m in range(1, depth + 1):
        words = [w + (j,) for w in words for j in range(1, n + 1) if f2.base.has_edge(w[-1], j)]
        for w in words:
            log_ratio = (
                log_cylinder_measure(mu, w[:m]) + m * P_press - birkhoff_sum(f2, w, m)
            )
            ratio = math.exp(log_ratio)
            observed_min = min(observed_min, ratio)
            observed_max = max(observed_max, ratio)

    slack = 1e-10 * max(1.0, constant)
    within = bool(
        1.0 / constant - slack <= observed_min and observed_max <= constant + slack
    )
    return GibbsAudit(
        P_press, constant, float(observed_min), float(observed_max), theo_min, theo_max, depth, within
    )


# The oracle cases: (support, order, depth).  The per-word reference needs
# ~5 s for one depth-10 audit on the full 3-shift (265k cylinders; 800k at
# order 3), so that support stops at 8.
ORACLE_SUPPORTS = ("full2", "full3", "golden", "ring")
ORACLE_CASES = [
    (support, order, depth)
    for support in ORACLE_SUPPORTS
    for order in (1, 2, 3)
    for depth in (range(1, 9) if support == "full3" else range(1, 11))
]


def oracle_potential(support, order, depth):
    base = {"full2": full_shift(2), "full3": full_shift(3), "golden": golden_mean(), "ring": ring3()}[support]
    return random_potential(base, seed=100 * order + depth, scale=1.0, order=order)


@functools.cache
def oracle_reference(support, order, depth):
    return reference_gibbs_audit(oracle_potential(support, order, depth), depth)


def pair_extremes(f, depth):
    """The theoretical extremes as (n, n) arrays: the closed form at every
    attainable (start, end) pair over the least and largest A entry of the
    end's row."""
    bf = BetaFunction(f)
    f2, A, triple = bf.f2, bf.matrix(1.0), bf.triple(1.0)
    pi, v = gibbs_markov(f2).pi, triple.right
    head = (pi / v)[:, None] * v[None, :] * triple.root
    attain = attainable_pairs(f2.base, depth)
    low = (head / A.max(axis=1))[attain].min()
    high = (head / np.where(A > 0, A, np.inf).min(axis=1))[attain].max()
    return float(low), float(high)


def exact_observed_extremes(f, depth):
    """The observed extremes at 50 digits: min and max of
    u_s v_e lambda / ((u.v) A_ek) over attainable (s, e) and edges (e, k),
    with A = exp(f) and the Perron data refined by Newton steps from the
    double result, at the working precision of mpmath."""
    mp = pytest.importorskip("mpmath")
    bf = BetaFunction(f)
    f2, triple = bf.f2, bf.triple(1.0)
    n = f2.base.n_symbols
    A = mp.zeros(n, n)
    src, dst = f2.base.edge_index
    for i, j, value in zip(src.tolist(), dst.tolist(), f2.table.tolist()):
        A[i, j] = mp.exp(value)

    def eigenpair(M, start):
        # Newton on (M - lam) x = 0, sum(x) = 1
        x, lam = mp.matrix(start.tolist()) / float(start.sum()), mp.mpf(triple.root)
        for _ in range(4):
            J = (M - lam * mp.eye(n)).tolist()
            J = mp.matrix([row + [-x[a]] for a, row in enumerate(J)] + [[1] * n + [0]])
            d = mp.lu_solve(J, mp.matrix([-r for r in M * x - lam * x] + [1 - sum(x)]))
            x, lam = x + d[:n], lam + d[n]
        assert mp.norm(M * x - lam * x) < mp.mpf(10) ** -45
        return lam, x

    lam, v = eigenpair(A, triple.right)
    _, u = eigenpair(A.T, triple.left)
    uv = sum(u[i] * v[i] for i in range(n))
    attain = attainable_pairs(f2.base, depth)
    ratios = [
        u[s] * v[e] * lam / (uv * A[e, k])
        for s, e in np.argwhere(attain).tolist()
        for k in range(n)
        if A[e, k] != 0
    ]
    return min(ratios), max(ratios)


class TestGibbsAuditOracle:
    """The recursion must agree with the per-word audit and be no less
    accurate than it."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_theoretical_extremes_match_integer_reach(self, n):
        rng = np.random.default_rng(n)
        for depth in (1, 2, 3, 7, 12):
            f = random_potential(random_aperiodic_base(rng, n), seed=depth, scale=1.0)
            audit = gibbs_constant_audit(f, depth)
            assert (audit.theoretical_min, audit.theoretical_max) == pair_extremes(f, depth), depth

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_recoded_theoretical_extremes_match_integer_reach(self, order):
        # the reach loop runs min(depth - 1, power) steps, with power the
        # recoded base's aperiodicity power (the base's power + order - 2):
        # the depths past power + 1 check that bound
        rng = np.random.default_rng(order)
        for n, seed in itertools.product((2, 3), range(6)):
            f = random_potential(random_aperiodic_base(rng, n), seed=seed, scale=1.0, order=order)
            power = reduce_to_order2(f)[0].base.aperiodicity_power
            for depth in range(1, power + 4):
                audit = gibbs_constant_audit(f, depth)
                assert (audit.theoretical_min, audit.theoretical_max) == pair_extremes(f, depth), (n, seed, depth)

    def test_deep_audit_within_budget(self):
        # order-6 full 3-shift: 243 recoded states, aperiodicity power 5
        f = random_potential(full_shift(3), seed=6, scale=1.0, order=6)
        power = reduce_to_order2(f)[0].base.aperiodicity_power
        start = time.perf_counter()
        deep = gibbs_constant_audit(f, depth=MAX_DEPTH)
        elapsed = time.perf_counter() - start
        shallow = gibbs_constant_audit(f, depth=power + 1)
        theoretical = ("constant", "theoretical_min", "theoretical_max")
        assert all(getattr(deep, name) == getattr(shallow, name) for name in theoretical)
        assert deep.within_bounds
        assert elapsed < 2.0, f"runtime {elapsed:.2f}s exceeds the 2.0s budget"

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("support", ORACLE_SUPPORTS)
    def test_identical_to_per_word_audit(self, support, order):
        # the recursion sums in another order than the per-word formulas, so
        # only the closed-form fields are bit-identical
        for case in ORACLE_CASES:
            if case[:2] != (support, order):
                continue
            audit, ref = gibbs_constant_audit(oracle_potential(*case), depth=case[2]), oracle_reference(*case)
            same = ("pressure", "constant", "theoretical_min", "theoretical_max", "depth", "within_bounds")
            assert all(getattr(audit, name) == getattr(ref, name) for name in same), case
            assert audit.observed_min == pytest.approx(ref.observed_min, rel=1e-14, abs=0), case
            assert audit.observed_max == pytest.approx(ref.observed_max, rel=1e-14, abs=0), case

    def test_no_less_accurate_than_per_word_audit(self):
        mp = pytest.importorskip("mpmath")

        def ulps(x, exact):
            return float(abs(x - exact) / math.ulp(float(exact)))

        worst = np.zeros((len(ORACLE_CASES), 2))  # columns: recursion, per-word
        with mp.workdps(50):
            for row, case in zip(worst, ORACLE_CASES):
                f, depth = oracle_potential(*case), case[2]
                low, high = exact_observed_extremes(f, depth)
                for col, audit in enumerate((gibbs_constant_audit(f, depth), oracle_reference(*case))):
                    row[col] = max(ulps(audit.observed_min, low), ulps(audit.observed_max, high))
        # over the cases, worst 23.4 ulps against the per-word 40.4, median
        # 4.1 against 5.6; single cases go either way by a few ulps
        assert worst[:, 0].max() <= worst[:, 1].max()
        assert np.median(worst[:, 0]) <= np.median(worst[:, 1])
