import math
import re

import numpy as np
import pytest

from markovspectra import (
    BetaFunction,
    Potential,
    alpha_range,
    entropy_rate,
    entropy_spectrum,
    gibbs_markov,
    log_p1_potential,
    parse_model,
    pressure,
    sample_spectrum,
    spectra_equal,
)
from markovspectra import spectrum, thermo
from markovspectra.errors import (
    MarkovSpectraError,
    NonConvergenceError,
    PotentialRangeError,
    SolverError,
    StochasticityError,
)
from markovspectra.perron import perron, perron_stack
from markovspectra.spectrum import (
    FLAG_DEGENERATE,
    FLAG_ENDPOINT,
    FLAG_INTERIOR,
    FLAG_OUTSIDE,
    SpectrumValue,
)
from conftest import random_aperiodic_base, random_potential, reference_sample_spectrum


def steep(full2, f12: float) -> Potential:
    """Order 2 on the full 2-shift with f(11) = 40: exp(40 q) overflows from
    q = 17.75 and underflows from q = -18.75."""
    return Potential.from_table(full2, 2, {(1, 1): 40.0, (1, 2): f12, (2, 1): 0.0, (2, 2): 0.0})


def ring_steep(ring, f3: float) -> Potential:
    """Order 1 on ring3 with f = (20, -20, f3): in range on all of
    COMPARE_GRID, but the dense solve fails from q = 3.75 (a Perron vector
    entry underflows), so the grid's stacked block holds failing rows."""
    return Potential.from_table(ring, 1, {(1,): 20.0, (2,): -20.0, (3,): f3})


def relabelled(f: Potential, perm: tuple[int, ...]) -> Potential:
    """f with symbol s renamed perm[s - 1], on a base that perm maps to
    itself: an isomorphic system, but f minus it is no coboundary, so
    ``spectra_equal`` declines its certificate and scans the grid."""
    return Potential.from_table(f.base, f.order, {tuple(perm[s - 1] for s in w): v for w, v in f.values.items()})


def closed_beta(q):
    """beta(q) for log P1(1/3): pressure of q*f with P(f) = 0."""
    return math.log((2 / 3) ** q + (1 / 3) ** q)


class TestBeta:
    def test_closed_form(self, f_p1_third):
        bf = BetaFunction(f_p1_third)
        for q in (-5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 7.5):
            assert bf.beta(q) == pytest.approx(closed_beta(q), abs=1e-12)

    def test_beta_two(self, f_p1_third):
        assert BetaFunction(f_p1_third).beta(2.0) == pytest.approx(math.log(5 / 9), abs=1e-12)

    @pytest.mark.parametrize("q", [-10.0, 10.0])
    def test_tilt_out_of_range_raises(self, full2, q):
        # exp(100)**q underflows to 0 at q = -10 and overflows at q = 10
        f = Potential.from_table(full2, 1, {(1,): 100.0, (2,): 0.5})
        with pytest.raises(PotentialRangeError):
            BetaFunction(f).beta(q)

    def test_anchor_values(self, test_potentials):
        for f in test_potentials:
            bf = BetaFunction(f)
            assert bf.beta(1.0) == pytest.approx(0.0, abs=1e-12)
            h_top = pressure(Potential.constant(bf.f2.base, 0.0))
            assert bf.beta(0.0) == pytest.approx(h_top, abs=1e-12)

    def test_convex_and_decreasing(self, test_potentials):
        grid = np.linspace(-8.0, 8.0, 33)
        for f in test_potentials:
            bf = BetaFunction(f)
            vals = [bf.beta(q) for q in grid]
            diffs = np.diff(vals)
            assert (np.diff(diffs) >= -1e-9).all()  # convexity
            degenerate = alpha_range(bf).degenerate
            if not degenerate:
                assert (diffs < 0).all()  # strictly decreasing slope... values

    def test_recoding_invariance(self, golden):
        from markovspectra import admissible_words

        f2 = random_potential(golden, seed=31, scale=0.4)
        table = {w: f2.values[w[:2]] for w in admissible_words(golden, 3)}
        f3 = Potential.from_table(golden, 3, table)
        b2, b3 = BetaFunction(f2), BetaFunction(f3)
        for q in (-6.0, -1.5, 0.0, 0.7, 3.0):
            assert b3.beta(q) == pytest.approx(b2.beta(q), abs=1e-10)
            assert b3.alpha(q) == pytest.approx(b2.alpha(q), abs=1e-10)


class TestAlpha:
    def test_alpha_zero_closed_form(self, f_p1_third):
        assert BetaFunction(f_p1_third).alpha(0.0) == pytest.approx(math.log(9 / 2) / 2, abs=1e-12)

    def test_alpha_one_is_entropy(self, test_potentials):
        for f in test_potentials:
            h = entropy_rate(gibbs_markov(f))
            assert BetaFunction(f).alpha(1.0) == pytest.approx(h, abs=1e-11)

    def test_matches_finite_difference_of_beta(self, test_potentials):
        h = 1e-6
        for f in test_potentials:
            bf = BetaFunction(f)
            for q in (-3.0, 0.0, 1.0, 4.0):
                fd = -(bf.beta(q + h) - bf.beta(q - h)) / (2 * h)
                assert bf.alpha(q) == pytest.approx(fd, abs=1e-9)

    def test_strictly_decreasing(self, f_p1_third):
        bf = BetaFunction(f_p1_third)
        qs = np.linspace(-10, 10, 41)
        vals = [bf.alpha(q) for q in qs]
        assert (np.diff(vals) < 0).all()

    def test_limits_match_cycle_extremes(self, test_potentials):
        for f in test_potentials:
            bf = BetaFunction(f)
            rng = alpha_range(bf)
            if rng.degenerate:
                continue
            # convergence toward the Karp endpoints can be slow when two
            # cycle means nearly tie, so check the limit at the cap and
            # monotone improvement along the way
            assert bf.alpha(200.0) == pytest.approx(rng.alpha_min, abs=5e-3)
            assert bf.alpha(-200.0) == pytest.approx(rng.alpha_max, abs=5e-3)
            assert abs(bf.alpha(200.0) - rng.alpha_min) <= abs(bf.alpha(60.0) - rng.alpha_min) + 1e-12
            assert abs(bf.alpha(-200.0) - rng.alpha_max) <= abs(bf.alpha(-60.0) - rng.alpha_max) + 1e-12
            assert rng.alpha_min < bf.alpha(0.0) < rng.alpha_max
            # alpha(q) always stays inside the closed range
            for q in (-200.0, -7.0, 0.3, 12.0, 200.0):
                assert rng.alpha_min - 1e-12 <= bf.alpha(q) <= rng.alpha_max + 1e-12


class TestAlphaSlope:
    @pytest.mark.parametrize("q", [-150.0, -30.0, -3.0, 0.0, 0.7, 3.0, 30.0, 150.0])
    def test_bernoulli_closed_form(self, f_p1_third, q):
        # alpha'(q) = -p^q r^q (log p - log r)^2 / (p^q + r^q)^2 with
        # (p, r) = (2/3, 1/3), written through s = (r/p)^q so that no side
        # underflows even at |q| = 150
        s = 0.5**q
        exact = -s / (1 + s) ** 2 * math.log(2) ** 2
        assert BetaFunction(f_p1_third).alpha_slope(q) == pytest.approx(exact, rel=1e-12)

    def test_makes_no_perron_solve(self, f_p1_third, monkeypatch):
        bf = BetaFunction(f_p1_third)
        bf.alpha(2.5)
        monkeypatch.setattr(thermo, "perron", lambda A: pytest.fail("alpha_slope made a Perron solve"))
        bf.alpha_slope(2.5)


class TestPerronCache:
    """Each q is built once and solved once, and beta, alpha, alpha_slope and
    the Gibbs measure all read the matrix that was solved."""

    def test_one_build_and_one_solve_per_q(self, ring, monkeypatch):
        built, solves = [], []
        build, solve = thermo._exp_on_support, thermo.perron
        monkeypatch.setattr(thermo, "_exp_on_support", lambda f2, q: built.append(q) or build(f2, q))
        monkeypatch.setattr(thermo, "perron", lambda A: solves.append(A) or solve(A))
        bf = BetaFunction(random_potential(ring, seed=4))
        qs = [1.0, -2.0, 0.5, 3.0]
        for q in qs + qs[::-1]:
            bf.beta(q), bf.alpha(q), bf.alpha_slope(q)
        assert built == qs
        assert len(solves) == len(qs) and all(bf.matrix(q) is A for q, A in zip(qs, solves))

    def test_grid_build_is_the_per_q_build_and_solves_nothing(self, full2, monkeypatch):
        # on 2 symbols solve builds the grid's tilts, stacked, and solves none
        bf = BetaFunction(random_potential(full2, seed=4))
        grid = [0.0, 0.25, -0.25, 3.0, -7.5]
        monkeypatch.setattr(thermo, "perron", lambda A: pytest.fail("a 2-symbol grid was solved"))
        monkeypatch.setattr(thermo, "perron_stack", lambda A: pytest.fail("a 2-symbol grid was stacked"))
        bf.solve(grid + grid[::-1])
        built = [bf.matrix(q) for q in grid]
        for q, A in zip(grid, built):
            assert A.tolist() == thermo._exp_on_support(bf.f2, q).tolist()
            assert not A.flags.writeable and bf.matrix(q) is A
        monkeypatch.undo()
        for q, A in zip(grid, built):
            t, fresh = bf.triple(q), BetaFunction(bf.f2).triple(q)
            assert bf.matrix(q) is A
            assert t.root == fresh.root and t.left.tolist() == fresh.left.tolist()

    def test_a_block_out_of_range_is_left_to_the_per_q_build(self, full2, monkeypatch):
        monkeypatch.setattr("markovspectra.thermo.ORACLE_BUFFER_FLOATS", 2 * 4)  # two q a block on 2 symbols
        bf = BetaFunction(steep(full2, 0.0))
        bf.solve([0.5, 1.5, 17.5, 17.75])
        assert {0.5, 1.5} <= set(bf._matrices) and {17.5, 17.75}.isdisjoint(bf._matrices)
        bf.beta(17.5)
        with pytest.raises(PotentialRangeError, match=r"40\.0 times q=17\.75 is out"):
            bf.beta(17.75)

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_stacked_solves_are_bounded_and_per_q_bit_for_bit(self, ring, monkeypatch, order, rows):
        # each stacked build and solve holds at most ORACLE_BUFFER_FLOATS
        # floats of matrices, and caches the per-q build of each q and the
        # triple that perron gives it
        bf = BetaFunction(random_potential(ring, seed=5, scale=0.5, order=order))
        n = bf.f2.base.n_symbols
        grid = [q / 4 for q in range(-30, 31, 3)]
        shapes = []
        stack = thermo.perron_stack
        monkeypatch.setattr(thermo, "ORACLE_BUFFER_FLOATS", rows * n * n)
        monkeypatch.setattr(thermo, "perron_stack", lambda A: shapes.append(A.shape) or stack(A))
        monkeypatch.setattr(thermo, "perron", lambda A: pytest.fail("a stacked grid was solved per q"))
        bf.solve(grid)
        assert len(shapes) == math.ceil(len(grid) / rows)
        assert all(k <= rows and m == n for k, m, _ in shapes)
        monkeypatch.undo()
        for q in grid:
            assert not bf.matrix(q).flags.writeable
            assert bf.matrix(q).tolist() == thermo._exp_on_support(bf.f2, q).tolist()
            t, fresh = bf.triple(q), perron(bf.matrix(q))
            assert type(t.root) is float and type(t.residual) is float and type(t.iterations) is int
            assert (t.root, t.residual, t.iterations) == (fresh.root, fresh.residual, fresh.iterations)
            assert t.left.tolist() == fresh.left.tolist() and t.right.tolist() == fresh.right.tolist()

    def test_a_failing_stack_is_left_to_the_per_q_solve(self, ring):
        # the block's rows that perron refuses (q >= 3.75) are not cached, so
        # their per-q solve raises; the block's other rows are, with perron's bits
        bf = BetaFunction(ring_steep(ring, 0.0))
        bf.solve([0.5, 2.0, 3.75, 4.0])
        assert {0.5, 2.0} <= set(bf._triples) and {3.75, 4.0}.isdisjoint(bf._triples)
        for q in (0.5, 2.0):
            t, fresh = bf._triples[q], perron(bf.matrix(q))
            assert (t.root, t.residual, t.iterations) == (fresh.root, fresh.residual, fresh.iterations)
            assert t.left.tolist() == fresh.left.tolist() and t.right.tolist() == fresh.right.tolist()
        with pytest.raises(NonConvergenceError) as single:
            perron(bf.matrix(3.75))
        with pytest.raises(NonConvergenceError, match=re.escape(str(single.value))):
            bf.beta(3.75)

    @pytest.mark.parametrize("q", [1.0, -2.0, 0.5])
    def test_gibbs_reads_the_solve(self, ring, q):
        # bf.gibbs and a second solve of the built matrix (sample_spectrum's
        # cross-check on 2 symbols) are both the Gibbs measure of the scaled
        # potential, bit for bit
        rng = np.random.default_rng(23)
        fs = [random_potential(ring, seed=4)] + [
            random_potential(random_aperiodic_base(rng, n), seed=10 * n + order, order=order)
            for n in (2, 3, 4)
            for order in (1, 2, 3)
        ]
        for f in fs:
            bf = BetaFunction(f)
            bf.solve([-3.0, q, 0.25])
            expected = gibbs_markov(bf.f2.scale(q))
            A = bf.matrix(q)
            t = spectrum.perron(A)
            for mu in (bf.gibbs(q), thermo._gibbs(bf.f2.base, A, t.root, t.left, t.right)[0]):
                assert (mu.P == expected.P).all() and (mu.pi == expected.pi).all()
            assert bf.matrix(q) is A


class TestAlphaRange:
    def test_p1_third(self, f_p1_third):
        rng = alpha_range(f_p1_third)
        assert rng.alpha_min == pytest.approx(math.log(3 / 2), abs=1e-12)
        assert rng.alpha_max == pytest.approx(math.log(3), abs=1e-12)
        assert not rng.degenerate
        assert rng.min_cycle == (1,) and rng.max_cycle == (2,)

    def test_constant_degenerate(self, full2):
        rng = alpha_range(Potential.constant(full2, 0.7))
        assert rng.degenerate
        assert rng.alpha_min == pytest.approx(rng.alpha_max, abs=1e-12)
        # pressure log(2 e^0.7) minus the constant cycle mean 0.7
        assert rng.alpha_min == pytest.approx(math.log(2), abs=1e-12)


class TestEntropySpectrum:
    def test_peak(self, f_p1_third):
        a0 = BetaFunction(f_p1_third).alpha(0.0)
        val = entropy_spectrum(f_p1_third, a0)
        assert val.flag == FLAG_INTERIOR
        assert val.value == pytest.approx(math.log(2), abs=1e-10)
        assert val.q == pytest.approx(0.0, abs=1e-6)

    def test_diagonal_point(self, f_p1_third):
        h = entropy_rate(gibbs_markov(f_p1_third))
        val = entropy_spectrum(f_p1_third, h)
        assert val.value == pytest.approx(h, abs=1e-10)
        assert val.q == pytest.approx(1.0, abs=1e-6)

    def test_outside_range(self, f_p1_third):
        assert entropy_spectrum(f_p1_third, 0.1).flag == FLAG_OUTSIDE
        assert entropy_spectrum(f_p1_third, 2.0).flag == FLAG_OUTSIDE
        assert entropy_spectrum(f_p1_third, 2.0).value == 0.0
        for a in (-math.inf, math.inf):
            assert entropy_spectrum(f_p1_third, a) == SpectrumValue(0.0, FLAG_OUTSIDE)

    def test_endpoint_extrapolated(self, f_p1_third, monkeypatch):
        rng = alpha_range(f_p1_third)
        # a small q cap forces the extrapolated branch at the exact endpoints
        monkeypatch.setattr(spectrum, "Q_CAP", 40.0)
        for target in (rng.alpha_min, rng.alpha_max):
            val = entropy_spectrum(f_p1_third, target)
            assert val.flag == FLAG_ENDPOINT
            assert abs(val.value) <= 1e-3

    def test_degenerate_case(self, full2):
        f = Potential.constant(full2, 0.7)
        rng = alpha_range(f)
        val = entropy_spectrum(f, rng.alpha_min)
        assert val.flag == FLAG_DEGENERATE
        assert val.value == pytest.approx(math.log(2), abs=1e-12)
        assert entropy_spectrum(f, rng.alpha_min + 1e-3).flag == FLAG_OUTSIDE

    def test_variational_inequality(self, test_potentials):
        # E(alpha) <= beta(q) + q alpha for every q on a coarse grid
        for f in test_potentials:
            bf = BetaFunction(f)
            rng = alpha_range(bf)
            if rng.degenerate:
                continue
            targets = np.linspace(rng.alpha_min, rng.alpha_max, 9)[1:-1]
            for a in targets:
                val = entropy_spectrum(bf, float(a))
                for q in np.linspace(-12, 12, 25):
                    assert val.value <= bf.beta(float(q)) + float(q) * a + 1e-8

    @pytest.mark.parametrize("q0", [-2.5, -1.0, 0.0, 0.4, 1.7, 3.0])
    def test_recovers_q_within_solve_budget(self, test_potentials, q0, monkeypatch):
        # q0 = -1 is a bracket end: the cached alpha there is returned
        # instead of Newton steps that round just past it
        perron, solves = thermo.perron, []

        def counted(A):
            solves.append(A)
            return perron(A)

        monkeypatch.setattr(thermo, "perron", counted)
        for f in test_potentials:
            if alpha_range(f).degenerate:
                continue
            ref = BetaFunction(f)
            a0 = ref.alpha(q0)
            del solves[:]
            val = entropy_spectrum(BetaFunction(f), a0)
            assert len(solves) <= 14  # BetaFunction's pressure solve included
            assert val.flag == FLAG_INTERIOR
            assert val.q == pytest.approx(q0, abs=1e-9)
            assert val.value == pytest.approx(ref.beta(q0) + q0 * a0, abs=1e-12)

    def test_bernoulli_entropy_near_endpoints(self, f_p1_third):
        # P1(1/3) is Bernoulli(2/3, 1/3): at alpha = log(3/2) + t log 2 the
        # spectrum is the entropy of (1 - t, t)
        rng = alpha_range(f_p1_third)
        for a in (rng.alpha_min + 1e-9, rng.alpha_max - 1e-9):
            t = (a - math.log(1.5)) / math.log(2)
            exact = -t * math.log(t) - (1 - t) * math.log1p(-t)
            val = entropy_spectrum(f_p1_third, a)
            assert val.flag == FLAG_INTERIOR
            assert val.value == pytest.approx(exact, abs=1e-14)

    def test_nan_alpha_rejected(self, f_p1_third):
        with pytest.raises(ValueError, match="alpha_value"):
            entropy_spectrum(f_p1_third, math.nan)

    def test_concavity_on_interior(self, f_p1_third):
        bf = BetaFunction(f_p1_third)
        rng = alpha_range(bf)
        grid = np.linspace(rng.alpha_min + 1e-3, rng.alpha_max - 1e-3, 21)
        vals = [entropy_spectrum(bf, float(a)).value for a in grid]
        assert (np.diff(np.diff(vals)) <= 1e-8).all()


class TestSampleSpectrum:
    def test_curve_consistency(self, f_p1_third):
        curve = sample_spectrum(f_p1_third, np.linspace(-6, 6, 25))
        assert not curve.degenerate
        for s in curve.samples:
            assert s.entropy == pytest.approx(s.beta + s.q * s.alpha, abs=1e-12)
            assert curve.alpha_min - 1e-12 <= s.alpha <= curve.alpha_max + 1e-12
        alphas = [s.alpha for s in curve.samples]
        assert (np.diff(alphas) < 0).all()

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflowing_stacked_tilt_raises_its_range_error(self, n):
        # q * f overflows to inf in the stacked build, with no NumPy warning:
        # the block is skipped and q's own build names the first value
        symbols = range(1, n + 1)
        values = {f"{i}{j}": 10.0 if i == j == 1 else float(i - 2 * j) for i in symbols for j in symbols}
        f = parse_model({"transition": [[1] * n] * n, "potential": {"order": 2, "values": values}}).potential
        with pytest.raises(PotentialRangeError, match=r"value 10\.0 times q=1e\+308 is out"):
            sample_spectrum(f, [1e308])

    def test_unsorted_grid_rejected(self, f_p1_third):
        with pytest.raises(ValueError):
            sample_spectrum(f_p1_third, [1.0, 0.0])

    def test_non_finite_grid_rejected_before_any_solve(self, f_p1_third, monkeypatch):
        # NaN compares false, so this grid passes a sortedness check
        monkeypatch.setattr(thermo, "perron", lambda A: pytest.fail("solved before the grid was checked"))
        with pytest.raises(ValueError, match="finite, got nan"):
            sample_spectrum(f_p1_third, [1.0, math.nan, 0.0])

    @pytest.mark.parametrize("grid", [[-1.0, 0.0, 1.0, 2.5], np.arange(-10.0, 10.25, 0.5)], ids=["4", "cli-41"])
    def test_one_grid_build_and_two_solves_of_each_built_matrix(self, full2, monkeypatch, grid):
        # a 2-symbol grid is solved one q at a time: the CLI's default
        # 41-point grid makes 82 solves here, and its h_mu re-solve makes
        # the 83 that the benchmark pins for `spectrum`
        built, solves = [], []
        build, solve = thermo._exp_on_support, thermo.perron
        monkeypatch.setattr(thermo, "_exp_on_support", lambda *a, **k: built.append(a) or build(*a, **k))
        for module in (spectrum, thermo):  # the cross-check's solve, and the grid's
            monkeypatch.setattr(module, "perron", lambda A: solves.append(A) or solve(A))
        monkeypatch.setattr(thermo, "perron_stack", lambda A: pytest.fail("a 2-symbol grid was stacked"))
        bf = BetaFunction(random_potential(full2, seed=4))
        sample_spectrum(bf, grid)
        assert len(built) == 2 and built[0][1] == 1.0
        assert len(solves) == 2 * len(grid)
        for q in grid:
            assert sum(A is bf.matrix(q) for A in solves) == 2

    @pytest.mark.parametrize("grid", [[-1.0, 0.0, 1.0, 2.5], np.arange(-10.0, 10.25, 0.5)], ids=["4", "cli-41"])
    def test_one_stacked_solve_and_one_cross_check_of_each_built_matrix(self, ring, monkeypatch, grid):
        # n >= 3: one stacked solve for the grid's one block, and the array
        # pass's cross-checks read it: no perron call, and no per-q Gibbs measure
        bf = BetaFunction(random_potential(ring, seed=4))
        stacks = []
        stack = thermo.perron_stack
        monkeypatch.setattr(thermo, "perron_stack", lambda A: stacks.append(A) or stack(A))
        for module in (spectrum, thermo):
            monkeypatch.setattr(module, "perron", lambda A: pytest.fail("the cross-check re-solved a stacked q"))
        monkeypatch.setattr(BetaFunction, "gibbs", lambda self, q: pytest.fail("a q was read alone"))
        sample_spectrum(bf, grid)
        new = [q for q in grid if q != 1.0]  # q = 1 was solved for the pressure
        assert len(stacks) == 1 and stacks[0].tolist() == [bf.matrix(q).tolist() for q in new]

    def test_a_refused_row_raises_perrons_message_at_its_q(self, ring, monkeypatch):
        # ring_steep's stacked rows fail from q = 3.75: the scan solves that
        # q alone, and perron raises its own message before the cross-check
        bf = BetaFunction(ring_steep(ring, 0.0))
        with pytest.raises(NonConvergenceError) as single:
            perron(thermo._exp_on_support(bf.f2, 3.75))
        solves = []
        solve = thermo.perron
        for module in (spectrum, thermo):
            monkeypatch.setattr(module, "perron", lambda A: solves.append(A) or solve(A))
        with pytest.raises(NonConvergenceError) as raised:
            sample_spectrum(bf, [0.5, 2.0, 3.75, 4.0])
        assert str(raised.value) == str(single.value)
        assert len(solves) == 1 and solves[0] is bf.matrix(3.75)

    @pytest.mark.parametrize("tol", [spectrum.CROSS_CHECK_TOL, -1.0], ids=["default", "every-check-fails"])
    def test_failing_gibbs_rows_before_a_refused_row_raise_first(self, ring, monkeypatch, tol):
        # f = (40, 40, -40): the Gibbs rows of q = 9.25 sum to 1 only within
        # 2.6e-3, and perron refuses q = 9.5, both in the grid's one block.
        # A q's Gibbs error also comes before its own cross-check's
        monkeypatch.setattr(spectrum, "CROSS_CHECK_TOL", tol)
        f = Potential.from_table(ring, 1, {(1,): 40.0, (2,): 40.0, (3,): -40.0})
        bf = BetaFunction(f)
        with pytest.raises(NonConvergenceError):
            perron(bf.matrix(9.5))
        A = bf.matrix(9.25)
        t = perron(A)
        single = thermo._gibbs_error(*thermo._gibbs(bf.f2.base, A, t.root, t.left, t.right)[1:])
        assert isinstance(single, StochasticityError)
        with pytest.raises(StochasticityError) as raised:
            sample_spectrum(f, [9.25, 9.5])
        assert str(raised.value) == str(single) and "within 2.576e-03" in str(single)

    def test_gibbs_rows_that_divide_zero_by_zero_fail_without_a_warning(self):
        # at q = 10, lambda times the least right-vector entry (5.6e-123 times
        # 3.7e-203) underflows to 0: that row of the Gibbs matrix is 0 / 0
        base = [[1, 1, 0], [1, 1, 1], [1, 1, 0]]
        values = {"1": -48.19056944397241, "2": -54.72116478482316, "3": -1.579558287582131}
        f = parse_model({"transition": base, "potential": {"order": 1, "values": values}}).potential
        bf = BetaFunction(f)
        A = bf.matrix(10.0)
        t = perron(A)
        _, defect, _ = thermo._gibbs(bf.f2.base, A, t.root, t.left, t.right)
        assert math.isnan(defect)
        assert isinstance(thermo._gibbs_error(defect, False), StochasticityError)
        with pytest.raises(StochasticityError, match="underflow to 0"):
            sample_spectrum(f, np.arange(-10.0, 10.25, 0.5))

    def test_a_failing_cross_check_before_a_refused_row_raises_first(self, ring, monkeypatch):
        # every q now fails its cross-check: q = 2 is first, before ring_steep's
        # refused row at q = 3.75
        monkeypatch.setattr(spectrum, "CROSS_CHECK_TOL", -1.0)
        with pytest.raises(SolverError, match=r"duality cross-check failed at q=2\.0:"):
            sample_spectrum(ring_steep(ring, 0.0), [2.0, 3.75])

    @pytest.mark.parametrize("grid", [[0.5, 2.0, 3.75, 4.0], [3.75], [-1.0, 0.0, 3.75, 20.0]], ids=["block", "alone", "tail"])
    def test_errors_are_the_per_q_loops(self, ring, grid):
        f = ring_steep(ring, 0.0)
        with pytest.raises(MarkovSpectraError) as expected:
            reference_sample_spectrum(f, grid)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            sample_spectrum(f, grid)

    def test_cross_check_against_tilted_entropy(self, test_potentials):
        # sample_spectrum raises if E != h(mu_{qf}); just exercise it
        for f in test_potentials:
            sample_spectrum(f, [-4.0, -1.0, 0.0, 1.0, 3.0])

    @pytest.mark.parametrize("c", [-1.0, -0.3, 0.0, 0.7, 2.0])
    def test_degenerate_curve_is_one_point(self, full2, golden, ring, c):
        for base in (full2, golden, ring):
            bf = BetaFunction(Potential.constant(base, c))
            curve = sample_spectrum(bf, np.arange(-10.0, 10.25, 0.5))
            assert curve.degenerate and curve.alpha_max >= curve.alpha_min
            assert {(s.alpha, s.entropy) for s in curve.samples} == {(curve.alpha_min, bf.beta(0.0))}
            assert curve == reference_sample_spectrum(Potential.constant(base, c), np.arange(-10.0, 10.25, 0.5))

    def test_order5_potential_on_default_grid(self, full2):
        # Perron vectors of this recoding span ten decades at |q| ~ 10; with
        # too few correct digits in the small entries the Gibbs matrix failed
        # its row-sum check ("rows stochastic only within 9.3e-06").
        f = random_potential(full2, seed=5, scale=0.5, order=5)
        curve = sample_spectrum(f, np.arange(-10.0, 10.25, 0.5))
        assert len(curve.samples) == 41
        for s in curve.samples:
            assert s.entropy == pytest.approx(s.beta + s.q * s.alpha, abs=1e-12)
            assert -1e-12 <= s.entropy <= math.log(2) + 1e-12


class TestSpectraEqual:
    def test_twins_equal(self, f_p1_third, f_p2_third):
        cmp = spectra_equal(f_p1_third, f_p2_third)
        assert cmp.equal and cmp.witness_q is None
        assert cmp.endpoint_gap <= 1e-12

    def test_different_parameters_unequal(self, f_p1_third):
        cmp = spectra_equal(f_p1_third, log_p1_potential(1 / 4))
        assert not cmp.equal
        assert cmp.witness_q is not None and cmp.beta_gap > 1e-9

    def test_shift_changes_nothing_but_scale_does(self, f_p1_third):
        # f and f + c share the spectrum up to... they do NOT: beta is shift
        # invariant because the pressure term absorbs the constant.
        assert spectra_equal(f_p1_third, f_p1_third.shift(0.8)).equal
        assert not spectra_equal(f_p1_third, f_p1_third.scale(1.1)).equal

    def test_self_comparison(self, test_potentials):
        for f in test_potentials:
            assert spectra_equal(f, f).equal

    def test_nan_tol_refused(self, f_p1_third):
        # every gap > nan is false: a NaN tol reported any pair equal
        with pytest.raises(ValueError, match="tol"):
            spectra_equal(f_p1_third, log_p1_potential(1 / 4), tol=math.nan)

    def test_negative_tol_refused(self, f_p1_third):
        # a negative tol reported f unequal to itself, with beta_gap 0.0
        with pytest.raises(ValueError, match="tol"):
            spectra_equal(f_p1_third, f_p1_third, tol=-1.0)

    def test_infinite_tol_refused(self, f_p1_third):
        with pytest.raises(ValueError, match="tol"):
            spectra_equal(f_p1_third, log_p1_potential(1 / 4), tol=math.inf)

    @pytest.mark.parametrize("twin", [True, False])
    def test_one_build_per_potential(self, f_p1_third, f_p2_third, monkeypatch, twin):
        # an equal compare scans the whole grid: each potential's grid past
        # the lead is filled by one solve call, however many stacked blocks
        # that call builds.  An unequal one whose witness is in the lead
        # (here q = 0.25) makes no stacked build
        monkeypatch.setattr("markovspectra.thermo.ORACLE_BUFFER_FLOATS", 16 * 4)
        calls, stacked = [], []
        solve, build = BetaFunction.solve, thermo._exp_on_support

        def spy(f2, q=1.0, table=None):
            if table is not None:
                stacked.append(len(table))
            return build(f2, q, table)

        monkeypatch.setattr(BetaFunction, "solve", lambda bf, qs: calls.append((bf, qs)) or solve(bf, qs))
        monkeypatch.setattr(thermo, "_exp_on_support", spy)
        g = f_p2_third if twin else log_p1_potential(1 / 4)
        cmp = spectra_equal(f_p1_third, g)
        assert cmp.equal == twin
        if twin:
            rest = [q for q in spectrum.COMPARE_GRID[spectrum.SCAN_LEAD :] if q != 1.0]
            assert [qs for _, qs in calls] == [spectrum.COMPARE_GRID[spectrum.SCAN_LEAD :]] * 2
            assert calls[0][0] is not calls[1][0]
            assert sum(stacked) == 2 * len(rest) and max(stacked) == 16
        else:
            assert cmp.witness_q == 0.25 and calls == [] and stacked == []

    def test_tilt_out_of_range_past_the_witness_raises_nothing(self, full2):
        # the grid's one block holds q = 17.75, where exp(40 q) overflows; the
        # scan stops at q = -0.25 first, so the comparison must not raise
        cmp = spectra_equal(steep(full2, 0.0), steep(full2, 1.0))
        assert not cmp.equal and cmp.witness_q == -0.25 and cmp.beta_gap > 1e-9

    def test_a_witness_in_the_lead_solves_nothing_past_it(self, ring, monkeypatch):
        # ring_steep's grid holds rows whose dense solve fails (from
        # q = 3.75); the pair first disagrees at q = 0.25, inside the lead,
        # so the scan stops after two per-q solves a potential, stacks
        # nothing and raises nothing
        solves = []
        solve = thermo.perron
        monkeypatch.setattr(thermo, "perron", lambda A: solves.append(A) or solve(A))
        monkeypatch.setattr(thermo, "perron_stack", lambda A: pytest.fail("the scan stopped in the lead"))
        cmp = spectra_equal(ring_steep(ring, 0.0), ring_steep(ring, 0.5))
        assert not cmp.equal and cmp.witness_q == 0.25 and cmp.beta_gap > 1e-9
        assert len(solves) == 2 + 2 * 2  # q = 1 for each pressure, then q = 0 and 0.25

    def test_an_equal_compare_stacks_the_grid_past_the_lead(self, ring, monkeypatch):
        # f against itself is certified after the two pressure solves.  The
        # relabelled twin is declined, so the scan makes one stacked solve a
        # potential, of every q past the first SCAN_LEAD but q = 1, which
        # was solved for the pressure; each holds the per-q builds of its q
        f = random_potential(ring, seed=3)
        g = relabelled(f, (1, 3, 2))
        rest = [q for q in spectrum.COMPARE_GRID[spectrum.SCAN_LEAD :] if q != 1.0]
        bf, bg = BetaFunction(f), BetaFunction(g)
        stacks, solves = [], []
        stack, solve = thermo.perron_stack, thermo.perron
        monkeypatch.setattr(thermo, "perron_stack", lambda A: stacks.append(A) or stack(A))
        monkeypatch.setattr(thermo, "perron", lambda A: solves.append(A) or solve(A))
        assert spectra_equal(f, f).equal
        assert stacks == [] and len(solves) == 2
        solves.clear()
        assert spectra_equal(f, g).equal
        assert [A.tolist() for A in stacks] == [[b.matrix(q).tolist() for q in rest] for b in (bf, bg)]
        assert len(solves) == 2 * (1 + spectrum.SCAN_LEAD)

    @pytest.mark.parametrize("case", ["fails", "warns"])
    def test_failing_stack_past_the_witness_raises_nothing(self, ring, monkeypatch, case):
        # f against f scaled by 1.01 first disagrees by more than tol at
        # q = -0.5, past the lead, so the grid past the lead is stacked.  Its
        # stack holds rows where the dense solve fails: from q = 3.75 on
        # ring_steep, and at q = -18.5 on the order-2 potential, whose
        # residual product overflows (a RuntimeWarning, an error under
        # pytest, were it not silenced).  The stack fails those rows in both
        # cases; the comparison must neither raise nor warn.
        if case == "fails":
            f, tol = ring_steep(ring, 0.0), 0.075
        else:
            f, tol = random_potential(ring, seed=16, scale=34.0, order=2), 0.1
        bf = BetaFunction(f)
        assert perron_stack(np.stack([bf.matrix(q) for q in spectrum.COMPARE_GRID]))[1].any()
        stacked = []
        stack = thermo.perron_stack
        monkeypatch.setattr(thermo, "perron_stack", lambda A: stacked.append(stack(A)) or stacked[-1])
        cmp = spectra_equal(f, f.scale(1.01), tol)
        assert not cmp.equal and cmp.witness_q == -0.5 and cmp.beta_gap > tol
        assert len(stacked) == 2 and any(failed.any() for _, failed in stacked)

    def test_failing_solve_raises_at_its_q(self, ring, monkeypatch):
        # the first q of the grid whose per-q solve fails raises that
        # solve's error, as when every q was solved as the scan reached it;
        # the relabelled twin's solves fail only from q = 18.75
        f = ring_steep(ring, 0.0)
        f2 = BetaFunction(f).f2
        for q in spectrum.COMPARE_GRID:
            try:
                perron(thermo._exp_on_support(f2, q))
            except NonConvergenceError as exc:
                first, message = q, str(exc)
                break
        assert first == 3.75
        solves = []
        solve = thermo.perron
        monkeypatch.setattr(thermo, "perron", lambda A: solves.append(A) or solve(A))
        with pytest.raises(NonConvergenceError) as raised:
            spectra_equal(f, relabelled(f, (1, 3, 2)))
        assert str(raised.value) == message
        assert solves[-1].tolist() == thermo._exp_on_support(f2, first).tolist()

    def test_tilt_out_of_range_raises_at_its_q(self, full2):
        f = steep(full2, 0.0)
        with pytest.raises(PotentialRangeError, match=r"40\.0 times q=17\.75 is out"):
            spectra_equal(f, relabelled(f, (2, 1)))
