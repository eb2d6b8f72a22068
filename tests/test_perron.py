import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovspectra import (
    BetaFunction,
    cycle_mean_extremes,
    full_shift,
    perron_vector_by_linear_solve,
    stationary_distribution,
)
from markovspectra import perron as perron_module
from markovspectra.modelio import parse_model
from markovspectra.perron import CycleMeanExtremes, _perron_vectors, perron, perron_stack
from markovspectra.spectrum import COMPARE_GRID
from markovspectra.errors import NonConvergenceError, SingularSystemError, StochasticityError
from conftest import random_aperiodic_base, random_potential, random_support_matrix

PHI = (1 + 5**0.5) / 2
DIVIDES_BY_ZERO = "2x2 closed form divides by zero: an entry product under- or overflows"
# two blocks with the same Perron root 4, relabelled: dgeev's vectors are
# positive, and the Newton system is singular
NOT_SIMPLE = [
    [2.0, 0.0, 3.0, 0.0, 0.0, 2.0], [0.0, 2.0, 0.0, 2.0, 2.0, 0.0], [2.0, 0.0, 2.0, 0.0, 0.0, 2.0],
    [0.0, 1.0, 0.0, 1.0, 1.0, 0.0], [0.0, 3.0, 0.0, 2.0, 2.0, 0.0], [1.0, 0.0, 1.0, 0.0, 0.0, 1.0],
]


class TestPerron:
    def test_package_attribute_is_the_submodule(self):
        import markovspectra.perron as m

        assert callable(m.perron)
        assert m.perron is perron

    def test_p1_third(self, full2):
        t = perron(np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]]))
        assert t.root == pytest.approx(1.0, abs=1e-13)
        assert t.right == pytest.approx([0.5, 0.5], abs=1e-12)
        assert t.left == pytest.approx([4 / 3, 2 / 3], abs=1e-12)

    def test_golden_root(self, golden):
        t = perron(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert t.root == pytest.approx(PHI, abs=1e-13)
        # v proportional to (phi, 1)
        assert t.right[0] / t.right[1] == pytest.approx(PHI, abs=1e-12)

    def test_normalization(self, ring):
        t = perron(np.where(ring.entries == 1, 0.7, 0.0))
        assert t.right.sum() == pytest.approx(1.0, abs=1e-14)
        assert float(t.left @ t.right) == pytest.approx(1.0, abs=1e-14)

    def test_residual_reported_small(self, full2):
        t = perron(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert t.residual <= 1e-12 * t.root

    @pytest.mark.parametrize("seed", range(100))
    def test_random_matrices_match_linear_solve(self, seed):
        n = 2 + seed % 5
        _, entries = random_support_matrix(n, seed)
        t = perron(entries)
        lam_np = max(abs(np.linalg.eigvals(entries)))
        assert t.root == pytest.approx(lam_np, rel=1e-10)
        v = perron_vector_by_linear_solve(entries, t.root)
        assert v == pytest.approx(t.right, rel=1e-9, abs=1e-12)

    def test_power_identity(self):
        _, entries = random_support_matrix(4, 7)
        lam = perron(entries).root
        for k in (2, 3):
            Mk = np.linalg.matrix_power(entries, k)
            assert perron(Mk).root == pytest.approx(lam**k, rel=1e-11)

    def test_badly_scaled_matrix(self, full2):
        # Entries spanning ~35 orders of magnitude: balancing keeps the
        # stopping rule meaningful.
        entries = np.array([[1e-18, 1.0], [1.0, 1e17]])
        t = perron(entries)
        lam_np = max(abs(np.linalg.eigvals(entries)))
        assert t.root == pytest.approx(lam_np, rel=1e-12)

    def test_iterations_tell_closed_form_from_dense_solve(self, full2, ring):
        assert perron(np.array([[1.0, 2.0], [3.0, 4.0]])).iterations == 0
        assert perron(np.where(ring.entries == 1, 0.7, 0.0)).iterations == 1

    def test_small_entries_accurate_to_their_own_size(self, full2):
        # Order-5 recoding tilted to q = -9.5: the Perron vectors span ten
        # decades and dgeev alone leaves defects near 1e-6 in the small entries.
        M = BetaFunction(random_potential(full2, seed=5, scale=0.5, order=5)).matrix(-9.5)
        t = perron(M)
        assert t.right.min() / t.right.max() < 1e-8
        assert np.abs(M @ t.right / (t.root * t.right) - 1).max() <= 1e-12
        assert np.abs(t.left @ M / (t.root * t.left) - 1).max() <= 1e-12

    @pytest.mark.parametrize(
        "M, message",
        [
            # the root, 3e308, overflows
            ([[1e308, 1e308, 1e308]] * 3, "Perron root inf is not positive and finite"),
            # u's first entry, c / (u . v) = 7e306 / 1.8e-4, overflows
            (
                [[2.6234821987362867e-24, 1.13289034e-315], [6.961317086450217e306, 1.141741848314e-312]],
                "Perron eigenvectors are not strictly positive",
            ),
        ],
        ids=["root", "left-entry"],
    )
    def test_overflowing_result_rejected(self, M, message):
        with pytest.raises(NonConvergenceError) as error:
            perron(np.array(M))
        assert str(error.value) == message

    def test_underflowing_perron_vector_rejected(self):
        # 1 -> 2 -> 3 -> 1 with two weights of 1e-200: the right vector's
        # second entry is ~1e-400, below the smallest double.
        M = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1e-200], [1e-200, 0.0, 0.0]])
        with pytest.raises(NonConvergenceError):
            perron(M)


class TestPerronStack:
    """A stack's mask flags each row that ``perron`` refuses, and that row's
    own ``perron`` gives the error."""

    @pytest.mark.parametrize(
        "bad",
        [
            # exp(-460) off the diagonal: the closed form's b*c underflows to 0
            [[1.0, math.exp(-460.0)], [math.exp(-460.0), 1.0]],
            # ring3 with vertex weights e^40, e^-40, 1 tilted to q = -10: the
            # dense dgeev vector has a zero entry
            [[0.0, math.exp(-400.0), math.exp(-400.0)], [math.exp(400.0), 0.0, math.exp(400.0)], [1.0, 1.0, 0.0]],
            # 1 -> 2 -> 3 -> 1 weighted 1e-200 twice: dgeev's right vector
            # has a zero entry (so does the left one)
            [[1.0, 1.0, 1.0], [0.0, 0.0, 1e-200], [1e-200, 0.0, 0.0]],
            # its transpose: the same failure, found in the right half first
            [[1.0, 0.0, 1e-200], [1.0, 0.0, 0.0], [1.0, 1e-200, 0.0]],
            # the right half passes and the left vector has a zero entry
            [[1.0, 1e-200, 0.0], [1.0, 0.0, 1e-200], [1.0, 0.0, 0.0]],
            [[0.0, 0.0, 0.0]] * 3,
            NOT_SIMPLE,
        ],
        ids=["closed-form-underflow", "ring3-40", "chain", "chain-transposed", "left-half", "no-positive-entry",
             "not-simple"],
    )
    @pytest.mark.parametrize("position", [0, 2])
    def test_failing_row_raises_its_perron_error(self, bad, position):
        bad = np.array(bad)
        n = bad.shape[0]
        rows = [np.where(np.eye(n) == 1, 0.5, 1.0 + 0.1 * i) for i in range(3)]
        rows[position] = bad
        with pytest.raises(NonConvergenceError) as single:
            perron(bad)
        _, failed = perron_stack(np.array(rows))
        assert failed.tolist() == [i == position for i in range(3)]
        with pytest.raises(type(single.value)) as stacked:
            perron(np.array(rows)[np.argmax(failed)])
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("order", [3, 4, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_compare_grid_rows_are_perron_bit_for_bit(self, full2, order, seed):
        # built as the benchmark's compare and spectrum requests build their
        # grids (BetaFunction.solve): every COMPARE_GRID tilt of a +-0.5 full
        # 2-shift potential.
        # Three of the twelve grids hold rows that perron refuses (at most
        # 15, all at |q| >= 16); the grid's stack fails exactly those rows and
        # solves every other row as perron does
        bf = BetaFunction(random_potential(full2, seed=seed, scale=0.5, order=order))
        bf.solve(COMPARE_GRID)
        A = np.stack([bf.matrix(q) for q in COMPARE_GRID])
        ok, errors = [], []
        for i, M in enumerate(A):
            try:
                ok.append((i, perron(M)))
            except NonConvergenceError as exc:
                errors.append(str(exc))
        assert len(ok) >= 140
        t, failed = perron_stack(A)
        assert (t.iterations == 1).all() and np.flatnonzero(~failed).tolist() == [i for i, _ in ok]
        for i, s in ok:
            assert (t.root[i], t.residual[i]) == (s.root, s.residual)
            assert t.left[i].tolist() == s.left.tolist() and t.right[i].tolist() == s.right.tolist()
        if errors:
            with pytest.raises(NonConvergenceError, match=re.escape(errors[0])):
                perron(A[np.argmax(failed)])

    def test_a_singular_newton_system_fails_its_row_alone(self):
        # the stacked Newton solve refuses the whole stack; each row is then
        # solved alone, and only the singular one fails
        rows = [np.where(np.eye(6) == 1, 0.5, 1.0 + 0.1 * i) for i in range(3)]
        rows[1] = np.array(NOT_SIMPLE)
        t, failed = perron_stack(np.array(rows))
        assert failed.tolist() == [False, True, False]
        for i in (0, 2):
            s = perron(rows[i])
            assert (t.root[i], t.residual[i]) == (s.root, s.residual)
            assert t.left[i].tolist() == s.left.tolist() and t.right[i].tolist() == s.right.tolist()
        with pytest.raises(NonConvergenceError, match="^Perron root is not simple: Singular matrix$"):
            perron(rows[1])

    def test_left_half_failure_prints_its_own_root(self):
        # one dgeev solves both halves and returns a complex stack, as the
        # right half's eigenvalues here are complex; the left half's root
        # still prints as its own real eigenvalue
        M = np.array([[1.0, 1e-200, 0.0], [1.0, 0.0, 1e-200], [1.0, 0.0, 0.0]])
        assert np.iscomplexobj(np.linalg.eigvals(M)) and not np.iscomplexobj(np.linalg.eigvals(M.T))
        with pytest.raises(NonConvergenceError) as failure:
            perron(M)
        assert str(failure.value) == "dominant eigenpair is not positive: root 1.0, least entry 0.000e+00"

    def test_empty_stack(self):
        t, failed = perron_stack(np.zeros((0, 3, 3)))
        assert t.root.shape == (0,) and t.left.shape == (0, 3) and failed.shape == (0,)


def hex_triple(t) -> tuple:
    return (t.root.hex(), [x.hex() for x in t.left.tolist()], [x.hex() for x in t.right.tolist()], t.residual.hex())


class TestDenseBits:
    """The dense solve's exact bits, recorded before right and left halves
    shared one stacked solve.  From n = 8 on, summing a left half's Newton
    right-hand side pairwise instead of left to right moves last bits."""

    @pytest.mark.parametrize(
        "n, bits",
        [
            (  # n = 3
                3,
                ("0x1.487d9fd9948fep+1",
                 ["0x1.1e28a262aa414p+0", "0x1.23e88677ecb06p+0", "0x1.5ba14d8e1b340p-1"],
                 ["0x1.aa7774f230e6dp-3", "0x1.fdc88ac984a8dp-2", "0x1.2cfbbabd62e3ep-2"],
                 "0x1.011cf66f62a87p-51"),
            ),
            (  # n = 8
                8,
                ("0x1.76c502af020cbp+2",
                 ["0x1.3ec60a97a9665p+0", "0x1.a0c6a66b19693p-1", "0x1.29081380795c0p+0",
                  "0x1.d3886417d3663p-1", "0x1.a96bd9ac7b620p-1", "0x1.0fbfee8717559p+0",
                  "0x1.a1b26c036da2ap-1", "0x1.42fa9e6d920bap+0"],
                 ["0x1.2f9464dfe4df2p-3", "0x1.ec201f3863fbfp-4", "0x1.ce6f6ad3aefb1p-4",
                  "0x1.f841398f37fadp-4", "0x1.ea26717195a5ep-4", "0x1.72fc6c7f05a18p-4",
                  "0x1.75f6848bfa4ccp-3", "0x1.a4f68b9c5b6f0p-4"],
                 "0x1.95d2738b97400p-50"),
            ),
            (  # n = 16
                16,
                ("0x1.7a18f34d4947dp+3",
                 ["0x1.61c68ab3649b6p-1", "0x1.4232c927c703cp-1", "0x1.62f5d883a6e6cp+0",
                  "0x1.0f6223062b37ep+0", "0x1.c7132f83b4e6fp-1", "0x1.1d798ec87f448p+0",
                  "0x1.09e51c20792b7p-1", "0x1.1c78015e5bf2fp+0", "0x1.43fd5bc71f889p+0",
                  "0x1.a23c2f6e0ee3cp-1", "0x1.10fb2f94bd123p+0", "0x1.093a632b92fa9p+0",
                  "0x1.56d55bde15a2ep+0", "0x1.c8db3c52dc895p-1", "0x1.3362dabbcea9ep+0",
                  "0x1.1f9069ba388f2p+0"],
                 ["0x1.76f9b4f0a36b8p-5", "0x1.498d8de01163dp-4", "0x1.85701c2dfe150p-6",
                  "0x1.17d39854fae05p-4", "0x1.39c95524f61dbp-4", "0x1.2a53349178b3fp-5",
                  "0x1.cae723a71a25dp-5", "0x1.0ec882f4b69c1p-5", "0x1.21bffeb8fd90cp-4",
                  "0x1.e48ed1a67d4e1p-5", "0x1.784ea6ced4c5fp-4", "0x1.fae80d9e8115ep-5",
                  "0x1.7523bd6fe36aap-4", "0x1.5afce6f39836ap-4", "0x1.1ce0fa6678b0cp-4",
                  "0x1.9e5f032e839b7p-5"],
                 "0x1.714216bde2bafp-49"),
            ),
        ],
        ids=["n=3", "n=8", "n=16"],
    )
    def test_bits_pinned(self, n, bits):
        _, M = random_support_matrix(n, n)
        t = perron(M)
        assert t.iterations == 1 and type(t.root) is float and type(t.residual) is float
        assert hex_triple(t) == bits


def row_wise_accepted_residuals(M, root, left, right):
    """``_accepted_residuals``' expressions with each reduction taken along
    the row: ``.max(axis=1)`` and ``.all(axis=1)`` on C-ordered arrays."""
    Mr = np.matmul(M, right[:, :, np.newaxis])[:, :, 0]
    lM = np.matmul(left[:, np.newaxis, :], M)[:, 0]
    residual = np.maximum(
        np.abs(Mr - root[:, np.newaxis] * right).max(axis=1) / right.max(axis=1),
        np.abs(lM - root[:, np.newaxis] * left).max(axis=1) / left.max(axis=1),
    )
    finite = np.isfinite(left) & np.isfinite(right) & np.isfinite(Mr) & np.isfinite(lM)
    ok = (finite & (left > 0) & (right > 0)).all(axis=1) & (root > 0) & (root < math.inf)
    return residual, ok & (residual <= perron_module.RESIDUAL_TOL * root)


class TestAcceptedResiduals:
    """Reduced across the stack, the acceptance check gives the row-wise
    reductions' mask and residual bits."""

    @settings(max_examples=60, deadline=10_000, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(1, 30))
    def test_equal_row_wise_reductions(self, seed, n, k):
        rng = np.random.default_rng(seed)
        M = np.exp(rng.uniform(-2.0, 2.0, (k, n, n)))
        t, _ = perron_stack(M)
        root, left, right = t.root.copy(), t.left.copy(), t.right.copy()
        # in about half the rows, a third of the entries of each input become
        # NaN, +-inf, 0 or negative.  Which of 0.0 and -0.0 (or of two NaNs)
        # a row's max keeps depends on its order, and NumPy reduces a long
        # row in SIMD lanes (with AVX-512 from 9 entries on), so those two
        # enter only at n = 2, which every CPU reduces one entry at a time
        special = [np.nan, np.inf, -np.inf, 0.0, -0.5] + ([-0.0, -np.nan] if n == 2 else [])
        rows = rng.random(k) < 0.5
        for a in (M, root, left, right):
            hit = (rng.random(a.shape) < 0.3) & rows.reshape((k,) + (1,) * (a.ndim - 1))
            a[hit] = rng.choice(special, hit.sum())
        with np.errstate(all="ignore"):
            residual, ok = perron_module._accepted_residuals(M, root, left, right)
            expected, expected_ok = row_wise_accepted_residuals(M, root, left, right)
        assert ok.tolist() == expected_ok.tolist()
        assert residual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "M, root, left, right",
        [
            ([[3.0, 1.0], [1.0, 3.0]], 4.0, [1.0, 1.0], [0.5, 0.5]),
            # the second eigenpair: exact, with a negative entry
            ([[3.0, 1.0], [1.0, 3.0]], 2.0, [1.0, -1.0], [0.5, -0.5]),
            # reducible: exact, with a zero entry
            ([[1.0, 0.0], [1.0, 2.0]], 2.0, [0.5, 0.5], [0.0, 1.0]),
            ([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]], 4.0, [1.0, 1.0, 0.0], [0.5, 0.5, 0.0]),
        ],
        ids=["perron", "negative-entry", "zero-entry", "zero-entry-3x3"],
    )
    def test_exact_eigenpair_needs_positive_vectors(self, M, root, left, right):
        # the residual is 0: only the sign test refuses these rows
        args = [np.array([x], dtype=float) for x in (M, root, left, right)]
        residual, ok = perron_module._accepted_residuals(*args)
        expected, expected_ok = row_wise_accepted_residuals(*args)
        assert residual.tolist() == [0.0] and residual.tobytes() == expected.tobytes()
        assert ok.tolist() == expected_ok.tolist() == [min(left + right) > 0]


class TestClosedForm:
    """The 2x2 closed form: exact bits, agreement with the dense solve, and
    a clean NonConvergenceError (no NumPy warning) where it breaks down."""

    @pytest.mark.parametrize(
        "M, bits",
        [
            (  # a >= d
                [[3.0, 0.5], [2.0, 1.25]],
                ("0x1.ba1513c69681bp+1", ["0x1.94f2bec907326p+0", "0x1.6f8159ad606b5p-2"],
                 ["0x1.0c68b5e0b93d2p-1", "0x1.e72e943e8d85bp-2"], "0x1.e8544f1a5a06cp-52"),
            ),
            (  # a < d
                [[0.25, 1.5], [0.75, 2.0]],
                ("0x1.4000000000000p+1", ["0x1.d1745d1745d18p-2", "0x1.5d1745d1745d2p+0"],
                 ["0x1.999999999999ap-2", "0x1.3333333333333p-1"], "0x1.aaaaaaaaaaaabp-53"),
            ),
            (  # golden mean
                [[1.0, 1.0], [1.0, 0.0]],
                ("0x1.9e3779b97f4a8p+0", ["0x1.2bbae2a27f932p+0", "0x1.727c9716ffb76p-1"],
                 ["0x1.3c6ef372fe94fp-1", "0x1.8722191a02d60p-2"], "0x1.b54cda58fbbeep-53"),
            ),
            (  # entries over 200 decades, a >= d
                [[1e100, 1e-100], [1e-37, 1e-100]],
                ("0x1.249ad2594c37dp+332", ["0x1.0000000000000p+0", "0x1.87e92154ef7adp-665"],
                 ["0x1.0000000000000p+0", "0x1.dc574d80cf16cp-456"], "0x1.0000000000000p-385"),
            ),
            (  # entries over 200 decades, a < d
                [[1e-100, 1e71], [1e-100, 1e100]],
                ("0x1.249ad2594c37dp+332", ["0x1.87e92154ef7acp-665", "0x1.0000000000000p+0"],
                 ["0x1.95a5efea6b348p-97", "0x1.0000000000000p+0"], "0x0.0p+0"),
            ),
        ],
        ids=["a>=d", "a<d", "golden-mean", "spread-a>=d", "spread-a<d"],
    )
    def test_bits_pinned(self, M, bits):
        t = perron(np.array(M))
        assert t.iterations == 0 and type(t.root) is float and type(t.residual) is float
        assert hex_triple(t) == bits

    @settings(max_examples=200, deadline=10_000, derandomize=True, database=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), st.integers(-100, 100))
    def test_agrees_with_dense_and_linear_solves(self, log10_entries, log10_scale):
        # Entries within a decade of 10**log10_scale keep both oracles
        # accurate: the dense solve loses about max(M) / (root - other
        # eigenvalue) ulps in each entry, and the row-deletion solve is
        # accurate only normwise, to about cond(M - root I) ulps.
        M = 10.0 ** (np.array(log10_entries).reshape(2, 2) + log10_scale)
        t = perron(M)
        mu, v, u, errors = _perron_vectors((M / M.max())[np.newaxis])
        assert not errors
        v = v[0] / v[0].sum()
        assert t.root == pytest.approx(mu[0] * M.max(), rel=1e-13)
        assert t.right == pytest.approx(v, rel=1e-13)
        assert t.left == pytest.approx(u[0] / float(u[0] @ v), rel=1e-13)
        x = perron_vector_by_linear_solve(M / M.max(), t.root / M.max())
        assert np.abs(t.right - x).max() <= 1e-13 * x.max()

    @pytest.mark.parametrize(
        "M, message",
        [
            ([[1.0, 1e-200], [1e-200, 1.0]], DIVIDES_BY_ZERO),  # b*c underflows: 0/0
            # b*c overflows: inf/inf
            ([[1e300, 1e300], [1e300, 1e300]], "Perron eigenvectors are not strictly positive"),
            ([[0.0, 1e-170], [1e-170, 0.0]], DIVIDES_BY_ZERO),  # b*c underflows and the root is 0
        ],
        ids=["M0", "M1", "M2"],
    )
    def test_degenerate_inputs_raise_without_warning(self, M, message):
        # pytest turns warnings into errors, so a NumPy RuntimeWarning fails here
        with pytest.raises(NonConvergenceError) as error:
            perron(np.array(M))
        assert str(error.value) == message

    def test_compare_grid_bits_pinned(self):
        # the benchmark's pinned twin compare: every COMPARE_GRID tilt of the
        # P1 and P2 models, 322 closed-form solves, each triple's hex repr
        # hashed in grid order
        digest = hashlib.sha256()
        for name in ("full2_p1_third", "full2_p2_third"):
            bf = BetaFunction(parse_model(f"models/{name}.json").potential)
            bf.solve(COMPARE_GRID)
            for q in COMPARE_GRID:
                t = perron(bf.matrix(q))
                assert t.iterations == 0
                digest.update(repr(hex_triple(t)).encode())
        assert digest.hexdigest() == "a1df9154c02777e3828a52318fb77cb65ff4bb52da799ab94e2fc340f6c1542c"


class TestLinearSolve:
    def test_stochastic_matrix_root_one(self, full2):
        v = perron_vector_by_linear_solve([[0.3, 0.7], [0.6, 0.4]], 1.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-14)
        assert (v > 0).all()

    def test_wrong_eigenvalue_rejected(self):
        with pytest.raises(SingularSystemError):
            perron_vector_by_linear_solve([[2.0, 1.0], [1.0, 2.0]], 5.0)


class TestStationaryDistribution:
    def test_p1_stationary(self, full2):
        P = np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]])
        assert stationary_distribution(P) == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_p2_stationary_uniform(self, full2):
        P = np.array([[0.7, 0.3], [0.3, 0.7]])
        assert stationary_distribution(P) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_non_stochastic_rejected(self, full2):
        with pytest.raises(StochasticityError):
            stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize("P", [[[0.5, 0.5], [1.2, -0.2]], [[0.5, 0.5], [math.nan, 0.5]]])
    def test_negative_or_nan_entry_rejected(self, P):
        # rows that sum to 1 with a negative entry, and a NaN row, whose
        # row-sum defect is NaN and so passes a "defect > tol" check
        with pytest.raises(StochasticityError, match="finite and non-negative"):
            stationary_distribution(np.array(P))

    def test_matches_perron_product(self, ring):
        _, entries = random_support_matrix(3, 42)
        t = perron(entries)
        P = entries * t.right[np.newaxis, :] / (t.root * t.right[:, np.newaxis])
        pi = stationary_distribution(P)
        assert pi == pytest.approx(t.left * t.right, abs=1e-11)


class TestCycleMeanExtremes:
    def test_full_shift(self, full2):
        W = np.log(np.array([[2 / 3, 1 / 3], [2 / 3, 1 / 3]]))
        ext = cycle_mean_extremes(full2, W)
        assert ext.min_mean == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert ext.max_mean == pytest.approx(math.log(2 / 3), abs=1e-12)
        assert ext.min_cycle == (2,) and ext.max_cycle == (1,)

    def test_golden_mean(self, golden):
        W = np.array([[0.0, 1.0], [-2.0, 0.0]])
        ext = cycle_mean_extremes(golden, W)
        assert ext.min_mean == pytest.approx(-0.5)
        assert ext.max_mean == pytest.approx(0.0)
        assert sorted(ext.min_cycle) == [1, 2]

    @pytest.mark.parametrize("c", [-1.0, -0.3, 0.0, 0.5, 0.7, 2.0])
    def test_constant_weights_keep_the_extremes_in_order(self, full2, golden, ring, c):
        # the runs on W and -W keep different rounded Karp ratios: on the full
        # 3-shift and ring3 at c = -0.3 and 0.7 the means crossed by one ulp
        for base in (full2, full_shift(3), golden, ring):
            ext = cycle_mean_extremes(base, np.full(base.entries.shape, c))
            assert ext.min_mean <= ext.max_mean
            assert ext.min_mean == pytest.approx(c, rel=1e-15) and ext.max_mean == pytest.approx(c, rel=1e-15)

    def test_one_karp_run_on_a_two_graph_stack(self, ring, monkeypatch):
        # W and -W are one stack of two graphs, solved by one Karp run
        calls = []
        karp = perron_module._karp_min_mean
        monkeypatch.setattr(perron_module, "_karp_min_mean", lambda W: calls.append(W.shape) or karp(W))
        cycle_mean_extremes(ring, np.arange(9.0).reshape(3, 3))
        assert calls == [(2, 3, 3)]

    def test_negation_symmetry(self):
        for seed in range(20):
            base, entries = random_support_matrix(4, 1000 + seed)
            W = np.log(np.where(entries > 0, entries, 1.0))
            a = cycle_mean_extremes(base, W)
            b = cycle_mean_extremes(base, -W)
            assert a.min_mean == pytest.approx(-b.max_mean, abs=1e-12)
            assert a.max_mean == pytest.approx(-b.min_mean, abs=1e-12)

    def test_witness_cycles_realize_means(self):
        base, entries = random_support_matrix(5, 99)
        W = np.log(np.where(entries > 0, entries, 1.0))
        ext = cycle_mean_extremes(base, W)
        for cyc, mean in ((ext.min_cycle, ext.min_mean), (ext.max_cycle, ext.max_mean)):
            total = sum(
                W[cyc[i] - 1, cyc[(i + 1) % len(cyc)] - 1] for i in range(len(cyc))
            )
            assert total / len(cyc) == pytest.approx(mean, abs=1e-12)
            assert all(
                base.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
            )


def reference_karp_min_mean(n, edges):
    """Karp's minimum mean cycle over an edge list, with a virtual source
    vertex n and a strict < over the edges in lexicographic order."""
    total = n + 1
    aug = edges + [(n, v, 0.0) for v in range(n)]
    dist = np.full((total + 1, total), np.inf)
    parent = np.full((total + 1, total), -1, dtype=int)
    dist[0, n] = 0.0
    for k in range(1, total + 1):
        for u, v, w in aug:
            cand = dist[k - 1, u] + w
            if cand < dist[k, v]:
                dist[k, v] = cand
                parent[k, v] = u

    best, best_v = np.inf, -1
    for v in range(n):
        if not np.isfinite(dist[total, v]):
            continue
        worst = -np.inf
        for k in range(total):
            if np.isfinite(dist[k, v]):
                worst = max(worst, (dist[total, v] - dist[k, v]) / (total - k))
        if worst < best:
            best, best_v = worst, v

    walk = [best_v]
    for k in range(total, 0, -1):
        walk.append(int(parent[k, walk[-1]]))
    walk.reverse()
    seen = {}
    for pos, vertex in enumerate(walk):
        if vertex in seen:
            return float(best), tuple(walk[seen[vertex] : pos])
        seen[vertex] = pos
    raise AssertionError("walk of n + 2 vertices has no repeat")


def reference_cycle_mean_extremes(base, W):
    edges = [(i - 1, j - 1, float(W[i - 1, j - 1])) for i, j in base.edges()]
    lo, lo_cycle = reference_karp_min_mean(base.n_symbols, edges)
    hi_neg, hi_cycle = reference_karp_min_mean(base.n_symbols, [(u, v, -w) for u, v, w in edges])
    to_word = lambda cyc: tuple(v + 1 for v in cyc)
    return CycleMeanExtremes(lo, -hi_neg, to_word(lo_cycle), to_word(hi_cycle))


class TestCycleMeanOracle:
    """The array recurrence must reproduce the edge-list Karp bit for bit,
    witness cycles included (ties go to the lowest predecessor)."""

    @pytest.mark.parametrize("kind", ["real", "integer", "zero"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_identical_to_edge_list_karp(self, n, kind):
        rng = np.random.default_rng(1000 * n + len(kind))
        for _ in range(40):
            base = random_aperiodic_base(rng, n)
            if kind == "real":
                W = rng.normal(0.0, 1.0, (n, n))
            elif kind == "integer":
                W = rng.integers(-2, 3, (n, n)).astype(float)
            else:
                W = np.zeros((n, n))
            assert cycle_mean_extremes(base, W) == reference_cycle_mean_extremes(base, W)
