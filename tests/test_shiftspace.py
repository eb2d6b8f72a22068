import dataclasses
import itertools

import numpy as np
import pytest

from markovspectra import (
    TransitionMatrix,
    admissible_words,
    check_aperiodic,
    full_shift,
    golden_mean,
    higher_block_recode,
    log_p1_potential,
    log_p2_potential,
    out_degrees,
    reverse_golden_mean,
    ring3,
    symbol_permutation,
    word_count,
)
from markovspectra.errors import AperiodicityError, EnumerationCapError
from conftest import random_aperiodic_base


class TestCheckAperiodic:
    def test_full_shift_power_one(self):
        report = check_aperiodic([[1, 1], [1, 1]])
        assert report.accepted and report.power == 1

    def test_golden_mean_power_two(self):
        report = check_aperiodic([[1, 1], [1, 0]])
        assert report.accepted and report.power == 2

    def test_permutation_matrix_rejected(self):
        report = check_aperiodic([[0, 1], [1, 0]])
        assert not report.accepted

    def test_zero_row_rejected(self):
        report = check_aperiodic([[1, 1], [0, 0]])
        assert not report.accepted and "row 2" in report.reason

    def test_zero_column_rejected(self):
        report = check_aperiodic([[1, 0], [1, 0]])
        assert not report.accepted and "column" in report.reason

    def test_non_binary_rejected(self):
        assert not check_aperiodic([[1, 2], [1, 1]]).accepted

    def test_from_entries_raises(self):
        with pytest.raises(AperiodicityError):
            TransitionMatrix.from_entries([[0, 1], [1, 0]])


class TestAdmissibleWords:
    def test_full_shift_pairs(self, full2):
        assert admissible_words(full2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_golden_mean_pairs(self, golden):
        assert admissible_words(golden, 2) == [(1, 1), (1, 2), (2, 1)]

    def test_golden_mean_triples(self, golden):
        words = admissible_words(golden, 3)
        assert words == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)]
        assert len(words) == int(np.linalg.matrix_power(golden.entries, 2).sum())

    def test_empty_word(self, golden):
        assert admissible_words(golden, 0) == [()]

    def test_negative_length_refused(self, golden):
        # matrix_power has no negative power of an integer object array
        for count in (word_count, admissible_words):
            with pytest.raises(ValueError, match="^word length must be non-negative$"):
                count(golden, -1)

    def test_cap(self, full2, monkeypatch):
        monkeypatch.setattr("markovspectra.shiftspace.ENUMERATION_CAP", 100)
        with pytest.raises(EnumerationCapError):
            admissible_words(full2, 10)

    def test_cap_message_omits_the_count(self, full2):
        # 2^5000 has 1,506 digits; the refusal names only the cap
        with pytest.raises(EnumerationCapError) as exc:
            admissible_words(full2, 5000)
        assert str(exc.value) == "more than 10000000 words of length 5000 (the enumeration cap)"

    @pytest.mark.parametrize("n", range(2, 11))
    def test_counts_match_matrix_powers(self, golden, ring, n):
        for base in (golden, ring):
            assert len(admissible_words(base, n)) == word_count(base, n)

    def test_prefix_suffix_closed(self, golden, ring):
        for base in (golden, ring):
            for n in range(1, 6):
                shorter = set(admissible_words(base, n))
                for w in admissible_words(base, n + 1):
                    assert w[:-1] in shorter and w[1:] in shorter

    def test_lexicographic_and_unique(self, ring):
        words = admissible_words(ring, 5)
        assert words == sorted(set(words))


class TestOutDegrees:
    def test_golden_mean(self, golden):
        report = out_degrees(golden)
        assert report.delta == (2, 1) and report.condition_a1

    def test_ring(self, ring):
        report = out_degrees(ring)
        assert report.delta == (2, 2, 2) and report.condition_a1

    def test_two_degree_one_rows(self):
        base = TransitionMatrix.from_entries([[0, 1, 0], [0, 0, 1], [1, 1, 1]])
        report = out_degrees(base)
        assert report.delta == (1, 1, 3) and not report.condition_a1


class TestHigherBlockRecode:
    def test_golden_mean_order2(self, golden):
        rec = higher_block_recode(golden, 2)
        assert rec.alphabet == ((1,), (2,))
        assert (rec.matrix.entries == golden.entries).all()

    def test_full_shift_order2(self, full2):
        rec = higher_block_recode(full2, 2)
        assert len(rec.alphabet) == 2
        assert rec.matrix.entries.sum() == 4

    def test_full_shift_order3(self, full2):
        rec = higher_block_recode(full2, 3)
        assert len(rec.alphabet) == 4
        assert rec.matrix.entries.sum() == 8
        # edges require single-symbol overlap
        for s, t in rec.matrix.edges():
            assert rec.alphabet[s - 1][1:] == rec.alphabet[t - 1][:-1]

    def test_recoded_root_is_golden_ratio(self, golden):
        from markovspectra.perron import perron

        rec = higher_block_recode(golden, 3)
        root = perron(rec.matrix.entries.astype(float)).root
        assert root == pytest.approx((1 + 5**0.5) / 2, abs=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_translation_bijection(self, golden, order):
        rec = higher_block_recode(golden, order)
        block = order - 1
        symbol = {w: s for s, w in enumerate(rec.alphabet, start=1)}
        for m in range(1, 7):
            recoded = admissible_words(rec.matrix, m)
            # decode: the first block, then the last symbol of each later block
            decoded = [
                rec.alphabet[w[0] - 1] + tuple(rec.alphabet[s - 1][-1] for s in w[1:]) for w in recoded
            ]
            assert sorted(decoded) == admissible_words(golden, m + order - 2)
            # encode: the symbol of every window of length order - 1
            encoded = [tuple(symbol[u[k : k + block]] for k in range(len(u) - block + 1)) for u in decoded]
            assert encoded == recoded

    def test_rejects_order_one(self, golden):
        with pytest.raises(ValueError):
            higher_block_recode(golden, 1)


def reference_recode(A, n):
    """The recoding by testing every pair of (n-1)-blocks with ``admits``."""
    alphabet = tuple(admissible_words(A, n - 1))
    entries = np.zeros((len(alphabet), len(alphabet)), dtype=np.int8)
    for a, u in enumerate(alphabet):
        for b, w in enumerate(alphabet):
            if u[1:] == w[:-1] and A.admits(u + (w[-1],)):
                entries[a, b] = 1
    return alphabet, TransitionMatrix.from_entries(entries)


class TestRecodeOracle:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("symbols", [2, 3, 4])
    def test_identical_to_pairwise_scan(self, symbols, order):
        rng = np.random.default_rng(100 * symbols + order)
        for _ in range(5):
            base = random_aperiodic_base(rng, symbols)
            rec = higher_block_recode(base, order)
            alphabet, matrix = reference_recode(base, order)
            assert rec.alphabet == alphabet
            assert np.array_equal(rec.matrix.entries, matrix.entries)
            assert rec.matrix.aperiodicity_power == matrix.aperiodicity_power
            assert not rec.matrix.entries.flags.writeable


class TestEdgeIndex:
    def test_is_nonzero_of_the_entries(self):
        base = TransitionMatrix.from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 1]])
        rows, cols = base.edge_index
        expected_rows, expected_cols = np.nonzero(base.entries)
        assert np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)
        assert base.edges() == [(int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)]

    def test_computed_once_and_read_only(self):
        # shared by every potential on the base, so it must not be writable
        base = TransitionMatrix.from_entries([[1, 1], [1, 0]])
        assert base.edge_index is base.edge_index
        for index in base.edge_index:
            with pytest.raises(ValueError):
                index[0] = 1
        assert base.edge_index[0].tolist() == [0, 0, 1]

    def test_consumers_read_the_cached_index(self, monkeypatch):
        from markovspectra import edge_matrix, normalize_potential, pressure_by_preimages, reduce_to_order2
        from conftest import random_potential

        base = random_aperiodic_base(np.random.default_rng(5), 4)
        f = random_potential(base, seed=5, order=1)
        base.edge_index
        calls = []
        nonzero = np.nonzero
        # a 2-d argument is a support's edge list (np.flatnonzero calls it on 1-d arrays)
        monkeypatch.setattr(np, "nonzero", lambda a: (np.ndim(a) == 2 and calls.append(a)) or nonzero(a))
        f2, _ = reduce_to_order2(f)
        edge_matrix(f2)
        normalize_potential(f)
        pressure_by_preimages(f, 3)
        base.edges()
        assert calls == []


class TestNamedBases:
    @pytest.mark.parametrize(
        "build", [full_shift, lambda: full_shift(3), golden_mean, reverse_golden_mean, ring3],
        ids=["full2", "full3", "golden", "reverse-golden", "ring3"],
    )
    def test_built_once_and_read_only(self, build):
        # shared by every caller in the process, so it must not be writable
        base = build()
        assert build() is base
        assert not base.entries.flags.writeable
        with pytest.raises(ValueError):
            base.entries[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.entries = np.ones_like(base.entries)

    def test_bernoulli_families_share_the_full_shift(self):
        assert log_p1_potential(0.3).base is log_p2_potential(0.4).base is full_shift(2)


class TestSymbolPermutation:
    def test_full_shift_swap_valid(self, full2):
        assert symbol_permutation(full2, (2, 1)).valid

    def test_golden_mean_swap_invalid(self, golden):
        report = symbol_permutation(golden, (2, 1))
        assert not report.valid
        assert (report.permuted == [[0, 1], [1, 1]]).all()

    def test_ring_transpositions_valid(self, ring):
        for perm in [(2, 1, 3), (1, 3, 2), (3, 2, 1)]:
            assert symbol_permutation(ring, perm).valid

    def test_valid_permutation_preserves_structure(self, ring):
        report = symbol_permutation(ring, (2, 3, 1))
        assert report.valid
        permuted = TransitionMatrix.from_entries(report.permuted)
        assert permuted.aperiodicity_power == ring.aperiodicity_power
        for n in range(1, 6):
            assert word_count(permuted, n) == word_count(ring, n)

    def test_non_bijection_rejected(self, full2):
        with pytest.raises(ValueError):
            symbol_permutation(full2, (1, 1))
