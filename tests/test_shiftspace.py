import itertools

import numpy as np
import pytest

from markovspectra import (
    TransitionMatrix,
    admissible_words,
    check_aperiodic,
    higher_block_recode,
    out_degrees,
    symbol_permutation,
    word_count,
)
from markovspectra.errors import AperiodicityError, EnumerationCapError


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

    def test_cap(self, full2):
        with pytest.raises(EnumerationCapError):
            admissible_words(full2, 10, cap=100)

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
        for m in range(1, 7):
            recoded = admissible_words(rec.matrix, m)
            decoded = [rec.decode(w) for w in recoded]
            assert sorted(decoded) == admissible_words(golden, m + order - 2)
            assert all(rec.encode(w) in set(recoded) for w in decoded)

    def test_rejects_order_one(self, golden):
        with pytest.raises(ValueError):
            higher_block_recode(golden, 1)


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
