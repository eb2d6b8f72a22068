"""Combinatorial core: transition matrices, admissible words, recodings.

Symbols are 1-based ``{1, ..., N}`` in every public signature; arrays are
indexed 0-based internally.  Words are plain tuples of symbols and the
empty word ``()`` is a valid word of length 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AperiodicityError, EnumerationCapError

ENUMERATION_CAP = 10_000_000

Word = tuple[int, ...]


def wielandt_bound(n: int) -> int:
    """Largest power that needs checking when testing primitivity."""
    return n * n - 2 * n + 2


@dataclass(frozen=True)
class AperiodicityReport:
    accepted: bool
    power: int | None = None
    reason: str | None = None


def check_aperiodic(entries) -> AperiodicityReport:
    """Test a square 0/1 array for primitivity.

    Returns the least k with all entries of the k-th boolean power positive,
    searching up to the Wielandt bound, or a rejection with a reason.
    """
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return AperiodicityReport(False, reason="transition array is not square")
    n = arr.shape[0]
    if n < 2:
        return AperiodicityReport(False, reason="alphabet size must be at least 2")
    if not np.isin(arr, (0, 1)).all():
        return AperiodicityReport(False, reason="entries must be 0 or 1")
    row_sums = arr.sum(axis=1)
    if (row_sums == 0).any():
        i = int(np.argmax(row_sums == 0)) + 1
        return AperiodicityReport(False, reason=f"row {i} is all zero")
    col_sums = arr.sum(axis=0)
    if (col_sums == 0).any():
        j = int(np.argmax(col_sums == 0)) + 1
        return AperiodicityReport(False, reason=f"column {j} is all zero")

    base = arr.astype(bool)
    power = base.copy()
    for k in range(1, wielandt_bound(n) + 1):
        if power.all():
            return AperiodicityReport(True, power=k)
        power = power.astype(np.int64) @ base > 0
    return AperiodicityReport(
        False, reason="no power up to the Wielandt bound is positive (not primitive)"
    )


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Aperiodic 0/1 transition structure of a one-sided Markov shift."""

    entries: np.ndarray
    aperiodicity_power: int

    @classmethod
    def from_entries(cls, entries) -> "TransitionMatrix":
        report = check_aperiodic(entries)
        if not report.accepted:
            raise AperiodicityError(report.reason)
        arr = np.array(entries, dtype=np.int8)
        arr.setflags(write=False)
        return cls(arr, report.power)

    @property
    def n_symbols(self) -> int:
        return self.entries.shape[0]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.entries[i - 1, j - 1])

    def admits(self, word: Word) -> bool:
        n = self.n_symbols
        if any(s < 1 or s > n for s in word):
            return False
        return all(self.entries[a - 1, b - 1] for a, b in zip(word, word[1:]))

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based support edges (rows, cols), row-major: ``np.nonzero(entries)``
        computed once and read-only, as every potential on the base shares it."""
        index = np.array(np.nonzero(self.entries))
        index.setflags(write=False)
        return tuple(index)  # views of a read-only array are read-only

    def edges(self) -> list[tuple[int, int]]:
        """All edges (i, j) with A(ij)=1, 1-based, lexicographic."""
        rows, cols = self.edge_index
        return list(zip((rows + 1).tolist(), (cols + 1).tolist()))


def word_count(A: TransitionMatrix, n: int) -> int:
    """Exact size of W_A^n via matrix powers (exact integer arithmetic)."""
    if n < 0:
        raise ValueError("word length must be non-negative")
    if n == 0:
        return 1
    if n == 1:
        return A.n_symbols
    power = np.linalg.matrix_power(A.entries.astype(object), n - 1)
    return int(power.sum())


def admissible_words(A: TransitionMatrix, n: int) -> list[Word]:
    """All admissible words of length n, lexicographically ordered; a
    negative n raises ``word_count``'s ValueError."""
    if word_count(A, n) > ENUMERATION_CAP:
        raise EnumerationCapError(f"more than {ENUMERATION_CAP} words of length {n} (the enumeration cap)")
    if n == 0:
        return [()]
    symbols = range(1, A.n_symbols + 1)
    words: list[Word] = [(i,) for i in symbols]
    for _ in range(n - 1):
        words = [w + (j,) for w in words for j in symbols if A.has_edge(w[-1], j)]
    return words


@dataclass(frozen=True)
class OutDegreeReport:
    delta: tuple[int, ...]
    condition_a1: bool


def out_degrees(A: TransitionMatrix) -> OutDegreeReport:
    """Row sums of the transition matrix plus the at-most-one-degree-one flag."""
    delta = tuple(int(d) for d in A.entries.sum(axis=1))
    flag = sum(1 for d in delta if d == 1) <= 1
    return OutDegreeReport(delta, flag)


@dataclass(frozen=True, eq=False)
class BlockRecoding:
    """Higher-block presentation of a shift on the alphabet of (n-1)-words.

    The recoded symbol s stands for ``alphabet[s-1]``; a recoded word of
    length m translates to an original word of length m + order - 2.
    """

    base: TransitionMatrix
    order: int
    alphabet: tuple[Word, ...]
    matrix: TransitionMatrix

    def edge_word(self, s: int, t: int) -> Word:
        """Original n-word carried by the recoded edge s -> t."""
        return self.alphabet[s - 1] + (self.alphabet[t - 1][-1],)


def higher_block_recode(A: TransitionMatrix, n: int) -> BlockRecoding:
    """Recode onto the alphabet W_A^{n-1}; edges are overlapping n-words.

    Raises EnumerationCapError when the n-words (the recoded edges) exceed
    ENUMERATION_CAP.
    """
    if n < 2:
        raise ValueError("recoding order must be at least 2")
    words = admissible_words(A, n)
    # every block extends (no zero rows), so the prefixes of the sorted
    # n-words are W_A^{n-1} in lexicographic order
    alphabet = tuple(dict.fromkeys(w[:-1] for w in words))
    index = {w: k for k, w in enumerate(alphabet)}
    entries = np.zeros((len(alphabet), len(alphabet)), dtype=np.int8)
    for w in words:
        entries[index[w[:-1]], index[w[1:]]] = 1
    entries.setflags(write=False)
    # Primitive by construction: for k >= n-1, a walk of k recoded edges joins
    # blocks a and b exactly when A has a walk of k-n+2 edges from a's last
    # symbol to b's first (the blocks no longer overlap); for k < n-1 some
    # pair of blocks fails to overlap consistently.
    return BlockRecoding(A, n, alphabet, TransitionMatrix(entries, A.aperiodicity_power + n - 2))


@dataclass(frozen=True, eq=False)
class PermutationReport:
    valid: bool
    permuted: np.ndarray


def symbol_permutation(A: TransitionMatrix, perm: tuple[int, ...]) -> PermutationReport:
    """Relabel symbols by perm (perm[i-1] is the new name of symbol i).

    Valid when the relabelled matrix coincides with the original, i.e. the
    permutation induces a shift-commuting homeomorphism.
    """
    n = A.n_symbols
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm must be a bijection of {1,...,N}")
    p = np.asarray(perm) - 1
    permuted = np.zeros_like(A.entries)
    permuted[np.ix_(p, p)] = A.entries
    return PermutationReport(bool((permuted == A.entries).all()), permuted)
