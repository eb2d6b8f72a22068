"""Combinatorial core: transition matrices, admissible words, recodings.

Symbols are 1-based ``{1, ..., N}`` in every public signature; arrays are
indexed 0-based internally.  Words are plain tuples of symbols and the
empty word ``()`` is a valid word of length 0.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def edges(self) -> list[tuple[int, int]]:
        """All edges (i, j) with A(ij)=1, 1-based, lexicographic."""
        return [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(self.entries))]


def word_count(A: TransitionMatrix, n: int) -> int:
    """Exact size of W_A^n via matrix powers (exact integer arithmetic)."""
    if n == 0:
        return 1
    if n == 1:
        return A.n_symbols
    power = np.linalg.matrix_power(A.entries.astype(object), n - 1)
    return int(power.sum())


def admissible_words(A: TransitionMatrix, n: int, cap: int = ENUMERATION_CAP) -> list[Word]:
    """All admissible words of length n, lexicographically ordered."""
    if n < 0:
        raise ValueError("word length must be non-negative")
    count = word_count(A, n)
    if count > cap:
        raise EnumerationCapError(f"{count} words of length {n} exceed the cap {cap}")
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

    def symbol_index(self, block: Word) -> int:
        try:
            return self._index[block]
        except KeyError:
            raise ValueError(f"{block} is not an admissible block") from None

    @property
    def _index(self) -> dict[Word, int]:
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {w: k + 1 for k, w in enumerate(self.alphabet)}
            self.__dict__["_index_cache"] = idx
        return idx

    def edge_word(self, s: int, t: int) -> Word:
        """Original n-word carried by the recoded edge s -> t."""
        return self.alphabet[s - 1] + (self.alphabet[t - 1][-1],)

    def decode(self, recoded: Word) -> Word:
        if not recoded:
            return ()
        word = self.alphabet[recoded[0] - 1]
        for s in recoded[1:]:
            word = word + (self.alphabet[s - 1][-1],)
        return word

    def encode(self, word: Word) -> Word:
        block = self.order - 1
        if len(word) < block:
            raise ValueError(f"word shorter than block length {block}")
        return tuple(self.symbol_index(word[k : k + block]) for k in range(len(word) - block + 1))


def higher_block_recode(A: TransitionMatrix, n: int, cap: int = ENUMERATION_CAP) -> BlockRecoding:
    """Recode onto the alphabet W_A^{n-1}; edges are overlapping n-words."""
    if n < 2:
        raise ValueError("recoding order must be at least 2")
    alphabet = tuple(admissible_words(A, n - 1, cap=cap))
    m = len(alphabet)
    entries = np.zeros((m, m), dtype=np.int8)
    for a, u in enumerate(alphabet):
        for b, w in enumerate(alphabet):
            if u[1:] == w[:-1] and A.admits(u + (w[-1],)):
                entries[a, b] = 1
    return BlockRecoding(A, n, alphabet, TransitionMatrix.from_entries(entries))


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
