"""Exception types shared across the library."""


class MarkovSpectraError(Exception):
    """Base class for all library-specific errors."""


class AperiodicityError(MarkovSpectraError):
    """Transition matrix failed validation (not primitive, zero row/column, ...)."""


class EnumerationCapError(MarkovSpectraError):
    """A word/cylinder enumeration would exceed the configured cap."""


class NonConvergenceError(MarkovSpectraError):
    """A solver's result failed its acceptance check."""


class PotentialRangeError(MarkovSpectraError):
    """exp of a potential value overflows or underflows to 0."""


class SingularSystemError(MarkovSpectraError):
    """No row deletion of the eigenvector system yields an invertible matrix."""


class StochasticityError(MarkovSpectraError):
    """A matrix expected to be row-stochastic is not."""


class WordLengthError(MarkovSpectraError):
    """A word is too short for the requested cylinder computation."""


class SolverError(MarkovSpectraError):
    """A root solve failed to bracket or converge."""


class ModelFormatError(MarkovSpectraError):
    """A model file is malformed or inconsistent."""
