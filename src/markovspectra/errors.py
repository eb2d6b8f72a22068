"""Exception types shared across the library."""


class MarkovSpectraError(Exception):
    """Base class for all library-specific errors.

    ``exit_code`` is the CLI's exit status for each type: 2 invalid input,
    3 a numerical failure, 5 a resource cap."""
    exit_code = 2


class AperiodicityError(MarkovSpectraError):
    """Transition matrix failed validation (not primitive, zero row/column, ...)."""
    exit_code = 2


class EnumerationCapError(MarkovSpectraError):
    """A word/cylinder enumeration would exceed the configured cap."""
    exit_code = 5


class NonConvergenceError(MarkovSpectraError):
    """A solver's result failed its acceptance check."""
    exit_code = 3


class PotentialRangeError(MarkovSpectraError):
    """exp of a potential value overflows or underflows to 0."""
    exit_code = 3


class SingularSystemError(MarkovSpectraError):
    """No row deletion of the eigenvector system yields an invertible matrix."""
    exit_code = 3


class StochasticityError(MarkovSpectraError):
    """A matrix expected to be row-stochastic is not."""
    exit_code = 3


class WordLengthError(MarkovSpectraError):
    """A word is too short for the requested cylinder computation."""
    exit_code = 2


class SolverError(MarkovSpectraError):
    """A root solve failed to bracket or converge."""
    exit_code = 3


class ModelFormatError(MarkovSpectraError):
    """A model file is malformed or inconsistent."""
    exit_code = 2
