"""Exception hierarchy shared by all dbicc modules.

Everything derives from :class:`DbiccError`, which itself derives from
``ValueError`` so callers that do not care about the distinctions can
catch the usual builtin.
"""

__all__ = [
    "DbiccError",
    "InputShapeError",
    "InsufficientGroupsError",
    "InsufficientReplicatesError",
    "InsufficientDataError",
    "NonFiniteError",
    "MetricMismatchError",
    "DegenerateInputError",
    "DegenerateDistancesError",
    "ParameterError",
    "FactorizationError",
]


class DbiccError(ValueError):
    """Base class for all errors raised by this package."""


class InputShapeError(DbiccError):
    """Operands have mismatched or malformed dimensions."""


class InsufficientGroupsError(DbiccError):
    """Fewer than two individuals are present."""


class InsufficientReplicatesError(DbiccError):
    """No individual has two or more replicates."""


class InsufficientDataError(DbiccError):
    """Too few observations for the requested computation."""


class NonFiniteError(DbiccError):
    """A payload contains NaN or infinite values."""


class MetricMismatchError(DbiccError):
    """The distance specification is incompatible with the payload kind."""


class DegenerateInputError(DbiccError):
    """Input is structurally valid but degenerate for the operation."""


class DegenerateDistancesError(DbiccError):
    """All between-individual distances are zero; the dbICC ratio is undefined."""


class ParameterError(DbiccError):
    """A parameter lies outside its admissible range."""


class FactorizationError(DbiccError):
    """Covariance factorization failed; the matrix is not SPD."""
