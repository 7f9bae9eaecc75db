"""Exception and warning types shared across the package."""


class PairedRteError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PairedRteError):
    """Input data violates a domain constraint (negative time, bad indicator, ...)."""


class ParseError(PairedRteError):
    """A CSV cell could not be parsed. Carries row/column context."""

    def __init__(self, row: int, column: str, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


class NonFiniteTime(ValidationError):
    """A time coordinate is NaN or infinite."""


class NonPositiveTau(ValidationError):
    """The follow-up horizon must be strictly positive."""


class EmptyDataset(ValidationError):
    """An input holds no record: a sample, a dataset or a CSV data section."""


class InferenceRefused(PairedRteError):
    """A sample's test cannot be studentized; its estimate still stands."""


class DegenerateVariance(InferenceRefused):
    """The variance estimate carries no information (too few events to studentize)."""


class InsufficientReplicates(InferenceRefused):
    """Too few resampling replicates to estimate the requested quantile."""


class ThetaOutOfDomain(InferenceRefused):
    """The log-log transform needs an effect estimate strictly inside (0, 1)."""


class InvalidParameter(PairedRteError):
    """A distribution or copula parameter is outside its valid range."""


class BracketError(PairedRteError):
    """Calibration bracket does not enclose the target value."""


class ScenarioError(ValidationError):
    """A simulation scenario file or dict is malformed. Carries the field path."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"scenario field {field!r}: {reason}")


class DegenerateRiskWarning(UserWarning):
    """The at-risk set is exhausted before the horizon while survival mass remains.

    The incidences cannot grow past the last record time, so the effect and
    its variance are those at that time, not at ``tau``.
    """
