"""Exception types shared across the package."""


class LieCurvError(Exception):
    """Base class for all errors raised by this package."""


class StructureParseError(LieCurvError):
    """Malformed structure-constant notation; carries slot/position info."""

    def __init__(self, message, slot=None, token=None):
        self.slot = slot
        self.token = token
        where = ""
        if slot is not None:
            where = f" (slot {slot}" + (f", token {token!r})" if token else ")")
        super().__init__(message + where)


class MetricParseError(LieCurvError):
    """Malformed or degenerate metric input."""


class DimensionMismatchError(LieCurvError):
    """Objects of incompatible dimension were combined."""


class DegenerateMetricError(LieCurvError):
    """A metric (or pairing) required to be nondegenerate is not."""


class NotLieAlgebraError(LieCurvError):
    """The Jacobi identity fails, so curvature identities would be meaningless."""


class NotUnimodularError(LieCurvError):
    """An operation restricted to unimodular structure tensors got a non-unimodular one."""


class KillingFormNonzeroError(LieCurvError):
    """An operation restricted to Killing-form-zero algebras got one with B != 0."""


class NotNilpotentError(LieCurvError):
    """An operation restricted to nilpotent algebras got a non-nilpotent one."""


class NotNiceBasisError(LieCurvError):
    """The presented basis violates the nice-basis conditions."""


class FloatOverflowError(LieCurvError, OverflowError):
    """A float result is outside the float range, above it or below it."""


class CatalogSchemaError(LieCurvError):
    """A catalog line does not conform to the JSON-lines entry schema."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
