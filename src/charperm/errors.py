"""Exception types raised by the charperm library."""


class CharpermError(Exception):
    """Base class for all charperm errors."""


class InvalidModulus(CharpermError):
    """Modulus polynomial is reducible or has the wrong degree."""


class SizeGuard(CharpermError):
    """Requested computation exceeds the configured size cap."""


class DivisionByZero(CharpermError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class InvalidSubfield(CharpermError):
    """Subfield degree does not divide the extension degree."""


class NotInSubfield(CharpermError):
    """Element lies outside the required subfield."""


class NotQLinear(CharpermError):
    """Linearized polynomial is not q-linear where q-linearity is required."""


class WrongDegree(CharpermError):
    """Criterion applies only to a specific extension degree n."""


class BadParameters(CharpermError):
    """Parameters violate the preconditions of a criterion, family or transform."""


class UnknownTheorem(CharpermError):
    """Verification campaign id is not registered."""


class InvariantViolation(CharpermError):
    """A mathematical invariant of a computed result failed: an arithmetic
    bug, not a bad input."""
