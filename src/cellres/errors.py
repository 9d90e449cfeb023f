"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: parse errors, precondition
violations, cap overruns, and internal verification failures are kept
apart so scripted callers can tell them apart.
"""


class PreconditionError(ValueError):
    """An operation was invoked on input that violates its contract."""


class DimensionMismatch(PreconditionError):
    """Operands live over different numbers of variables."""


class ZeroIdealError(PreconditionError):
    """The zero ideal was passed to an operation that needs generators."""


class NotGenericError(PreconditionError):
    """The ideal fails the genericity condition required here."""


class NotArtinianError(PreconditionError):
    """The ideal does not contain a power of every variable."""


class NotResolutionError(PreconditionError):
    """The labeled complex does not support an exact free complex."""


class NotMinimalError(PreconditionError):
    """The free complex has a unit differential entry."""


class InvalidComplexError(PreconditionError):
    """Face data is not a valid cell complex (grading or d*d != 0)."""


class LabelMismatchError(PreconditionError):
    """Vertex labels do not match the ideal's minimal generators."""


class CapExceededError(RuntimeError):
    """An enumeration would exceed its size cap."""


class VerificationError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class ParseError(ValueError):
    """Bad input text; carries an approximate source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)
