"""Exception hierarchy shared across the library.

Two broad families matter for the CLI exit codes: InputError (malformed
user input, exit code 2) and DomainError (a mathematically invalid request
or an internal integrality assertion failure, exit code 1).
"""


class UwrtError(Exception):
    pass


class DomainError(UwrtError):
    pass


class InputError(UwrtError):
    pass


def require_positive(name, value):
    """Return value, refusing a count or order below 1 (exit code 2)."""
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")
    return value


class NonExactDivision(DomainError):
    """Division left a nonzero remainder.  Never swallowed: where an
    integrality theorem promises exactness this signals a genuine bug."""


class NonInvertibleVariable(DomainError):
    pass


class NotInQ(DomainError):
    """A Laurent polynomial in u was required to involve only integer
    powers of q = u^4."""


class DepthExceeded(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class ColorCountMismatch(DomainError):
    pass


class DiagramSyntaxError(InputError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class InterfaceMismatch(InputError):
    pass


class OpenDiagram(InputError):
    pass


class UnsupportedCrossing(DomainError):
    """Crossings are evaluated only between two downward strands (every
    link admits such a presentation, e.g. as a closed braid)."""


class UnknownName(InputError):
    pass


class NotAdmissible(DomainError):
    pass


class NotAKnot(DomainError):
    pass


class NotInQSubring(DomainError):
    pass


class NotCoprime(DomainError):
    pass


class NotAUnit(DomainError):
    pass
