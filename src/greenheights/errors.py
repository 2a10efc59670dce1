"""Exception types shared across the package."""


class SemigroupError(Exception):
    """Base class for all errors raised by this package."""


class AssociativityError(SemigroupError):
    """Raised when a multiplication table is not associative.

    Carries the first (in lexicographic order) triple (a, b, c) with
    (a*b)*c != a*(b*c).
    """

    def __init__(self, witness):
        self.witness = tuple(witness)
        a, b, c = self.witness
        super().__init__(f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})")

    def __reduce__(self):
        # rebuilt from the witness; the message may have gained a prefix since
        return type(self), (self.witness,), {"args": self.args}


class ParseError(SemigroupError):
    """Raised on malformed mtab input; the message names the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NoZeroError(SemigroupError):
    """Raised when an operation requires a zero element and none exists."""


class EmptyIdealError(SemigroupError):
    """Raised when an ideal or ideal seed is empty."""


class InvalidIdealError(SemigroupError):
    """Raised when a purported ideal is not closed under two-sided multiplication."""


class RangeError(SemigroupError):
    """Raised when a construction or enumeration parameter is out of range."""


class UnknownFixtureError(SemigroupError):
    """Raised for fixture names with no stored table."""


class InternalCheckError(SemigroupError):
    """An internal cross-check failed; indicates a bug in this package, not in the input."""
