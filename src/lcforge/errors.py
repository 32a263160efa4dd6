"""Exception types shared across the library.

Everything raised deliberately by lcforge derives from LcforgeError, so
callers (and the CLI) can catch one base class and map it to a uniform
"invalid input" outcome.
"""


class LcforgeError(Exception):
    """Base class for all lcforge errors."""


class InvalidPeriod(LcforgeError):
    """Sequence text or exponent does not describe one 2^n-bit period."""


class InvalidDigit(LcforgeError):
    """Sequence text contains a character outside its alphabet."""


class PeriodMismatch(LcforgeError):
    """Two sequences with different periods were combined."""


class InvalidSupport(LcforgeError):
    """Support positions are out of range or not strictly increasing."""


class LemmaPreconditionViolated(LcforgeError):
    """Closed-form complexity shortcut called outside its precondition."""


class UndefinedForZeroSequence(LcforgeError):
    """The requested quantity is undefined for the all-zero sequence."""


class InvalidL(LcforgeError):
    """Complexity value outside [0, 2^n]."""


class InvalidParams(LcforgeError):
    """Parameter outside its documented domain."""


class TooLarge(LcforgeError):
    """Census requested beyond the supported period."""


class NoFormulaAvailable(LcforgeError):
    """No closed-form count is implemented for this (k, class) pair."""
