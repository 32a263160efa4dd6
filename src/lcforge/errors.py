"""Exception types shared across the library.

Everything raised deliberately by lcforge derives from LcforgeError, which
the CLI catches and maps to exit code 2.  Below it are two classes, one per
failure that a caller handles differently:

- InvalidParams: an argument outside its documented domain (a period of
  the wrong length, a digit outside its alphabet, k or L out of range, a
  lemma precondition not met, ...).  Its message names the check.
- NoFormulaAvailable: a well-formed (k, class) pair for which no closed
  form is implemented; a census can still count it.
"""


class LcforgeError(Exception):
    """Base class for all lcforge errors."""


class InvalidParams(LcforgeError):
    """Parameter outside its documented domain."""


class NoFormulaAvailable(LcforgeError):
    """No closed-form count is implemented for this (k, class) pair."""
