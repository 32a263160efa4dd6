"""Periodic binary sequences and their linear complexity.

One period of a 2^n-periodic binary sequence is packed into a Python
integer: bit i of the integer is the sequence element at position i, so
position 0 sits in the least significant bit.  Read as a polynomial over
GF(2) the same integer is s_0 + s_1*x + ... + s_{N-1}*x^{N-1}, which
makes sequence addition a single XOR and keeps the synthetic-division
complexity oracle cheap on big integers.

Two independent routes to the linear complexity are provided:
games_chan_lc (iterative period halving) and lc_by_minimal_polynomial
(multiplicity of 1 as a root of the period polynomial).  They share no
code, so each one can vouch for the other in tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidParams

# One period is 2^MAX_EXPONENT bits at most; beyond this, single-sequence
# operations stop being interactive.
MAX_EXPONENT = 20

# Each byte with its bit order reversed: hex text puts position 0 in the
# most significant bit of its first byte, the packed value in bit 0.
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))

# Marks as bytes 0/1 to binary digits, which int() reads in time linear
# in the period.
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _check_exponent(exponent: int) -> None:
    if not 0 <= exponent <= MAX_EXPONENT:
        raise InvalidParams(f"exponent must be in [0, {MAX_EXPONENT}], got {exponent}")


@dataclass(frozen=True)
class PeriodicSequence:
    """One period of a 2^n-periodic binary sequence, packed LSB-first."""

    exponent: int
    value: int

    def __post_init__(self):
        _check_exponent(self.exponent)
        if not 0 <= self.value < (1 << self.period):
            raise InvalidParams("packed value does not fit in one period")

    @property
    def period(self) -> int:
        return 1 << self.exponent

    @classmethod
    def from_support(cls, exponent: int, positions: Iterable[int]) -> PeriodicSequence:
        """Build the sequence whose ones sit exactly at the given positions."""
        _check_exponent(exponent)
        period = 1 << exponent
        marks = bytearray(period)
        for pos in positions:
            if not 0 <= pos < period:
                raise InvalidParams(f"position {pos} outside [0, {period})")
            if marks[pos]:
                raise InvalidParams(f"position {pos} listed twice")
            marks[pos] = 1
        return cls(exponent, int(marks[::-1].translate(_TO_DIGITS), 2))

    def weight(self) -> int:
        """Number of ones in one period."""
        return self.value.bit_count()

    def __xor__(self, other: PeriodicSequence) -> PeriodicSequence:
        if self.exponent != other.exponent:
            raise InvalidParams(
                f"cannot add periods 2^{self.exponent} and 2^{other.exponent}"
            )
        return PeriodicSequence(self.exponent, self.value ^ other.value)


def _check_digits(text: str, digits: bytes, name: str) -> None:
    """Raise InvalidParams unless every character of text is in digits.

    isascii() is O(1) on a compact str and translate() deletes the digits
    in one C pass, so valid text is checked at memory speed.  isascii()
    must come first: int() also reads non-ASCII digits such as U+0661.
    The regex runs only on rejected text, to name the first bad character.
    """
    if text.isascii() and not text.encode("ascii").translate(None, digits):
        return
    bad = re.search(f"[^{digits.decode()}]", text)
    raise InvalidParams(f"character {bad[0]!r} at index {bad.start()} is not {name}")


def parse_binary(text: str, exponent: int) -> PeriodicSequence:
    """Parse one period from a 0/1 string, position 0 first."""
    _check_exponent(exponent)
    period = 1 << exponent
    if len(text) != period:
        raise InvalidParams(f"expected {period} binary characters, got {len(text)}")
    # int() would also take "_", "+" and whitespace, hence the check first;
    # with a power-of-two base it reads the digits in linear time
    _check_digits(text, b"01", "0/1")
    return PeriodicSequence(exponent, int(text[::-1], 2))


def parse_hex(text: str, exponent: int) -> PeriodicSequence:
    """Parse one period from hex digits, most significant bit first."""
    _check_exponent(exponent)
    if exponent < 2:
        raise InvalidParams("hex input needs a period of at least 4 bits")
    period = 1 << exponent
    if len(text) != period // 4:
        raise InvalidParams(f"expected {period // 4} hex characters, got {len(text)}")
    # fromhex() would skip whitespace, hence the check first
    _check_digits(text, b"0123456789abcdefABCDEF", "a hex digit")
    # fromhex() takes whole bytes: the lone digit of n = 2 gets a trailing
    # 0, which lands past the period once the bits are reversed
    msb_first = bytes.fromhex(text + "0" * (len(text) & 1))
    return PeriodicSequence(
        exponent, int.from_bytes(msb_first.translate(_REVERSED_BITS), "little")
    )


def games_chan_lc(s: PeriodicSequence) -> int:
    """Linear complexity of s by the Games-Chan halving algorithm.

    At period length 2^t, equal halves mean the complexity lives entirely
    in the half-length sequence; unequal halves contribute 2^(t-1) plus
    the complexity of the XOR of the halves.  A final length-1 period
    contributes its single bit.  The all-zero sequence has complexity 0.
    """
    value, lc = s.value, 0
    for t in range(s.exponent, 0, -1):
        half = 1 << (t - 1)
        left = value & ((1 << half) - 1)
        right = value >> half
        if left == right:
            value = left
        else:
            lc += half
            value = left ^ right
    return lc + (value & 1)


def _prefix_xor(value: int, width: int) -> int:
    """Running XOR of the low `width` bits of value; width is a power of two."""
    shift = 1
    while shift < width:
        value ^= value << shift
        shift <<= 1
    return value & ((1 << width) - 1)


def lc_by_minimal_polynomial(s: PeriodicSequence) -> int:
    """Linear complexity as 2^n minus the multiplicity of 1 as a root.

    The period polynomial s(x) over GF(2) is divisible by (1 + x) exactly
    when it has an even number of terms, and the quotient under synthetic
    division is the running prefix XOR of the coefficients.  Dividing
    until the term count goes odd counts the multiplicity of the root 1;
    the complexity is the period length minus that multiplicity.  Shares
    no logic with games_chan_lc, so the two cross-check each other.
    """
    value = s.value
    if value == 0:
        return 0
    period = 1 << s.exponent
    multiplicity = 0
    while value.bit_count() % 2 == 0:
        value = _prefix_xor(value, period)
        multiplicity += 1
    return period - multiplicity


def _two_adic(x: int) -> int:
    """Exponent of the largest power of two dividing x (x > 0)."""
    return (x & -x).bit_length() - 1


def lc_pair(i: int, j: int, exponent: int) -> int:
    """Complexity of the period-2^exponent sequence with ones exactly at i < j.

    Closed form: 2^n - 2^d where d is the 2-adic valuation of j - i.
    """
    period = 1 << exponent
    if not 0 <= i < j < period:
        raise InvalidParams(f"need 0 <= i < j < {period}, got i={i}, j={j}")
    return period - (1 << _two_adic(j - i))


def lc_quad(i: int, j: int, k: int, l: int, exponent: int) -> int:
    """Complexity of the sequence with ones exactly at {i, j, k, l}.

    Closed form for two interleaved pairs: requires the four positions
    distinct and inside one period, with i < j, i < k < l, and k - i odd.
    With d, e the 2-adic valuations of j - i and l - k, the complexity is
    2^n - (2^d + 1) when d == e and 2^n - 2^min(d, e) otherwise.

    One labelling of a support is not covered by the closed form and is
    rejected: both gaps odd (d == e == 0) with their sum divisible by 4.
    There the leading terms of the two pairs cancel further and the
    formula overshoots; regrouping the same four positions into its two
    equal-parity pairs always yields an accepted labelling.
    """
    period = 1 << exponent
    points = (i, j, k, l)
    if len(set(points)) != 4:
        raise InvalidParams(f"positions must be distinct, got {points}")
    if not all(0 <= p < period for p in points):
        raise InvalidParams(f"positions must lie in [0, {period})")
    if not (i < j and i < k < l):
        raise InvalidParams("need i < j and i < k < l")
    if (k - i) % 2 == 0:
        raise InvalidParams(f"k - i must be odd, got {k - i}")
    d = _two_adic(j - i)
    e = _two_adic(l - k)
    if d == e == 0 and ((j - i) + (l - k)) % 4 == 0:
        raise InvalidParams(
            "gaps j - i and l - k both odd with sum divisible by 4:"
            " regroup the pairs by position parity"
        )
    if d == e:
        return period - ((1 << d) + 1)
    return period - (1 << min(d, e))
