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

__all__ = [
    "MAX_EXPONENT",
    "PeriodicSequence",
    "games_chan_lc",
    "lc_by_minimal_polynomial",
    "lc_pair",
    "lc_quad",
    "parse_binary",
    "parse_hex",
]

import re
from binascii import a2b_hex
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidParams

# One period is 2^MAX_EXPONENT bits at most; beyond this, single-sequence
# operations stop being interactive.
MAX_EXPONENT = 20

# Each byte with its bit order reversed: hex text puts position 0 in the
# most significant bit of its first byte, the packed value in bit 0.
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))

# a2b_hex() reads a pair of digits a, b as the byte 16a + b.  For digits
# below 2 (and then below 4) these tables turn that byte into the hex
# digit of 2a + b (and 4a + b), so two passes fold 0/1 text into hex
# text.  Any other byte becomes "x", which the next a2b_hex() refuses.
_FOLD_2, _FOLD_4 = (
    bytes(
        b"0123456789abcdef"[base * (byte >> 4) + (byte & 15)]
        if byte >> 4 < base and byte & 15 < base
        else ord("x")
        for byte in range(256)
    )
    for base in (2, 4)
)

# Marks as bytes 0/1 to binary digits for from_support(), which reads
# them with int() rather than through the parsers' hex reader, so tests
# can hold one route against the other.
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


def _bad_digit(text: str, digits: str, name: str) -> InvalidParams:
    """The error naming the first character of text that is not in digits.

    Built only for text that a2b_hex() refused, which always holds such a
    character: a non-ASCII one (int() would read U+0661 as a digit), a
    non-hex one (fromhex() would skip whitespace) or, for 0/1 text, a hex
    digit other than 0 and 1.
    """
    bad = re.search(f"[^{digits}]", text)
    return InvalidParams(f"character {bad[0]!r} at index {bad.start()} is not {name}")


def _hex_value(text: str | bytes) -> int:
    """Packed value of hex text, most significant bit first; ValueError if not hex."""
    return int.from_bytes(a2b_hex(text).translate(_REVERSED_BITS), "little")


def parse_binary(text: str, exponent: int) -> PeriodicSequence:
    """Parse one period from a 0/1 string, position 0 first."""
    _check_exponent(exponent)
    period = 1 << exponent
    if len(text) != period:
        raise InvalidParams(f"expected {period} binary characters, got {len(text)}")
    # each C pass halves the text, 0/1 digits to base-4 digits to hex;
    # periods below 8 are padded to two whole hex digits, and the pad
    # lands past the period
    try:
        base4 = a2b_hex(text + "0" * (8 - period)).translate(_FOLD_2)
        value = _hex_value(a2b_hex(base4).translate(_FOLD_4))
    except ValueError:
        raise _bad_digit(text, "01", "0/1") from None
    return PeriodicSequence(exponent, value)


def parse_hex(text: str, exponent: int) -> PeriodicSequence:
    """Parse one period from hex digits, most significant bit first."""
    _check_exponent(exponent)
    if exponent < 2:
        raise InvalidParams("hex input needs a period of at least 4 bits")
    period = 1 << exponent
    if len(text) != period // 4:
        raise InvalidParams(f"expected {period // 4} hex characters, got {len(text)}")
    # a2b_hex() takes whole bytes: the lone digit of n = 2 gets a trailing
    # 0, which lands past the period once the bits are reversed
    try:
        value = _hex_value(text + "0" * (len(text) & 1))
    except ValueError:
        raise _bad_digit(text, "0123456789abcdefABCDEF", "a hex digit") from None
    return PeriodicSequence(exponent, value)


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
