"""Closed-form counts of sequences by k-error linear complexity.

Every function here answers a question of the form "how many 2^n-periodic
binary sequences have k-error linear complexity exactly L?", either over
all 2^(2^n) sequences or restricted to one weight-parity class:

* the full-complexity class (odd weight per period, complexity 2^n),
* the reduced-complexity class (even weight, complexity below 2^n).

All results are exact integers, for n in [0, 20] (core.MAX_EXPONENT)
and L in [0, 2^n].  The formulas branch on a canonical decomposition
of L, which decompose_L returns with its branch, an LKind.
L = 0 is ZERO, and the values where 2^n - L is 0 or a power of two are
OTHERS (no mass for k >= 2).  Every other L writes uniquely as
L = 2^n - 2^r + c with 2 <= r <= n and 1 <= c <= 2^(r-1) - 1, and c is
SMALL, on a POWER_GAP or at GAP_PLUS, x above a power gap; LKind gives
the bounds.

Only the independent formulas live here; census.closed_form derives
the counts of the other (k, class) pairs from them.

kavuluru_table1 is different in kind: it reproduces a previously
published 3-error distribution for period 16 verbatim, as a fixture.
The exhaustive census disproves six of its entries; see
census.refutation_report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

from .core import _check_exponent
from .errors import InvalidParams


class LKind(Enum):
    """Which branch of the decomposition a complexity value takes."""

    ZERO = "zero"  # L = 0
    OTHERS = "others"  # 2^n - L is 0 or a power of two
    SMALL = "small"  # c <= 2^(r-2) - 1
    POWER_GAP = "power_gap"  # c = 2^(r-1) - 2^(r-m)
    GAP_PLUS = "gap_plus"  # c = 2^(r-1) - 2^(r-m) + x, 0 < x < 2^(r-m-1)


@dataclass(frozen=True)
class LDecomposition:
    """Canonical decomposition of a complexity value L at period 2^n."""

    kind: LKind
    r: int | None = None
    c: int | None = None
    m: int | None = None
    x: int | None = None


def _check_L(n: int, L: int) -> None:
    _check_exponent(n)
    if not 0 <= L <= (1 << n):
        raise InvalidParams(f"L must be in [0, {1 << n}], got {L}")


def decompose_L(n: int, L: int) -> LDecomposition:
    """Split L as 2^n - 2^r + c and classify c; see the module docstring."""
    _check_L(n, L)
    if L == 0:
        return LDecomposition(LKind.ZERO)
    gap = (1 << n) - L
    if gap & (gap - 1) == 0:  # covers gap == 0 and gap a power of two
        return LDecomposition(LKind.OTHERS)
    r = gap.bit_length()
    c = (1 << r) - gap
    if c <= (1 << (r - 2)) - 1:
        return LDecomposition(LKind.SMALL, r, c)
    # c = 2^(r-1) - e with 1 <= e <= 2^(r-2); e a power of two is the
    # boundary case, anything else sits x above such a boundary.
    e = (1 << (r - 1)) - c
    if e & (e - 1) == 0:
        m = r - (e.bit_length() - 1)
        return LDecomposition(LKind.POWER_GAP, r, c, m)
    m = r - e.bit_length()
    x = (1 << (r - m)) - e
    return LDecomposition(LKind.GAP_PLUS, r, c, m, x)


def rueppel_count(n: int, L: int) -> int:
    """Sequences of period 2^n with linear complexity exactly L (classical)."""
    _check_L(n, L)
    return 1 if L == 0 else 1 << (L - 1)


def n1_lcfull(n: int, L: int) -> int:
    """Odd-weight sequences counted by 1-error complexity."""
    d = decompose_L(n, L)
    if d.kind is LKind.ZERO:
        return 1 << n
    if d.kind is LKind.OTHERS:
        return 0
    return 1 << (L + d.r - 1)


def n2_lcless(n: int, L: int) -> int:
    """Even-weight sequences counted by 2-error complexity."""
    d = decompose_L(n, L)
    if d.kind is LKind.ZERO:
        return comb(1 << n, 2) + 1
    if d.kind is LKind.OTHERS:
        return 0
    factor = comb(1 << d.r, 2) + 1
    if d.kind is LKind.POWER_GAP:
        factor -= 3 * (1 << (d.r + d.m - 3))
    elif d.kind is LKind.GAP_PLUS:
        factor += (1 << (d.r - d.m)) - (1 << (d.r + d.m - 2))
    return (1 << (L - 1)) * factor


def _f_term(n: int, m: int) -> int:
    """Bracket factor for the power-gap branch of n3_lcfull; needs 1 < m <= n.
    0 for n <= 3: the power-gap values with r <= 3 are unreachable from this class."""
    if not 1 < m <= n:
        raise InvalidParams(f"need 1 < m <= n, got m={m}, n={n}")
    # 2^(n-m-1) * C(2^(m-1), 3) halves the binomial when m = n; that
    # binomial is always even, so the term is an integer
    half_term, odd = divmod(comb(1 << (m - 1), 3) << (n - m), 2)
    assert odd == 0
    return (
        comb(1 << n, 3)
        - (1 << (n - m)) * comb(1 << m, 3)
        - comb(1 << (n - m), 2) * comb(1 << m, 2) * (1 << (m + 1))
        + comb(1 << (n - m), 2) * (1 << (2 * m)) * ((1 << (m - 2)) - 1)
        + half_term
        - (1 << (n - 2)) * ((1 << (m - 2)) - 1)
    )


def _g_term(n: int, m: int) -> int:
    """Bracket factor for the gap-plus branch of n3_lcfull; needs 1 < m < n - 1."""
    if not 1 < m < n - 1:
        raise InvalidParams(f"need 1 < m < n - 1, got m={m}, n={n}")
    return (
        comb(1 << n, 3)
        - ((1 << (m - 2)) - 1) * (1 << (n + 1))
        - ((1 << (m - 1)) - 1) * comb(1 << (n - m), 2) * (1 << (m + 1))
        - 3 * (1 << (n - m - 2)) * (comb(1 << m, 3) - 4 * comb(1 << (m - 1), 2))
        - comb(1 << (n - m), 2) * (comb(1 << m, 2) - (1 << (m - 1))) * (1 << m)
    )


def n3_lcfull(n: int, L: int) -> int:
    """Odd-weight sequences counted by 3-error complexity."""
    d = decompose_L(n, L)
    if d.kind is LKind.ZERO:
        return comb(1 << n, 3) + (1 << n)
    if d.kind is LKind.OTHERS:
        return 0
    if d.kind is LKind.SMALL:
        return (1 << (L - 1)) * (comb(1 << d.r, 3) + (1 << d.r))
    if d.kind is LKind.POWER_GAP:
        return (1 << (L - 1)) * _f_term(d.r, d.m)
    return (1 << (L - 1)) * _g_term(d.r, d.m)


# Previously published 3-error distribution for period 16 (both classes),
# kept verbatim.  Six entries disagree with the exhaustive census and
# with the (3, all) closed form; the census is the arbiter.
_TABLE1 = (
    697, 697, 1394, 2788, 5128, 10704, 18720, 30272,
    0, 23808, 22016, 37888, 0, 4096, 0, 0,
)


def kavuluru_table1(L: int) -> int:
    """The published period-16 3-error count for L in [0, 15], as printed."""
    if not 0 <= L <= 15:
        raise InvalidParams(f"the published table covers L in [0, 15], got {L}")
    return _TABLE1[L]
