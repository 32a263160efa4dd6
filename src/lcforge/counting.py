"""Closed-form counts of sequences by k-error linear complexity.

Every function here answers a question of the form "how many 2^n-periodic
binary sequences have k-error linear complexity exactly L?", either over
all 2^(2^n) sequences or restricted to one weight-parity class:

* the full-complexity class (odd weight per period, complexity 2^n),
* the reduced-complexity class (even weight, complexity below 2^n).

All results are exact integers.  The formulas branch on a canonical
decomposition of L: apart from L = 0 and the values where 2^n - L is a
power of two (which carry no mass for k >= 2), every L in (0, 2^n)
writes uniquely as L = 2^n - 2^r + c with 2 <= r <= n and
1 <= c <= 2^(r-1) - 1, and the shape of c inside that range decides the
branch.  decompose_L exposes the decomposition.

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

from .errors import InvalidL, InvalidParams


class LKind(Enum):
    """How a complexity value relates to the canonical decomposition."""

    ZERO = "zero"  # L = 0
    OTHERS = "others"  # 2^n - L is 0 or a power of two
    CASE = "case"  # L = 2^n - 2^r + c


class LSubcase(Enum):
    """Where c falls inside [1, 2^(r-1) - 1]."""

    SMALL = "small"  # c <= 2^(r-2) - 1
    POWER_GAP = "power_gap"  # c = 2^(r-1) - 2^(r-m)
    GAP_PLUS = "gap_plus"  # c = 2^(r-1) - 2^(r-m) + x, 0 < x < 2^(r-m-1)


@dataclass(frozen=True)
class LDecomposition:
    """Canonical decomposition of a complexity value L at period 2^n."""

    n: int
    L: int
    kind: LKind
    r: int | None = None
    c: int | None = None
    subcase: LSubcase | None = None
    m: int | None = None
    x: int | None = None


def _check_L(n: int, L: int) -> None:
    if n < 0:
        raise InvalidL(f"period exponent must be non-negative, got {n}")
    if not 0 <= L <= (1 << n):
        raise InvalidL(f"L must be in [0, {1 << n}], got {L}")


def decompose_L(n: int, L: int) -> LDecomposition:
    """Split L as 2^n - 2^r + c and classify c; see the module docstring."""
    _check_L(n, L)
    if L == 0:
        return LDecomposition(n, L, LKind.ZERO)
    gap = (1 << n) - L
    if gap & (gap - 1) == 0:  # covers gap == 0 and gap a power of two
        return LDecomposition(n, L, LKind.OTHERS)
    r = gap.bit_length()
    c = (1 << r) - gap
    if c <= (1 << (r - 2)) - 1:
        return LDecomposition(n, L, LKind.CASE, r, c, LSubcase.SMALL)
    # c = 2^(r-1) - e with 1 <= e <= 2^(r-2); e a power of two is the
    # boundary case, anything else sits x above such a boundary.
    e = (1 << (r - 1)) - c
    if e & (e - 1) == 0:
        m = r - (e.bit_length() - 1)
        return LDecomposition(n, L, LKind.CASE, r, c, LSubcase.POWER_GAP, m)
    m = r - e.bit_length()
    x = (1 << (r - m)) - e
    return LDecomposition(n, L, LKind.CASE, r, c, LSubcase.GAP_PLUS, m, x)


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
    base = comb(1 << d.r, 2) + 1
    if d.subcase is LSubcase.SMALL:
        factor = base
    elif d.subcase is LSubcase.POWER_GAP:
        factor = base - 3 * (1 << (d.r + d.m - 3))
    else:
        factor = base + (1 << (d.r - d.m)) - (1 << (d.r + d.m - 2))
    return (1 << (L - 1)) * factor


def f_term(n: int, m: int) -> int:
    """Bracket factor for the power-gap branch of n3_lcfull; needs 1 < m <= n."""
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


def g_term(n: int, m: int) -> int:
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
    if d.subcase is LSubcase.SMALL:
        return (1 << (L - 1)) * (comb(1 << d.r, 3) + (1 << d.r))
    if d.r <= 3:
        # the power-gap values with r <= 3 are unreachable from this class
        return 0
    if d.subcase is LSubcase.POWER_GAP:
        return (1 << (L - 1)) * f_term(d.r, d.m)
    return (1 << (L - 1)) * g_term(d.r, d.m)


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
        raise InvalidL(f"the published table covers L in [0, 15], got {L}")
    return _TABLE1[L]
