"""k-error linear complexity and the k-error profile of one period.

The k-error linear complexity L_k(s) is the smallest complexity reachable
by flipping at most k positions within one period; flips repeat in every
period.

k_error_lc returns L_k and a canonical witness, the positions to flip
within one period as an increasing tuple: among the lightest patterns
reaching L_k, the first in lexicographic position order (zero flips
count, so an already minimal s gets the empty tuple).

Both run the k-error fold, one O(N) pass over the halving tree of the
packed period: a fold down the tree (_fold) finds L_k and the fewest
flips that reach it, and only k_error_lc reads the witness back up the
tree (_read_back); k_error_profile needs just the fewest flips, which
give it a whole run of equal values per fold.

A pattern e takes s to complexity at most N - m exactly when
(1 + x)^m divides s(x) + e(x), and that condition splits over the
halvings: a halving of half length h needs equal halves, leaving m - h
for them, while m >= h, and otherwise only asks m of the halves' XOR.
So a pass down the tree prices, for every folded position and each
value it can take, the fewest flips below it, and a pass back up reads
off the witness.  The fewest flips c(m) for the condition never
decrease as m grows, so the largest m with c(m) <= k, which is N - L_k,
is found one binary digit at a time from the top: a level takes its
digit, making its halves equal, when the cheapest way to do so, with
every lower digit 0, fits k.  That is the budget test of the cost-vector
algorithm of Stamp and Martin (IEEE Trans. IT 39(4), 1993), taken on the
two-valued prices of the pass, so the same pass finds L_k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest

from .core import PeriodicSequence, games_chan_lc
from .errors import InvalidParams


@dataclass(frozen=True)
class KErrorResult:
    """Outcome of a k-error search: the minimum and its first witness."""

    value: int
    witness: tuple[int, ...]


def _add(x: list[int], y: list[int]) -> list[int]:
    """The node-wise sum of two numbers; a shorter one is padded with zeros."""
    out, carry = [], 0
    for a, b in zip_longest(x, y, fillvalue=0):
        out.append(a ^ b ^ carry)
        carry = (a & b) | (carry & (a ^ b))
    return [*out, carry] if carry else out


def _less(x: list[int], y: list[int], below: int = 0) -> int:
    """The nodes where x < y, or x == y and the node's bit of `below` is set."""
    for a, b in zip_longest(x, y, fillvalue=0):  # a higher plane decides
        below ^= (below ^ b) & (a ^ b)
    return below


def _select(mask: int, x: list[int], y: list[int]) -> list[int]:
    """x at the nodes of `mask`, y elsewhere, less zero top planes."""
    out = [b ^ ((a ^ b) & mask) for a, b in zip_longest(x, y, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _total(planes: list[int]) -> int:
    """The sum of a number over the nodes."""
    return sum(plane.bit_count() << i for i, plane in enumerate(planes))


def _fold(s: PeriodicSequence, k: int) -> tuple[int, int, list, int]:
    """L_k of s within k flips, the fewest flips that reach it, and, for
    _read_back, the per-level choices and the folded bit of the first
    lightest pattern, in lexicographic position order, that does.

    At a level of M nodes node j covers positions j + t*M, and a number per
    node is bit-sliced: a list of M-bit ints, its planes, with bit i of
    node j's number at bit j of plane i.  `cost[v]` is the fewest flips
    below a node for its value v; `first` is the t where the first lightest
    patterns for 0 and for 1 first differ, and `flips` the value whose
    pattern flips there, which wins a tie.  A level makes its halves equal
    when the cheapest way to do so fits k, and otherwise adds h to L_k and
    folds them by XOR; a choice is, per value of an XOR node, the value of
    its first half.
    """
    bits, nodes = s.value, s.period
    flips = bits ^ ((1 << nodes) - 1)
    cost = ([bits], [flips])  # flips to make each 0, 1
    lc, first = 0, []
    choices = []  # per level, None where the halves are made equal
    while nodes > 1:
        half = nodes >> 1
        low = (1 << half) - 1
        ca0, ca1 = ([plane & low for plane in c] for c in cost)
        cb0, cb1 = ([plane >> half for plane in c] for c in cost)
        fa, fb = [t & low for t in first], [t >> half for t in first]
        la, lb = flips & low, flips >> half
        # t stands for j + 2t*half in the first half and j + half + 2t*half
        # in the second, so the first half's comes first unless its t is larger
        b_first = _less(fb, fa)
        # row y: the first half takes 0 (keep) or 1 (swap), the second half
        # that value XOR y, so row 0 makes the halves equal, and its choice
        # serves both an equal level and an XOR node of value 0
        keep0, swap0 = _add(ca0, cb0), _add(ca1, cb1)
        tie = la ^ ((la ^ lb) & b_first)
        choice0 = _less(swap0, keep0, tie)
        equal = _select(choice0, swap0, keep0)
        if _total(equal) <= k:
            choice = None
            cost = (keep0, swap0)
            first = [b_first, *_select(b_first, fb, fa)]
            flips = tie
        else:
            lc += half
            keep1, swap1 = _add(ca0, cb1), _add(ca1, cb0)
            choice = (choice0, _less(swap1, keep1, tie ^ b_first))
            cost = (equal, _select(choice[1], swap1, keep1))
            # the patterns for 0 and 1 differ in one half only
            in_b = choice0 ^ choice[1] ^ low
            first = [in_b, *_select(in_b, fb, fa)]
            flips = choice0 ^ la ^ ((la ^ lb) & in_b)
        choices.append(choice)
        nodes = half
    # the folded bit is 0 if k pays for it, and otherwise 1, which k pays
    # for: the nodes' cheaper values cost at most k in all, since an equal
    # level fits k and an XOR level keeps that sum
    spent = _total(cost[0])
    if spent <= k:
        return lc, spent, choices, 0
    return lc + 1, _total(cost[1]), choices, 1


def _read_back(s: PeriodicSequence, choices: list, value: int) -> tuple[int, ...]:
    """The pattern that _fold chose, unfolded level by level from the value
    of the folded bit, as the increasing positions where it flips s."""
    nodes = 1
    for choice in reversed(choices):
        if choice is None:
            value |= value << nodes
        else:
            a0, a1 = choice  # the first half's value, per value of the node
            a = a0 ^ ((a0 ^ a1) & value)
            value = a | (a ^ value) << nodes
        nodes <<= 1
    # one linear scan: peeling the low bits one at a time is quadratic
    flipped = bin(value ^ s.value)[:1:-1]
    return tuple(match.start() for match in re.finditer("1", flipped))


def k_error_lc(s: PeriodicSequence, k: int) -> KErrorResult:
    """Exact k-error linear complexity of s with a canonical witness.

    Returns the smallest complexity over all patterns of at most k flips,
    together with the first achieving pattern in (weight, lexicographic
    positions) order as an increasing tuple of positions; zero flips
    count, so the witness for an already minimal s is ().
    """
    if not 0 <= k <= s.period:
        raise InvalidParams(f"k must be in [0, {s.period}], got {k}")
    lc, _, choices, value = _fold(s, k)
    return KErrorResult(lc, _read_back(s, choices, value))


def k_error_profile(s: PeriodicSequence, k_max: int) -> list[tuple[int, int]]:
    """The non-increasing profile [(k, k-error complexity)] for k = 0..k_max."""
    if not 0 <= k_max <= s.period:
        raise InvalidParams(f"k_max must be in [0, {s.period}], got {k_max}")
    values, k = [0] * (k_max + 1), k_max
    while k >= 0:  # one fold per distinct value, from k_max down
        # L_j >= L_k for j <= k, and the fewest flips already reach it
        lc, spent, _, _ = _fold(s, k)
        values[spent : k + 1] = [lc] * (k + 1 - spent)
        k = spent - 1
    return list(enumerate(values))


def k_min_formula(s: PeriodicSequence) -> int:
    """Fewest flips that strictly lower the complexity, in closed form.

    Kurosawa et al.: the minimum is 2 raised to the number of ones in the
    binary expansion of 2^n - L(s).  Undefined for the all-zero sequence,
    whose complexity 0 cannot drop.
    """
    if s.value == 0:
        raise InvalidParams("complexity 0 cannot decrease")
    gap = (1 << s.exponent) - games_chan_lc(s)
    return 1 << gap.bit_count()
