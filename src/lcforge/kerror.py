"""k-error linear complexity by one halving fold with the Stamp-Martin budget test.

The k-error linear complexity L_k(s) is the smallest complexity reachable
by flipping at most k positions within one period; flips repeat in every
period.

Everything here rests on one O(N) pass over the halving tree, vectorised
per level in numpy: given one period and a budget k it returns L_k and a
canonical witness, the positions to flip within one period as an
increasing tuple: among the lightest patterns reaching L_k, the first in
lexicographic position order (zero flips count, so an already minimal s
gets the empty tuple).  The pass is a fold down the tree, which finds L_k
and the fewest flips that reach it, and a read-back up the tree, which
builds the witness.  Only k_error_lc reads back: k_error_profile needs
just the fewest flips, which give it a whole run of equal values per fold.

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

from dataclasses import dataclass

import numpy as np

from . import core
from .core import PeriodicSequence
from .errors import InvalidParams


@dataclass(frozen=True)
class KErrorResult:
    """Outcome of a k-error search: the minimum and its first witness."""

    value: int
    witness: tuple[int, ...]


def _bits(s: PeriodicSequence) -> np.ndarray:
    """One period as a bool array, position 0 first."""
    packed = s.value.to_bytes((s.period + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits[: s.period].view(bool)


def _fold(bits: np.ndarray, k: int) -> tuple[int, int, list, np.ndarray]:
    """L_k of the period `bits` within k flips, the fewest flips that reach
    it, and what _read_back needs for the first lightest pattern, in
    lexicographic position order, that does: the per-level choices and
    the value of the folded bit.

    Each halving folds position j with j + h into one node, so a node
    covers positions j, j + h', j + 2h', ... for the half length h' of its
    level, its halves' positions interleaved.  Per node and per value v
    it can take, `cost[v]` is the fewest flips below it; `first` is the
    position where the first lightest patterns for 0 and for 1 first
    differ, and `flips` the value whose pattern flips there.  A level
    makes its halves equal, node value for node value, when the cheapest
    way to do so fits k, and otherwise adds h to L_k and folds them by
    XOR.  Of two equally light patterns the one flipping at their first
    difference comes first, so a tie goes to the half whose `first` is
    smaller, and `choice` keeps, for each value of an XOR node, the value
    of its first half.
    """
    # int32 holds every count and position of a period of 2^MAX_EXPONENT
    cost = np.stack([bits, ~bits]).astype(np.int32)  # flips to make each 0, 1
    first = np.arange(len(bits), dtype=np.int32)
    flips = ~bits
    lc = 0
    choices = []  # per level, None where the halves are made equal
    half = len(bits) >> 1
    while half:
        ca, cb = cost[:, :half], cost[:, half:]
        fa, fb = first[:half], first[half:]
        la, lb = flips[:half], flips[half:]
        a_first = fa < fb
        # row y: the first half takes 0 (keep) or 1 (swap), the second half
        # that value XOR y, so row 0 makes the halves equal
        keep, swap = ca[0] + cb, ca[1] + cb[::-1]
        if np.minimum(keep[0], swap[0]).sum() <= k:
            choice = None
            cost = ca + cb
            first = np.minimum(fa, fb)
            flips = np.where(a_first, la, lb)
        else:
            lc += half
            tie = np.where(a_first, la, np.stack([lb, ~lb]))
            choice = (swap < keep) | ((swap == keep) & tie)
            cost = np.minimum(keep, swap)
            # the patterns for 0 and 1 differ in one half only
            in_a = choice[0] != choice[1]
            first = np.where(in_a, fa, fb)
            flips = choice[0] ^ np.where(in_a, la, lb)
        choices.append(choice)
        half >>= 1
    # the folded bit is 0 if k pays for it, and otherwise takes the
    # lighter value, a tie going to the one that flips first
    if cost[0, 0] <= k:
        value = np.zeros(1, dtype=bool)
    else:
        lc += 1
        value = (cost[1] < cost[0]) | ((cost[1] == cost[0]) & flips)
    return lc, int(cost[int(value[0]), 0]), choices, value


def _read_back(bits: np.ndarray, choices: list, value: np.ndarray) -> tuple[int, ...]:
    """The pattern that _fold chose, unfolded level by level from the value
    of the folded bit, as the increasing positions where it flips `bits`."""
    for choice in reversed(choices):
        if choice is None:
            value = np.concatenate([value, value])
        else:
            a = np.where(value, choice[1], choice[0])
            value = np.concatenate([a, a ^ value])
    return tuple(np.flatnonzero(value != bits).tolist())


def k_error_lc(s: PeriodicSequence, k: int) -> KErrorResult:
    """Exact k-error linear complexity of s with a canonical witness.

    Returns the smallest complexity over all patterns of at most k flips,
    together with the first achieving pattern in (weight, lexicographic
    positions) order as an increasing tuple of positions; zero flips
    count, so the witness for an already minimal s is ().
    """
    if not 0 <= k <= s.period:
        raise InvalidParams(f"k must be in [0, {s.period}], got {k}")
    bits = _bits(s)
    lc, _, choices, value = _fold(bits, k)
    return KErrorResult(lc, _read_back(bits, choices, value))


def k_error_profile(s: PeriodicSequence, k_max: int) -> list[tuple[int, int]]:
    """The non-increasing profile [(k, k-error complexity)] for k = 0..k_max."""
    if not 0 <= k_max <= s.period:
        raise InvalidParams(f"k_max must be in [0, {s.period}], got {k_max}")
    bits = _bits(s)
    values = [0] * (k_max + 1)
    k = k_max
    while k >= 0:  # one fold per distinct value, from k_max down
        # L_j >= L_k for j <= k, and the fewest flips already reach it
        lc, spent, _, _ = _fold(bits, k)
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
    gap = (1 << s.exponent) - core.games_chan_lc(s)
    return 1 << gap.bit_count()

