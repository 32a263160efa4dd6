"""Exact k-error linear complexity by the Stamp-Martin algorithm.

The k-error linear complexity L_k(s) is the smallest complexity reachable
by flipping at most k positions within one period; flips repeat in every
period.

Everything here rests on one kernel, the cost-vector halving of Stamp
and Martin (IEEE Trans. IT 39(4), 1993), vectorised per level in numpy:
given one period or a batch of them and a budget k, it returns per
period L_k and the fewest flips that reach it, in O(N).  L_k is all that
k_min_search needs, and the fewest flips give k_error_profile a whole
run of equal values per call.

k_error_lc also reports a canonical witness, the positions to flip
within one period as an increasing tuple: among the lightest patterns
reaching L_k, the first in lexicographic position order (zero flips
count, so an already minimal s gets the empty tuple).  A pattern e
reaches L_k exactly when (1 + x)^(N - L_k) divides s(x) + e(x), and that
condition splits over the halvings: with m = N - L_k, a halving of half
length h needs equal halves, leaving m - h for them, while m >= h, and
otherwise only asks m of the halves' XOR.  So one pass down the halving
tree prices, for every folded position and each value it can take, the
fewest flips below it, and one pass back up reads off the witness, in
O(N) after the single kernel call that gives L_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import PeriodicSequence
from .errors import InvalidParams, NotFoundWithinCap, UndefinedForZeroSequence


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


def _stamp_martin(bits: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Least complexity reachable by at most `budget` flips, and the fewest
    flips that reach it, for each period in a batch.

    `bits` has shape (..., N): a period per row, position 0 first.  The
    result is a pair of arrays of the leading shape, 0-d for a single
    period.

    At each halving a row's two halves are made equal when the cheapest
    way to do so fits the budget it has left; otherwise the level adds
    its half length to the row and the halves are folded by XOR.  Either
    way each folded position carries the price, in flips, of flipping it
    in the folded sequence.  Prices start at one and saturate at
    budget + 1, "unaffordable", which keeps every comparison with the
    shrinking budget exact without big sentinels.
    """
    cap = budget + 1
    cost = np.ones(bits.shape, dtype=np.int64)
    # per-row state keeps a trailing axis of length 1, so that it
    # broadcasts against the halves and stays an array for one period
    left = np.full(bits.shape[:-1] + (1,), budget, dtype=np.int64)
    lc = np.zeros(left.shape, dtype=np.int64)
    half = bits.shape[-1] >> 1
    while half:
        a, b = bits[..., :half], bits[..., half:]
        ca, cb = cost[..., :half], cost[..., half:]
        differ = a != b
        cheaper = np.minimum(ca, cb)
        repair = cheaper * differ
        spend = repair.sum(axis=-1, keepdims=True)
        fits = spend <= left
        left = left - spend * fits
        lc = lc + half * ~fits
        # where the repair fits, flip the cheaper side; the other side's
        # price becomes the difference, and two equal positions cost both
        # to change
        bits = np.where(fits, np.where(ca <= cb, b, a), differ)
        cost = np.where(fits, np.minimum(ca + cb - 2 * repair, cap), cheaper)
        half >>= 1
    paid = bits & (cost <= left)
    return (lc + (bits & ~paid))[..., 0], (budget - left + cost * paid)[..., 0]


def _lightest_first(bits: np.ndarray, m: int) -> tuple[int, ...]:
    """The first lightest pattern e, in lexicographic position order, for
    which (1 + x)^m divides s(x) + e(x), s being the period `bits`.

    Each halving folds position j with j + h into one node, so a node
    covers positions j, j + h', j + 2h', ... for the half length h' of its
    level, its halves' positions interleaved.  Per node and per value v
    it can take, `cost[v]` is the fewest flips below it; `first` is the
    position where the first lightest patterns for 0 and for 1 first
    differ, and `flips` the value whose pattern flips there.  Of two
    equally light patterns the one flipping at their first difference
    comes first, so a tie goes to the half whose `first` is smaller, and
    `choice` keeps, for each value of an XOR node, the value of its first
    half.
    """
    # int32 holds every count and position of a period of 2^MAX_EXPONENT
    cost = np.stack([bits, ~bits]).astype(np.int32)  # flips to make each 0, 1
    first = np.arange(len(bits), dtype=np.int32)
    flips = ~bits
    choices = []  # per level, None where the halves must agree
    half = len(bits) >> 1
    while half:
        ca, cb = cost[:, :half], cost[:, half:]
        fa, fb = first[:half], first[half:]
        la, lb = flips[:half], flips[half:]
        a_first = fa < fb
        if m >= half:
            m -= half
            choice = None
            cost = ca + cb
            first = np.minimum(fa, fb)
            flips = np.where(a_first, la, lb)
        else:
            # row y: the first half takes 0 (keep) or 1 (swap), the second
            # half that value XOR y
            keep, swap = ca[0] + cb, ca[1] + cb[::-1]
            tie = np.where(a_first, la, np.stack([lb, ~lb]))
            choice = (swap < keep) | ((swap == keep) & tie)
            cost = np.minimum(keep, swap)
            # the patterns for 0 and 1 differ in one half only
            in_a = choice[0] != choice[1]
            first = np.where(in_a, fa, fb)
            flips = choice[0] ^ np.where(in_a, la, lb)
        choices.append(choice)
        half >>= 1
    # m is 0 or 1 now: the folded bit must be 0, or takes the lighter
    # value, a tie going to the one that flips first
    if m:
        value = np.zeros(1, dtype=bool)
    else:
        value = (cost[1] < cost[0]) | ((cost[1] == cost[0]) & flips)
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
    value, fewest = map(int, _stamp_martin(bits, k))
    return KErrorResult(
        value, _lightest_first(bits, s.period - value) if fewest else ()
    )


def k_error_profile(s: PeriodicSequence, k_max: int) -> list[tuple[int, int]]:
    """The non-increasing profile [(k, k-error complexity)] for k = 0..k_max."""
    if not 0 <= k_max <= s.period:
        raise InvalidParams(f"k_max must be in [0, {s.period}], got {k_max}")
    bits = _bits(s)
    values = [0] * (k_max + 1)
    k = k_max
    while k >= 0:  # one kernel call per distinct value, from k_max down
        value, spent = map(int, _stamp_martin(bits, k))
        # L_j >= L_k = value for j <= k, and `spent` flips already reach it
        values[spent : k + 1] = [value] * (k + 1 - spent)
        k = spent - 1
    return list(enumerate(values))


def k_min_formula(s: PeriodicSequence) -> int:
    """Fewest flips that strictly lower the complexity, in closed form.

    Kurosawa et al.: the minimum is 2 raised to the number of ones in the
    binary expansion of 2^n - L(s).  Undefined for the all-zero sequence,
    whose complexity 0 cannot drop.
    """
    if s.value == 0:
        raise UndefinedForZeroSequence("complexity 0 cannot decrease")
    gap = (1 << s.exponent) - core._lc_value(s.value, s.exponent)
    return 1 << gap.bit_count()


def k_min_search(s: PeriodicSequence, k_cap: int) -> int:
    """Search companion of k_min_formula: try k = 1, 2, ... up to k_cap.

    Only k of the weight parity of s are tried: a flip pattern of the
    other parity leaves a period of odd weight, whose complexity 2^n is
    never below L(s).
    """
    if s.value == 0:
        raise UndefinedForZeroSequence("complexity 0 cannot decrease")
    base = core._lc_value(s.value, s.exponent)
    bits = _bits(s)
    for k in range(2 - s.weight() % 2, k_cap + 1, 2):
        if int(_stamp_martin(bits, k)[0]) < base:
            return k
    raise NotFoundWithinCap(f"no pattern of weight <= {k_cap} lowers {base}")
