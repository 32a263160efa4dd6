"""Exact k-error linear complexity by the Stamp-Martin algorithm.

The k-error linear complexity L_k(s) is the smallest complexity reachable
by flipping at most k positions within one period; flips repeat in every
period.

Everything here rests on one kernel, the cost-vector halving of Stamp
and Martin (IEEE Trans. IT 39(4), 1993), vectorised per level in numpy:
given one period or a batch of them, a price for flipping each position
and a budget, it returns per period the least complexity reachable at a
total price within the budget, and the least total price that reaches
it, in O(N).  With unit prices and budget k that is L_k, all that
k_min_search needs, and the fewest flips that reach it, which give
k_error_profile a whole run of equal values per call.

k_error_lc also reports a canonical witness, the positions to flip
within one period as an increasing tuple: among the lightest patterns
reaching L_k, the first in lexicographic position order (zero flips
count, so an already minimal s gets the empty tuple).  Prices find it.
A flip costs one large price less a rebate, larger for earlier groups of
positions, and no rebates add up to a price, so the cheapest pattern is
a lightest one, and among those the one with the largest rebates.  The
rebates are powers of a base above every flip count, so the unspent
budget spells out how many flips the cheapest pattern makes in each
group; its leading digit names the first group that any lightest
pattern reaches.  The search narrows to that group and prices again.
Once groups are single positions, the digits are the positions of the
first pattern.  Groups are as many as int64 prices allow (17 at n = 20
and k = 4), so a witness takes O(k log N) kernel calls at most, and
O(k N log N) time.
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


def _price_type(budget: int, period: int):
    """int64 while no sum of saturated prices can overflow it, else Python ints."""
    return np.int64 if (budget + 1) * period < 1 << 62 else object


def _bits(s: PeriodicSequence) -> np.ndarray:
    """One period as a bool array, position 0 first."""
    packed = s.value.to_bytes((s.period + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits[: s.period].view(bool)


def _stamp_martin(
    bits: np.ndarray, cost: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least complexity reachable by flips of total cost <= budget, and the
    least total cost that reaches it, for each period in a batch.

    `bits` and `cost` have shape (..., N): a period per row, position 0
    first, with the price of flipping each position.  The result is a
    pair of arrays of the leading shape, 0-d for a single period.

    At each halving a row's two halves are made equal when the cheapest
    way to do so fits the budget it has left; otherwise the level adds
    its half length to the row and the halves are folded by XOR.  Either
    way each folded position carries the price of flipping it in the
    folded sequence.  Prices saturate at budget + 1, "unaffordable",
    which keeps every comparison with the shrinking budget exact without
    big sentinels; they are int64 unless a level's sum could overflow it.
    """
    cap = budget + 1
    dtype = _price_type(budget, bits.shape[-1])
    cost = np.minimum(cost.astype(dtype, copy=False), cap)
    # per-row state keeps a trailing axis of length 1, so that it
    # broadcasts against the halves and stays an array for one period
    left = np.full(bits.shape[:-1] + (1,), budget, dtype=dtype)
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


def _lightest_first(bits: np.ndarray, k: int) -> tuple[int, tuple[int, ...]]:
    """L_k of one period, and the first of its lightest patterns reaching L_k.

    The window [start, start + span) holds the next position still to
    find; positions before it are flipped already or passed over.  `rem`
    bounds the flips still to make: k and the weight at first, the exact
    count once the first call has priced them.
    """
    period = len(bits)
    bits = bits.copy()
    positions: list[int] = []
    start, span = 0, period
    rem = min(k, int(np.count_nonzero(bits)))  # at most k, and the support
    while True:
        base = rem + 1
        groups = 2  # as many as int64 prices allow; 62 bounds it when rem is 0
        while groups < min(span, 62) and _price_type(
            rem * (base ** (groups + 1) + 1), period
        ) is np.int64:
            groups += 1
        size = -(-span // groups)
        groups = -(-span // size)
        price = base**groups + 1
        budget = rem * price
        dtype = _price_type(budget, period)
        rebates = np.array([base**g for g in range(groups - 1, -1, -1)], dtype=dtype)
        cost = np.full(period, price, dtype=dtype)
        cost[:start] = budget + 1  # flipped already, or passed over
        cost[start : start + span] -= np.repeat(rebates, size)[:span]
        value, spent = map(int, _stamp_martin(bits, cost, budget))
        rem = -(-spent // price)
        earned = rem * price - spent
        counts = []
        for _ in range(groups):
            earned, count = divmod(earned, base)
            counts.append(count)
        counts.reverse()
        if size > 1 and rem:
            start += size * next(g for g, count in enumerate(counts) if count)
            span = min(size, period - start)
            continue
        hits = [start + g for g, count in enumerate(counts) if count]
        positions += hits
        if len(hits) == rem:
            return value, tuple(positions)
        rem -= len(hits)
        bits[hits] = ~bits[hits]
        start += span
        span = period - start


def k_error_lc(s: PeriodicSequence, k: int) -> KErrorResult:
    """Exact k-error linear complexity of s with a canonical witness.

    Returns the smallest complexity over all patterns of at most k flips,
    together with the first achieving pattern in (weight, lexicographic
    positions) order as an increasing tuple of positions; zero flips
    count, so the witness for an already minimal s is ().
    """
    if not 0 <= k <= s.period:
        raise InvalidParams(f"k must be in [0, {s.period}], got {k}")
    return KErrorResult(*_lightest_first(_bits(s), k))


def _unit_prices(s: PeriodicSequence) -> tuple[np.ndarray, np.ndarray]:
    """The period of s as bits, and a price of one flip per position."""
    return _bits(s), np.ones(s.period, dtype=np.int64)


def k_error_profile(s: PeriodicSequence, k_max: int) -> list[tuple[int, int]]:
    """The non-increasing profile [(k, k-error complexity)] for k = 0..k_max."""
    if not 0 <= k_max <= s.period:
        raise InvalidParams(f"k_max must be in [0, {s.period}], got {k_max}")
    bits, unit = _unit_prices(s)
    values = [0] * (k_max + 1)
    k = k_max
    while k >= 0:  # one kernel call per distinct value, from k_max down
        value, spent = map(int, _stamp_martin(bits, unit, k))
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
    bits, unit = _unit_prices(s)
    for k in range(2 - s.weight() % 2, k_cap + 1, 2):
        if int(_stamp_martin(bits, unit, k)[0]) < base:
            return k
    raise NotFoundWithinCap(f"no pattern of weight <= {k_cap} lowers {base}")
