"""k-error linear complexity and the k-error profile of one period.

The k-error linear complexity L_k(s) is the smallest complexity reachable
by flipping at most k positions within one period; flips repeat in every
period.

k_error_lc returns L_k and a canonical witness, the positions to flip
within one period as an increasing tuple: among the lightest patterns
reaching L_k, the first in lexicographic position order (zero flips
count, so an already minimal s gets the empty tuple).  Both it and
k_error_profile run the halving fold of lcforge.cosets, the package's
one numpy module, which they import, and numpy with it, when they run.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import PeriodicSequence
from .errors import InvalidParams


@dataclass(frozen=True)
class KErrorResult:
    """Outcome of a k-error search: the minimum and its first witness."""

    value: int
    witness: tuple[int, ...]


def k_error_lc(s: PeriodicSequence, k: int) -> KErrorResult:
    """Exact k-error linear complexity of s with a canonical witness.

    Returns the smallest complexity over all patterns of at most k flips,
    together with the first achieving pattern in (weight, lexicographic
    positions) order as an increasing tuple of positions; zero flips
    count, so the witness for an already minimal s is ().
    """
    if not 0 <= k <= s.period:
        raise InvalidParams(f"k must be in [0, {s.period}], got {k}")
    from . import cosets  # numpy loads here, on the first k-error call only

    bits = cosets._bits(s.value, s.period)
    lc, _, choices, value = cosets._fold(bits, k)
    return KErrorResult(lc, cosets._read_back(bits, choices, value))


def k_error_profile(s: PeriodicSequence, k_max: int) -> list[tuple[int, int]]:
    """The non-increasing profile [(k, k-error complexity)] for k = 0..k_max."""
    if not 0 <= k_max <= s.period:
        raise InvalidParams(f"k_max must be in [0, {s.period}], got {k_max}")
    from . import cosets

    bits = cosets._bits(s.value, s.period)
    values = [0] * (k_max + 1)
    k = k_max
    while k >= 0:  # one fold per distinct value, from k_max down
        # L_j >= L_k for j <= k, and the fewest flips already reach it
        lc, spent, _, _ = cosets._fold(bits, k)
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

