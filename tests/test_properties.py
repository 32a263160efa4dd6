"""Properties of the complexity routes and the k-error engine over random
periods with n <= 10."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kerror import brute_k_error, k_min_by_search, stamp_martin

from lcforge.core import PeriodicSequence, games_chan_lc, lc_by_minimal_polynomial
from lcforge.kerror import k_error_lc, k_error_profile, k_min_formula

# a hundred examples each keep the whole module within a few seconds
bounded = settings(max_examples=100, deadline=None)


@st.composite
def periods(draw, n_max=8):
    n = draw(st.integers(0, n_max))
    return PeriodicSequence(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


@bounded
@given(periods(n_max=10))
def test_halving_equals_minimal_polynomial(s):
    assert games_chan_lc(s) == lc_by_minimal_polynomial(s)


@st.composite
def periods_and_k(draw):
    s = draw(periods())
    return s, draw(st.integers(0, s.period))


def _rotate(s: PeriodicSequence, shift: int) -> PeriodicSequence:
    shift %= s.period
    mask = (1 << s.period) - 1
    return PeriodicSequence(
        s.exponent, (s.value << shift | s.value >> (s.period - shift)) & mask
    )


@bounded
@given(periods(), st.integers(0, 8))
def test_profile_is_non_increasing(s, k_max):
    profile = k_error_profile(s, min(k_max, s.period))
    assert [k for k, _ in profile] == list(range(len(profile)))
    values = [value for _, value in profile]
    assert values[0] == games_chan_lc(s)
    assert all(a >= b for a, b in zip(values, values[1:]))


@bounded
@given(periods_and_k(), st.integers(0, 255))
def test_value_is_invariant_under_cyclic_shift(s_and_k, shift):
    s, k = s_and_k
    assert k_error_lc(_rotate(s, shift), k).value == k_error_lc(s, k).value


@bounded
@given(periods_and_k())
def test_witness_reaches_the_value(s_and_k):
    s, k = s_and_k
    result = k_error_lc(s, k)
    assert len(result.witness) <= k
    flipped = s ^ PeriodicSequence.from_support(s.exponent, result.witness)
    assert games_chan_lc(flipped) == result.value
    if result.witness:  # and no lighter pattern reaches it
        assert k_error_lc(s, len(result.witness) - 1).value > result.value


@settings(max_examples=25, deadline=None)  # every k: up to 1 025 calls each
@given(periods(n_max=10))
def test_value_and_weight_equal_stamp_martin(s):
    # the witness is a lightest pattern: its weight is the kernel's fewest
    # flips, at every k
    bits = np.array([s.value >> i & 1 for i in range(s.period)], dtype=bool)
    for k in range(s.period + 1):
        result = k_error_lc(s, k)
        lc, fewest = map(int, stamp_martin(bits, k))
        assert (result.value, len(result.witness)) == (lc, fewest), k


@bounded
@given(periods(n_max=4), st.integers(0, 2))
def test_value_and_witness_equal_brute_force(s, k):
    k = min(k, s.period)
    result = k_error_lc(s, k)
    assert (result.value, result.witness) == brute_k_error(s, k)


@bounded
@given(periods().filter(lambda s: s.value != 0))
def test_k_min_formula_equals_search(s):
    assert k_min_formula(s) == k_min_by_search(s)
