from fractions import Fraction
from hashlib import sha256
from math import comb

import pytest

from lcforge import counting
from lcforge.census import (
    CensusQuery,
    SequenceClass,
    census_distribution,
    closed_form,
    formula_counts,
)
from lcforge.counting import (
    LKind,
    decompose_L,
    kavuluru_table1,
    n1_lcfull,
    n2_lcless,
    n3_lcfull,
    rueppel_count,
)
from lcforge.errors import InvalidParams

ALL = SequenceClass.ALL
FULL = SequenceClass.FULL_LC
LESS = SequenceClass.LESS_LC

# the count function of every per-class row of the closed-form table
PER_CLASS = tuple(
    closed_form(k, seq_class)
    for k, seq_class in ((1, FULL), (2, FULL), (2, LESS), (3, FULL), (3, LESS), (4, FULL))
)
COMPLETE = (rueppel_count, closed_form(2, ALL), closed_form(3, ALL))
# every (k, class) pair with a closed form
SERVED = ((0, ALL), (1, FULL), (2, LESS), (2, FULL), (2, ALL),
          (3, LESS), (3, FULL), (3, ALL), (4, FULL))


class TestDecomposition:
    def test_zero(self):
        assert decompose_L(4, 0).kind is LKind.ZERO

    def test_others(self):
        # 2^n - L equal to zero or a power of two falls outside the case split
        for L in (16, 15, 14, 12, 8):
            assert decompose_L(4, L).kind is LKind.OTHERS, L

    def test_small(self):
        d = decompose_L(4, 1)
        assert (d.kind, d.r, d.c) == (LKind.SMALL, 4, 1)
        d = decompose_L(4, 9)
        assert (d.kind, d.r, d.c) == (LKind.SMALL, 3, 1)

    def test_power_gap(self):
        d = decompose_L(4, 13)
        assert (d.kind, d.r, d.c, d.m) == (LKind.POWER_GAP, 2, 1, 2)
        d = decompose_L(3, 3)
        assert (d.kind, d.r, d.c, d.m) == (LKind.POWER_GAP, 3, 3, 3)

    def test_gap_plus(self):
        d = decompose_L(4, 5)
        assert (d.kind, d.r, d.c, d.m, d.x) == (LKind.GAP_PLUS, 4, 5, 2, 1)

    def test_round_trip_and_ranges(self):
        # every decomposition sets exactly the fields of its kind, and
        # those reconstruct L and land in the documented parameter windows
        with_c = {LKind.SMALL, LKind.POWER_GAP, LKind.GAP_PLUS}
        with_m = {LKind.POWER_GAP, LKind.GAP_PLUS}
        seen = set()
        for n in range(9):
            for L in range((1 << n) + 1):
                d = decompose_L(n, L)
                seen.add(d.kind)
                assert (d.r is not None) == (d.kind in with_c), (n, L)
                assert (d.c is not None) == (d.kind in with_c), (n, L)
                assert (d.m is not None) == (d.kind in with_m), (n, L)
                assert (d.x is not None) == (d.kind is LKind.GAP_PLUS), (n, L)
                if d.kind not in with_c:
                    continue
                assert L == (1 << n) - (1 << d.r) + d.c
                assert 2 <= d.r <= n
                assert 1 <= d.c <= (1 << (d.r - 1)) - 1
                if d.kind is LKind.SMALL:
                    assert d.c <= (1 << (d.r - 2)) - 1
                elif d.kind is LKind.POWER_GAP:
                    assert 1 < d.m <= d.r
                    assert d.c == (1 << (d.r - 1)) - (1 << (d.r - d.m))
                else:
                    assert 1 < d.m < d.r - 1
                    assert 0 < d.x < 1 << (d.r - d.m - 1)
                    assert d.c == (1 << (d.r - 1)) - (1 << (d.r - d.m)) + d.x
        assert seen == set(LKind)

    def test_rejects_bad_L(self):
        with pytest.raises(InvalidParams, match=r"^L must be in \[0, 16\], got -1$"):
            decompose_L(4, -1)
        with pytest.raises(InvalidParams, match=r"^L must be in \[0, 16\], got 17$"):
            decompose_L(4, 17)
        with pytest.raises(InvalidParams, match=r"^exponent must be in \[0, 20\], got -1$"):
            decompose_L(-1, 0)

    @pytest.mark.parametrize(
        "fn", [decompose_L, rueppel_count, n1_lcfull, n2_lcless, n3_lcfull]
    )
    def test_refuses_exponents_past_the_largest_period(self, fn):
        # the exponent rule of single sequences: 2^21 - 3 is a valid L at
        # n = 21, and the closed form would build a 2^21-bit int for it
        with pytest.raises(InvalidParams, match=r"^exponent must be in \[0, 20\], got 21$"):
            fn(21, (1 << 21) - 3)
        assert fn(20, (1 << 20) - 3) is not None


class TestSingleFamilies:
    def test_rueppel_examples(self):
        assert rueppel_count(4, 0) == 1
        assert rueppel_count(4, 1) == 1
        assert rueppel_count(4, 16) == 32768
        assert rueppel_count(0, 1) == 1

    def test_n1_lcfull_examples(self):
        assert n1_lcfull(4, 0) == 16
        assert n1_lcfull(4, 13) == 16384
        assert n1_lcfull(4, 8) == 0

    def test_n2_lcless_vector_n4(self):
        expected = (121, 121, 242, 484, 776, 1744, 2336, 1600,
                    0, 7424, 8704, 5120, 0, 4096, 0, 0, 0)
        assert tuple(n2_lcless(4, L) for L in range(17)) == expected

    def test_n2_lcless_vector_n3(self):
        assert tuple(n2_lcless(3, L) for L in range(9)) == (29, 29, 34, 20, 0, 16, 0, 0, 0)

    def test_n3_equals_n2_on_even_class(self):
        for n in range(7):
            for L in range((1 << n) + 1):
                assert closed_form(3, LESS)(n, L) == closed_form(2, LESS)(n, L)

    def test_parity_identities_on_odd_class(self):
        for n in range(7):
            for L in range((1 << n) + 1):
                assert closed_form(2, FULL)(n, L) == closed_form(1, FULL)(n, L)
                assert closed_form(4, FULL)(n, L) == closed_form(3, FULL)(n, L)

    def test_n3_lcfull_vector_n4(self):
        expected = (576, 576, 1152, 2304, 2048, 6656, 2048, 1024,
                    0, 16384, 0, 0, 0, 0, 0, 0, 0)
        assert tuple(n3_lcfull(4, L) for L in range(17)) == expected

    def test_n3_lcfull_low_power_gap_is_empty(self):
        # the power-gap values with r <= 3 carry no odd-class mass
        assert n3_lcfull(3, 2) == 0
        assert n3_lcfull(4, 13) == 0

    def test_n2_total_examples(self):
        assert closed_form(2, ALL)(4, 0) == 137
        assert closed_form(2, ALL)(4, 13) == 20480
        assert closed_form(2, ALL)(4, 8) == 0

    def test_n2_total_vector_n5(self):
        expected = (
            529, 529, 1058, 2116, 4232, 8464, 16928, 33856,
            61568, 129280, 258560, 517120, 886784, 1921024, 2760704, 2375680,
            0, 8978432, 17956864, 35913728, 59244544, 131072000, 186646528, 171966464,
            0, 620756992, 838860800, 872415232, 0, 1342177280, 0, 0, 0,
        )
        assert tuple(closed_form(2, ALL)(5, L) for L in range(33)) == expected

    def test_n3_total_vector_n4(self):
        expected = (697, 697, 1394, 2788, 2824, 8400, 4384, 2624,
                    0, 23808, 8704, 5120, 0, 4096, 0, 0, 0)
        assert tuple(closed_form(3, ALL)(4, L) for L in range(17)) == expected

    def test_n3_total_vector_n5(self):
        expected = (
            5489, 5489, 10978, 21956, 43912, 87824, 175648, 351296,
            516224, 1218816, 2437632, 4875264, 5801984, 15552512, 9052160, 5521408,
            0, 45678592, 91357184, 182714368, 185073664, 550502400, 287309824, 171966464,
            0, 1560281088, 570425344, 335544320, 0, 268435456, 0, 0, 0,
        )
        assert tuple(closed_form(3, ALL)(5, L) for L in range(33)) == expected

    def test_n3_total_vector_n3(self):
        assert tuple(closed_form(3, ALL)(3, L) for L in range(9)) == (93, 93, 34, 20, 0, 16, 0, 0, 0)

    def test_rejects_bad_L(self):
        for fn in PER_CLASS + COMPLETE:
            with pytest.raises(InvalidParams, match=r"^L must be in \[0, 16\], got 17$"):
                fn(4, 17)
            with pytest.raises(InvalidParams, match=r"^L must be in \[0, 16\], got -1$"):
                fn(4, -1)


class TestPinnedBeyondTheCensus:
    def test_digest_of_every_served_pair_up_to_n12(self):
        # censuses check the formulas only up to n = 5, so this digest of
        # every served pair's counts for n <= 12 pins the branches at r > 5
        digest = sha256()
        for n in range(13):
            for k, seq_class in SERVED:
                digest.update(repr(formula_counts(n, k, seq_class)).encode())
        assert digest.hexdigest() == (
            "17877399e50558e95fd18a6784b50459dfe66a41bad3deddaaa7862a485935fa"
        )


class TestTopRowsAtEveryN:
    """The n = 5 census fixes the top 31 rows of every distribution up to n = 20.

    Let D(m) be the number of distinct residues mod (1+x)^m of the error
    patterns of weight <= k (of the class's parity, on a parity class).
    A sequence s of that class has L_k(s) <= N - m, for m >= 1, exactly
    when s is congruent to such a pattern mod (1+x)^m, so
    #{L_k <= c} = 2^c * D(N - c) for c < N, and the count at
    L = N - m is 2^(L-1) * (2 D(m) - D(m+1)).

    D(m) does not depend on n for m <= 32.  Over GF(2),
    (1+x)^32 = 1 + x^32, so mod (1+x)^m a pattern of period N >= 32 is
    congruent to its fold onto period 32, the XOR of its 32-bit blocks.
    Folding keeps the weight parity and never raises the weight, so it
    maps the light patterns of period N onto light patterns of period
    32, and each of those is itself a light pattern of period N (one
    block, the rest zero): both periods reach the same residues.  The
    exact n = 5 census therefore gives D(1..32), and with them the rows
    L = N - 31 .. N - 1 at every n, by a route that shares nothing with
    the closed forms.
    """

    @staticmethod
    def residues(k, seq_class):
        """D(1..32) from the cumulative rows of the exact n = 5 census."""
        rows = census_distribution(CensusQuery(5, k, seq_class)).rows
        at_most, D = 0, {}
        for c, row in enumerate(rows[:32]):
            at_most += row.census
            assert at_most % (1 << c) == 0
            D[32 - c] = at_most >> c
        return D

    def test_top_rows_match_the_closed_forms_up_to_n20(self):
        for k, seq_class in SERVED:
            D = self.residues(k, seq_class)
            count = closed_form(k, seq_class)
            for n in range(5, 21):
                for m in range(1, 32):
                    L = (1 << n) - m
                    expected = (2 * D[m] - D[m + 1]) << (L - 1)
                    assert count(n, L) == expected, (k, seq_class, n, m)


class TestBracketTerms:
    def test_f_examples(self):
        assert counting._f_term(4, 2) == 256
        assert counting._f_term(4, 3) == 64
        assert counting._f_term(4, 4) == 16
        assert counting._f_term(3, 2) == 0
        assert counting._f_term(3, 3) == 0
        assert counting._f_term(2, 2) == 0

    def test_g_examples(self):
        assert counting._g_term(4, 2) == 416

    def test_domain(self):
        with pytest.raises(InvalidParams, match="^need 1 < m <= n, got m=1, n=4$"):
            counting._f_term(4, 1)
        with pytest.raises(InvalidParams, match="^need 1 < m <= n, got m=5, n=4$"):
            counting._f_term(4, 5)
        with pytest.raises(InvalidParams, match="^need 1 < m < n - 1, got m=3, n=4$"):
            counting._g_term(4, 3)
        with pytest.raises(InvalidParams, match="^need 1 < m < n - 1, got m=1, n=4$"):
            counting._g_term(4, 1)

    def test_f_specialisations(self):
        # closed specialisations of the bracket for small m
        f = counting._f_term
        for n in range(4, 9):
            N = 1 << n
            assert f(n, 2) == comb(N, 3) - N - 6 * (1 << (n - 2)) * (N - 4)
            assert f(n, 3) == comb(N, 3) - 7 * N - 384 * comb(1 << (n - 3), 2)
            assert f(n, 4) == comb(N, 3) - 34 * N - 3072 * comb(1 << (n - 4), 2)

    def test_g_specialisation(self):
        for n in range(4, 9):
            N = 1 << n
            assert counting._g_term(n, 2) == comb(N, 3) - 6 * (1 << (n - 3)) * (N - 4)

    def test_f_equals_the_rational_bracket(self):
        # the bracket as printed, with 2^(n-m-1) an exact rational: at
        # m = n it is 1/2, and the integer form must halve exactly
        for n in range(2, 21):
            for m in range(2, n + 1):
                bracket = (
                    comb(1 << n, 3)
                    - (1 << (n - m)) * comb(1 << m, 3)
                    - comb(1 << (n - m), 2) * comb(1 << m, 2) * (1 << (m + 1))
                    + comb(1 << (n - m), 2) * (1 << (2 * m)) * ((1 << (m - 2)) - 1)
                    + Fraction(2) ** (n - m - 1) * comb(1 << (m - 1), 3)
                    - (1 << (n - 2)) * ((1 << (m - 2)) - 1)
                )
                assert counting._f_term(n, m) == bracket, (n, m)

    def test_never_negative(self):
        for n in range(2, 9):
            for m in range(2, n + 1):
                assert counting._f_term(n, m) >= 0
                if m < n - 1:
                    assert counting._g_term(n, m) >= 0


class TestGlobalIdentities:
    def test_totals(self):
        for n in range(2, 7):
            N = 1 << n
            for fn in COMPLETE:
                assert sum(fn(n, L) for L in range(N + 1)) == 1 << N, fn.__name__
            for fn in PER_CLASS:
                assert sum(fn(n, L) for L in range(N + 1)) == 1 << (N - 1), fn.__name__

    def test_class_additivity(self):
        # the table's rows for both classes add up to its row for all
        for n in range(2, 7):
            for L in range((1 << n) + 1):
                for k in (2, 3):
                    less, full = closed_form(k, LESS), closed_form(k, FULL)
                    assert closed_form(k, ALL)(n, L) == less(n, L) + full(n, L)

    def test_non_negative_everywhere(self):
        for n in range(9):
            for L in range((1 << n) + 1):
                for fn in PER_CLASS + COMPLETE:
                    assert fn(n, L) >= 0, (fn.__name__, n, L)


class TestPublishedFixture:
    def test_quoted_entries(self):
        assert kavuluru_table1(4) == 5128
        assert kavuluru_table1(9) == 23808
        assert kavuluru_table1(11) == 37888

    def test_total_exceeds_the_sequence_count(self):
        # the published column cannot be a distribution of the 65 536
        # sequences of period 16: it sums to more than there are sequences
        assert sum(kavuluru_table1(L) for L in range(16)) == 158208

    def test_disagreement_set(self):
        wrong = [L for L in range(16) if kavuluru_table1(L) != closed_form(3, ALL)(4, L)]
        assert wrong == [4, 5, 6, 7, 10, 11]

    def test_domain(self):
        with pytest.raises(InvalidParams, match=r"covers L in \[0, 15\], got 16$"):
            kavuluru_table1(16)
        with pytest.raises(InvalidParams, match=r"covers L in \[0, 15\], got -1$"):
            kavuluru_table1(-1)
