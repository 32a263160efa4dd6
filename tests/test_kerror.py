import hashlib
import random
from itertools import combinations

import numpy as np
import pytest

from lcforge import kerror
from lcforge.core import PeriodicSequence, games_chan_lc, lc_by_minimal_polynomial
from lcforge.errors import InvalidParams
from lcforge.kerror import k_error_lc, k_error_profile, k_min_formula

# complexity of every packed period, by the halving recurrence
LC3 = [games_chan_lc(PeriodicSequence(3, value)) for value in range(1 << 8)]
LC4 = [games_chan_lc(PeriodicSequence(4, value)) for value in range(1 << 16)]


def brute_k_error(s: PeriodicSequence, k: int):
    """Independent oracle: minimal-polynomial complexity, no pruning at all."""
    best = (lc_by_minimal_polynomial(s), ())
    for w in range(1, k + 1):
        for combo in combinations(range(s.period), w):
            mask = 0
            for p in combo:
                mask |= 1 << p
            lc = lc_by_minimal_polynomial(PeriodicSequence(s.exponent, s.value ^ mask))
            if lc < best[0]:
                best = (lc, combo)
    return best


def bool_bits(s: PeriodicSequence) -> np.ndarray:
    """One period as a bool array, position 0 first, the oracle's input."""
    return np.array([s.value >> i & 1 for i in range(s.period)], dtype=bool)


def stamp_martin(bits: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle: the batched cost-vector kernel of Stamp and Martin
    (IEEE Trans. IT 39(4), 1993).

    Least complexity reachable by at most `budget` flips, and the fewest
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


def k_min_by_search(s: PeriodicSequence) -> int:
    """Search route for k_min_formula: the least k at which the Stamp-Martin
    oracle lowers the complexity of a nonzero s.

    Only k of the weight parity of s are tried: a flip pattern of the
    other parity leaves a period of odd weight, whose complexity 2^n is
    never below L(s).
    """
    base, bits = lc_by_minimal_polynomial(s), bool_bits(s)
    for k in range(2 - s.weight() % 2, s.period + 1, 2):
        if stamp_martin(bits, k)[0] < base:
            return k
    raise AssertionError(f"no k <= {s.period} lowers {base}")


class TestKErrorLc:
    def test_single_one_erased(self):
        r = k_error_lc(PeriodicSequence.from_support(4, (5,)), 1)
        assert (r.value, r.witness) == (0, (5,))

    def test_pair_erased(self):
        r = k_error_lc(PeriodicSequence.from_support(4, (0, 1)), 2)
        assert (r.value, r.witness) == (0, (0, 1))

    def test_completing_a_block(self):
        r = k_error_lc(PeriodicSequence.from_support(4, (0, 1, 2)), 1)
        assert (r.value, r.witness) == (13, (3,))

    def test_zero_sequence(self):
        r = k_error_lc(PeriodicSequence(3, 0), 2)
        assert (r.value, r.witness) == (0, ())

    def test_k_zero_keeps_base_complexity(self):
        s = PeriodicSequence.from_support(3, (0, 4))
        r = k_error_lc(s, 0)
        assert r.value == games_chan_lc(s) == 4
        assert r.witness == ()

    def test_no_period8_L8_sequence_drops_to_two(self):
        # with three errors, complexity exactly 2 is unreachable from
        # full complexity at period 8
        for value in range(1 << 8):
            if LC3[value] == 8:
                assert k_error_lc(PeriodicSequence(3, value), 3).value != 2

    def test_matches_brute_oracle_sampled(self):
        rng = random.Random(7)
        for n, k, trials in ((3, 3, 40), (4, 2, 25)):
            for _ in range(trials):
                s = PeriodicSequence(n, rng.getrandbits(1 << n))
                r = k_error_lc(s, k)
                expected = brute_k_error(s, k)
                assert (r.value, r.witness) == expected, (n, s.value, k)

    def test_witness_achieves_value(self):
        rng = random.Random(99)
        for _ in range(200):
            s = PeriodicSequence(4, rng.getrandbits(16))
            r = k_error_lc(s, 3)
            flipped = s ^ PeriodicSequence.from_support(4, r.witness)
            assert games_chan_lc(flipped) == r.value
            assert len(r.witness) <= 3

    def test_k_out_of_range(self):
        with pytest.raises(InvalidParams, match=r"^k must be in \[0, 4\], got 5$"):
            k_error_lc(PeriodicSequence(2, 0), 5)
        with pytest.raises(InvalidParams, match=r"^k must be in \[0, 4\], got -1$"):
            k_error_lc(PeriodicSequence(2, 0), -1)

    def test_pair_at_period_1024_with_four_errors(self):
        # once refused as over budget (weights 2 and 4 alone are 4.5e10
        # patterns); flipping the pair is the only way to complexity 0
        s = PeriodicSequence.from_support(10, (0, 1))
        r = k_error_lc(s, 4)
        assert (r.value, r.witness) == (0, (0, 1))

    def test_odd_weight_period_1024_with_three_errors(self):
        rng = random.Random(10)
        value = rng.getrandbits(1024)
        if value.bit_count() % 2 == 0:
            value ^= 1
        s = PeriodicSequence(10, value)
        r = k_error_lc(s, 3)
        assert len(r.witness) in (1, 3)
        flipped = s ^ PeriodicSequence.from_support(10, r.witness)
        assert lc_by_minimal_polynomial(flipped) == r.value
        assert r.value < 1024 == lc_by_minimal_polynomial(s)
        # a sparse odd period of the same size has a known answer
        s = PeriodicSequence.from_support(10, (0, 1, 2))
        r = k_error_lc(s, 3)
        assert (r.value, r.witness) == (0, (0, 1, 2))

    def test_one_fold_per_witness(self, monkeypatch):
        calls = []
        real = kerror._fold

        def counted(s, budget):
            calls.append(budget)
            return real(s, budget)

        monkeypatch.setattr(kerror, "_fold", counted)
        rng = random.Random(8)
        for _ in range(4):
            s = PeriodicSequence(8, rng.getrandbits(256))
            for k in (1, 4, 16, 64, 256):
                calls.clear()
                r = k_error_lc(s, k)
                assert calls == [k], (s.value, k, r)

    def test_canonical_witnesses_are_byte_pinned(self):
        # past brute force's reach: random, sparse and dense periods at
        # n = 5..16, every witness and (for n <= 10) every full profile
        rng = random.Random(26)
        digest = hashlib.sha256()
        for n in range(5, 17):
            period = 1 << n
            sparse = sum(1 << p for p in rng.sample(range(period), 5))
            dense = sparse ^ ((1 << period) - 1)
            for value in (rng.getrandbits(period), sparse, dense):
                s = PeriodicSequence(n, value)
                for k in (0, 1, 2, 3, 4, period // 4, period // 2, period):
                    r = k_error_lc(s, k)
                    digest.update(f"{n} {k} {r.value} {r.witness}\n".encode())
                if n <= 10:
                    digest.update(f"{k_error_profile(s, period)}\n".encode())
        assert digest.hexdigest() == (
            "e15638dca4b4992625c29a12adad8b8e8579d89944c1f8d340b28a968a1fe278"
        )

    def test_monotone_in_k(self):
        table_checked = 0
        for value in range(1 << 8):
            s = PeriodicSequence(3, value)
            last = None
            for k in range(5):
                v = k_error_lc(s, k).value
                if last is not None:
                    assert v <= last
                last = v
                table_checked += 1
        assert table_checked == 256 * 5


def _remainders(positions, m):
    """x^p mod (1 + x)^m over GF(2) for each p, as packed integers."""
    modulus = 1
    for _ in range(m):
        modulus ^= modulus << 1
    out = []
    for p in positions:
        r = 1 << p
        while r.bit_length() > m:
            r ^= modulus << (r.bit_length() - 1 - m)
        out.append(r)
    return out


def brute_profile(s: PeriodicSequence, k_max: int):
    """Independent profile oracle for k_max <= 6: an exhaustive search over
    every flip pattern, met in the middle.

    L(t) <= N - m exactly when (1 + x)^m divides the period polynomial
    t(x), the root-multiplicity criterion behind lc_by_minimal_polynomial.
    Reduction modulo (1 + x)^m is linear, so some pattern e of weight <= k
    takes s to complexity <= N - m iff e leaves the remainder of s; every
    such e is the sum of two patterns of weight <= 3.
    """
    assert k_max <= 6 and s.exponent <= 6
    period = s.period
    light = [
        np.array(list(combinations(range(period), w)), dtype=np.intp)
        for w in range(1, 4)
    ]

    def reachable(L, k):
        rem = np.array(_remainders(range(period), period - L), dtype=np.uint64)
        support = [i for i in range(period) if s.value >> i & 1]
        target = np.bitwise_xor.reduce(rem[support], initial=np.uint64(0))

        def patterns(w_max):  # remainders of every pattern of weight <= w_max
            return np.concatenate(
                [np.zeros(1, dtype=np.uint64)]
                + [np.bitwise_xor.reduce(rem[idx], axis=1) for idx in light[:w_max]]
            )

        return bool(np.isin(patterns((k + 1) // 2) ^ target, patterns(k // 2)).any())

    profile = []
    for k in range(k_max + 1):
        lo, hi = 0, period
        while lo < hi:
            mid = (lo + hi) // 2
            if reachable(mid, k):
                hi = mid
            else:
                lo = mid + 1
        profile.append((k, lo))
    return profile


class TestAgainstBruteForce:
    def test_every_sequence_up_to_n3(self):
        for n in range(4):
            for value in range(1 << (1 << n)):
                s = PeriodicSequence(n, value)
                for k in range((1 << n) + 1):
                    r = k_error_lc(s, k)
                    expected = brute_k_error(s, k)
                    assert (r.value, r.witness) == expected, (n, value, k)

    def test_seeded_samples_n4_to_n6(self):
        rng = random.Random(46)
        for n, k, trials in ((4, 4, 12), (5, 3, 6), (6, 2, 6), (6, 3, 2)):
            for _ in range(trials):
                s = PeriodicSequence(n, rng.getrandbits(1 << n))
                r = k_error_lc(s, k)
                expected = brute_k_error(s, k)
                assert (r.value, r.witness) == expected, (n, s.value, k)

    @pytest.mark.parametrize("n", [8, 10])
    def test_witness_at_the_end_of_the_period(self, n):
        period = 1 << n
        s = PeriodicSequence.from_support(n, (period - 3, period - 1))
        r = k_error_lc(s, 2)
        assert (r.value, r.witness) == (0, (period - 3, period - 1))

    def test_end_of_period_witness_matches_brute_n8(self):
        s = PeriodicSequence.from_support(8, (253, 255))
        r = k_error_lc(s, 2)
        assert (r.value, r.witness) == brute_k_error(s, 2)

    def test_profile_n6(self):
        rng = random.Random(66)
        for parity in (0, 1, 0):
            value = rng.getrandbits(64)
            if value.bit_count() % 2 != parity:
                value ^= 1 << 63
            s = PeriodicSequence(6, value)
            expected = brute_profile(s, 6)
            assert k_error_profile(s, 6) == expected, value
            # the oracle itself agrees with plain enumeration where that is cheap
            assert [v for _, v in expected[:3]] == [
                brute_k_error(s, k)[0] for k in range(3)
            ]


class TestFoldMatchesOracle:
    @staticmethod
    def _rows_match(bits, budget):
        lc, spent = stamp_martin(bits, budget)
        assert lc.shape == spent.shape == bits.shape[:-1]
        period = bits.shape[-1]
        for row, row_bits in enumerate(bits.reshape(-1, period)):
            support = np.flatnonzero(row_bits).tolist()
            s = PeriodicSequence.from_support(period.bit_length() - 1, support)
            value, fewest, _, _ = kerror._fold(s, budget)
            assert (lc.flat[row], spent.flat[row]) == (value, fewest)
            assert 0 <= lc.flat[row] <= period and 0 <= spent.flat[row] <= budget

    def test_rows_equal_single_calls_int64(self):
        rng = np.random.default_rng(31)
        for n in range(7):
            period = 1 << n
            bits = rng.integers(0, 2, (3, 8, period)).astype(bool)
            for budget in (0, 1, 2, 5, 3 * period):
                self._rows_match(bits, budget)


class TestProfile:
    def test_zero_sequence(self):
        assert k_error_profile(PeriodicSequence(3, 0), 2) == [(0, 0), (1, 0), (2, 0)]

    def test_single_one(self):
        assert k_error_profile(PeriodicSequence.from_support(4, (3,)), 2) == [
            (0, 16),
            (1, 0),
            (2, 0),
        ]

    def test_adjacent_pair(self):
        assert k_error_profile(PeriodicSequence.from_support(4, (0, 1)), 3) == [
            (0, 15),
            (1, 15),
            (2, 0),
            (3, 0),
        ]

    def test_k_max_out_of_range(self):
        s = PeriodicSequence.from_support(2, (0,))
        assert k_error_profile(s, 4)[-1] == (4, 0)
        for k_max in (-1, 5):
            with pytest.raises(InvalidParams, match=rf"^k_max must be in \[0, 4\], got {k_max}$"):
                k_error_profile(s, k_max)

    def test_matches_pointwise_calls(self):
        rng = random.Random(3)
        for _ in range(30):
            s = PeriodicSequence(3, rng.getrandbits(8))
            profile = k_error_profile(s, 4)
            assert profile == [(k, k_error_lc(s, k).value) for k in range(5)]

    def test_matches_per_k_kernel(self):
        def per_k(s):
            bits = bool_bits(s)
            return [(k, int(stamp_martin(bits, k)[0])) for k in range(s.period + 1)]

        for n in range(4):
            for value in range(1 << (1 << n)):
                s = PeriodicSequence(n, value)
                expected = per_k(s)
                for k_max in range(s.period + 1):
                    assert k_error_profile(s, k_max) == expected[: k_max + 1]
        rng = random.Random(12)
        for _ in range(20):
            s = PeriodicSequence(6, rng.getrandbits(64))
            assert k_error_profile(s, 64) == per_k(s)

    def test_one_fold_per_distinct_value(self, monkeypatch):
        budgets = []
        real = kerror._fold

        def counted(s, budget):
            budgets.append(budget)
            return real(s, budget)

        monkeypatch.setattr(kerror, "_fold", counted)
        # 15 at k = 0, 1 and 0 from k = 2: one fold per value, from k_max down
        s = PeriodicSequence.from_support(4, (0, 1))
        profile = k_error_profile(s, 16)
        assert profile == [(0, 15), (1, 15)] + [(k, 0) for k in range(2, 17)]
        assert budgets == [16, 1]
        rng = random.Random(4)
        for _ in range(10):
            budgets.clear()
            profile = k_error_profile(PeriodicSequence(8, rng.getrandbits(256)), 256)
            assert len(budgets) == len({value for _, value in profile})

    def test_never_reads_a_witness_back(self, monkeypatch):
        rng = random.Random(5)
        periods = [PeriodicSequence(n, rng.getrandbits(1 << n)) for n in range(9)]
        expected = [k_error_profile(s, s.period) for s in periods]

        def refused(s, choices, value):
            raise AssertionError("k_error_profile read a witness back")

        monkeypatch.setattr(kerror, "_read_back", refused)
        assert [k_error_profile(s, s.period) for s in periods] == expected


class TestParityIdentities:
    def test_even_weight_odd_flip_never_helps(self):
        for value in range(1 << 8):
            if value.bit_count() & 1:
                continue
            s = PeriodicSequence(3, value)
            profile = dict(k_error_profile(s, 4))
            assert profile[1] == profile[0]
            assert profile[3] == profile[2]

    def test_odd_weight_even_flip_never_helps(self):
        for value in range(1 << 8):
            if value.bit_count() & 1 == 0:
                continue
            s = PeriodicSequence(3, value)
            profile = dict(k_error_profile(s, 4))
            assert profile[2] == profile[1]
            assert profile[4] == profile[3]


class TestKMin:
    def test_formula_examples(self):
        assert k_min_formula(PeriodicSequence.from_support(4, (0,))) == 1
        assert k_min_formula(PeriodicSequence.from_support(4, (0, 1))) == 2
        assert k_min_formula(PeriodicSequence.from_support(4, (0, 12))) == 2

    def test_zero_sequence_undefined(self):
        with pytest.raises(InvalidParams, match="^complexity 0 cannot decrease$"):
            k_min_formula(PeriodicSequence(3, 0))

    def test_formula_matches_search_everywhere_n4(self):
        # the closed form agrees with the least k at which the Stamp-Martin
        # oracle lowers the complexity, on every nonzero sequence of period
        # 16; k = 16 covers the worst case 2^4.  The least such k needs no
        # parity filter: a k of the other parity reaches no more than k - 1
        values = np.arange(1, 1 << 16)
        bits = (values[:, None] >> np.arange(16) & 1).astype(bool)
        base = np.array(LC4[1:])
        found = np.zeros(len(values), dtype=np.int64)
        for k in range(1, 17):
            lowered = (stamp_martin(bits, k)[0] < base) & (found == 0)
            found[lowered] = k
        for value, k_min in zip(values.tolist(), found.tolist()):
            assert k_min == k_min_formula(PeriodicSequence(4, value)), value


def _masks_of_weights(period, weights):
    masks = []
    for w in weights:
        for combo in combinations(range(period), w):
            m = 0
            for p in combo:
                m |= 1 << p
            masks.append(m)
    return masks


class TestStability:
    # at n = 4 the complexities c with 1 <= c <= 5 split in two: for
    # c in {1,2,3,5} a small perturbation of s cannot move the k-error
    # complexity off c, while c in {4,6,7} (c = 8 - 2^m) always admits a
    # perturbation that drops strictly below c

    STABLE = (1, 2, 3, 5)
    UNSTABLE = (4, 6, 7)

    def _sequences_with(self, c):
        return [PeriodicSequence(4, v) for v in range(1 << 16) if LC4[v] == c]

    def test_two_error_complexity_pinned_under_even_perturbations(self):
        masks = _masks_of_weights(16, (0, 2))
        for c in self.STABLE:
            for s in self._sequences_with(c):
                for mask in masks:
                    perturbed = PeriodicSequence(4, s.value ^ mask)
                    assert k_error_lc(perturbed, 2).value == c, (c, s.value, mask)

    def test_unstable_complexities_drop_under_some_even_perturbation(self):
        masks = _masks_of_weights(16, (2,))
        for c in self.UNSTABLE:
            for s in self._sequences_with(c):
                assert any(
                    k_error_lc(PeriodicSequence(4, s.value ^ mask), 2).value < c
                    for mask in masks
                ), (c, s.value)

    def test_three_error_complexity_pinned_under_odd_perturbations(self):
        masks = _masks_of_weights(16, (1, 3))
        for c in self.STABLE:
            for s in self._sequences_with(c):
                for mask in masks:
                    perturbed = PeriodicSequence(4, s.value ^ mask)
                    assert k_error_lc(perturbed, 3).value == c, (c, s.value, mask)

    def test_unstable_complexities_drop_under_some_odd_perturbation(self):
        masks = _masks_of_weights(16, (1, 3))
        for c in self.UNSTABLE:
            for s in self._sequences_with(c):
                assert any(
                    k_error_lc(PeriodicSequence(4, s.value ^ mask), 3).value < c
                    for mask in masks
                ), (c, s.value)
