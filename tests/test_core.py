import random
import re
from itertools import combinations, product

import pytest

from lcforge.core import (
    PeriodicSequence,
    games_chan_lc,
    lc_by_minimal_polynomial,
    lc_pair,
    lc_quad,
    parse_binary,
    parse_hex,
)
from lcforge.errors import InvalidParams

# the messages of lc_quad's two lemma preconditions, the checks that
# remain once positions are distinct, in range and ordered
LEMMA_PRECONDITIONS = r"k - i must be odd|gaps j - i and l - k both odd"

# complexity of every packed period, by the halving recurrence
LC3 = [games_chan_lc(PeriodicSequence(3, value)) for value in range(1 << 8)]
LC4 = [games_chan_lc(PeriodicSequence(4, value)) for value in range(1 << 16)]


class TestPeriodicSequence:
    def test_period_and_validation(self):
        assert PeriodicSequence(4, 0).period == 16
        assert PeriodicSequence(0, 1).period == 1
        with pytest.raises(InvalidParams, match=r"^exponent must be in \[0, 20\], got 21$"):
            PeriodicSequence(21, 0)
        with pytest.raises(InvalidParams, match=r"^exponent must be in \[0, 20\], got -1$"):
            PeriodicSequence(-1, 0)
        with pytest.raises(InvalidParams, match="^packed value does not fit in one period"):
            PeriodicSequence(2, 16)  # five bits do not fit a period of 4
        with pytest.raises(InvalidParams, match="^packed value does not fit in one period"):
            PeriodicSequence(2, -1)

    def test_from_support(self):
        s = PeriodicSequence.from_support(4, (0, 12))
        assert s.value == 1 | 1 << 12
        assert s.weight() == 2
        with pytest.raises(InvalidParams, match="position 16 outside"):
            PeriodicSequence.from_support(4, (16,))
        with pytest.raises(InvalidParams, match="position -1 outside"):
            PeriodicSequence.from_support(4, (-1,))
        with pytest.raises(InvalidParams, match="position 3 listed twice"):
            PeriodicSequence.from_support(4, (3, 3))

    def test_conversions_match_positionwise_definitions(self):
        rng = random.Random(8)
        cases = [PeriodicSequence(n, v) for n in range(4) for v in range(1 << (1 << n))]
        cases += [PeriodicSequence(n, rng.getrandbits(1 << n)) for n in range(4, 9)]
        for s in cases:
            digits = format(s.value, f"0{s.period}b")[::-1]  # position 0 first
            support = [i for i, digit in enumerate(digits) if digit == "1"]
            assert len(support) == s.weight()
            assert PeriodicSequence.from_support(s.exponent, support[::-1]) == s

    def test_conversions_round_trip_at_n20(self):
        s = PeriodicSequence(20, random.Random(20).getrandbits(1 << 20))
        digits = format(s.value, f"0{s.period}b")[::-1]  # position 0 first
        support = [i for i, digit in enumerate(digits) if digit == "1"]
        assert len(digits) == 1 << 20 and digits.count("1") == len(support) == s.weight()
        assert PeriodicSequence.from_support(20, support) == s
        assert PeriodicSequence.from_support(20, support[::-1]) == s


class TestParse:
    def test_binary_positions(self):
        s = parse_binary("1100000000000000", 4)
        assert s.value == 0b11

    def test_hex_is_msb_first(self):
        assert parse_hex("C000", 4).value == 0b11
        assert parse_hex("8000", 4).value == 1
        assert parse_hex("0001", 4).value == 1 << 15

    def test_binary_and_hex_agree(self):
        assert parse_hex("C000", 4) == parse_binary("1100000000000000", 4)
        assert parse_hex("6", 2) == parse_binary("0110", 2)

    def test_bad_digits(self):
        with pytest.raises(InvalidParams, match="'2' at index 2 is not 0/1$"):
            parse_binary("0120", 2)
        with pytest.raises(InvalidParams, match="'g' at index 1 is not a hex digit$"):
            parse_hex("0g10", 4)
        with pytest.raises(InvalidParams, match="' ' at index 0 is not a hex digit$"):
            parse_hex(" 1", 3)  # whitespace is the caller's problem
        with pytest.raises(InvalidParams, match="'-' at index 0 is not a hex digit$"):
            parse_hex("-1", 3)

    def test_int_literal_syntax_is_not_binary(self):
        # int() accepts "_", a sign and surrounding whitespace; the parser
        # must not, and must name the first offending index
        for text, index in (("1_01", 1), ("+101", 0), ("10 1", 2)):
            with pytest.raises(InvalidParams, match=f"at index {index} is not 0/1"):
                parse_binary(text, 2)

    def test_parsers_match_support_route(self):
        # one seeded period per n, read back through the positions of its ones
        rng = random.Random(21)
        for n in range(21):
            bits = format(rng.getrandbits(1 << n), f"0{1 << n}b")
            expected = PeriodicSequence.from_support(
                n, [i for i, bit in enumerate(bits) if bit == "1"]
            )
            assert parse_binary(bits, n) == expected
            if n < 2:
                continue
            # each hex digit spells four positions, most significant first
            digits = "".join(f"{int(bits[i:i + 4], 2):x}" for i in range(0, 1 << n, 4))
            assert parse_hex(digits, n) == expected
            assert parse_hex(digits.upper(), n) == expected

    def test_binary_equals_int_of_the_reversed_text(self):
        rng = random.Random(22)
        for n in range(21):
            texts = ["0" * (1 << n), "1" * (1 << n)]
            texts += [format(rng.getrandbits(1 << n), f"0{1 << n}b") for _ in range(3)]
            if n <= 3:
                texts += ["".join(bits) for bits in product("01", repeat=1 << n)]
            for text in texts:
                assert parse_binary(text, n).value == int(text[::-1], 2), (n, text)

    @pytest.mark.parametrize(
        "parse, digits, name, exponents",
        [
            (parse_binary, "01", "0/1", range(4)),
            (parse_hex, "0123456789abcdefABCDEF", "a hex digit", range(2, 5)),
        ],
        ids=["binary", "hex"],
    )
    def test_every_bad_character_at_every_index(self, parse, digits, name, exponents):
        # every ASCII character outside the format, and non-ASCII ones that
        # int() reads as digits or a decoder leaves behind
        bad = [chr(c) for c in range(128) if chr(c) not in digits]
        bad += ["١", "１", "\x80", "�"]
        rng = random.Random(23)
        for n in exponents:
            length = (1 << n) // (4 if parse is parse_hex else 1)
            valid = "".join(rng.choice(digits) for _ in range(length))
            for index in range(length):
                for char in bad:
                    text = valid[:index] + char + valid[index + 1:]
                    with pytest.raises(InvalidParams) as caught:
                        parse(text, n)
                    message = f"character {char!r} at index {index} is not {name}"
                    assert str(caught.value) == message

    def test_every_short_hex_string(self):
        # n = 2 is a lone digit, padded to a whole byte before decoding
        for n, length in ((2, 1), (3, 2)):
            for chars in product("0123456789abcdefABCDEF", repeat=length):
                text = "".join(chars)
                bits = "".join(f"{int(c, 16):04b}" for c in text)
                assert parse_hex(text, n) == parse_binary(bits, n)

    @pytest.mark.parametrize(
        "parse, text, n, message",
        [
            # digits that int() reads but the format does not allow
            (parse_binary, "01١0", 2, "character '١' at index 2 is not 0/1"),
            (parse_binary, "１000", 2, "character '１' at index 0 is not 0/1"),
            (parse_hex, "1١", 3, "character '١' at index 1 is not a hex digit"),
            (parse_hex, "１0", 3, "character '１' at index 0 is not a hex digit"),
            # fromhex() skips a space between bytes and would return 3 bytes
            (parse_hex, "12 34 56", 5, "character ' ' at index 2 is not a hex digit"),
            (parse_binary, "01\x000", 2, "character '\\x00' at index 2 is not 0/1"),
            (parse_hex, "a\x00", 3, "character '\\x00' at index 1 is not a hex digit"),
            # int() takes a base prefix
            (parse_hex, "0x12", 4, "character 'x' at index 1 is not a hex digit"),
            (parse_binary, "0b10", 2, "character 'b' at index 1 is not 0/1"),
        ],
    )
    def test_rejects_what_int_and_fromhex_accept(self, parse, text, n, message):
        with pytest.raises(InvalidParams) as caught:
            parse(text, n)
        assert str(caught.value) == message

    def test_hex_needs_period_four(self):
        with pytest.raises(InvalidParams, match="^hex input needs a period of at least 4"):
            parse_hex("1", 1)
        with pytest.raises(InvalidParams, match="^expected 4 binary characters, got 3$"):
            parse_binary("111", 2)

    def test_exponent_out_of_range(self):
        # checked before anything else, so 2^exponent is never computed
        for parse in (parse_binary, parse_hex):
            for exponent in (21, -1, 100_000):
                with pytest.raises(InvalidParams, match=r"^exponent must be in \[0, 20\]"):
                    parse("01", exponent)


class TestAddAndHalve:
    def test_add_is_xor(self):
        a = PeriodicSequence.from_support(2, (0, 1))
        b = PeriodicSequence.from_support(2, (1, 2))
        assert (a ^ b).value == 0b0101
        assert (a ^ a).value == 0

    def test_add_rejects_period_mismatch(self):
        with pytest.raises(InvalidParams, match=r"^cannot add periods 2\^2 and 2\^3$"):
            PeriodicSequence(2, 0) ^ PeriodicSequence(3, 0)



class TestGamesChan:
    def test_examples(self):
        assert games_chan_lc(PeriodicSequence(4, 0)) == 0
        assert games_chan_lc(PeriodicSequence.from_support(4, (0,))) == 16
        assert games_chan_lc(PeriodicSequence.from_support(4, (0, 1))) == 15
        assert games_chan_lc(PeriodicSequence.from_support(4, (0, 12))) == 12

    def test_period_one(self):
        assert games_chan_lc(PeriodicSequence(0, 0)) == 0
        assert games_chan_lc(PeriodicSequence(0, 1)) == 1

    def test_equal_halves_collapse(self):
        # when the halves agree the complexity is carried entirely by the
        # half, hence bounded by half the period
        for value in range(1 << 8):
            s = PeriodicSequence(4, value | value << 8)
            assert games_chan_lc(s) == games_chan_lc(PeriodicSequence(3, value))
            assert games_chan_lc(s) <= 8


class TestMinimalPolynomialOracle:
    def test_examples(self):
        assert lc_by_minimal_polynomial(PeriodicSequence(3, 0)) == 0
        assert lc_by_minimal_polynomial(PeriodicSequence.from_support(4, (0, 1, 2, 3))) == 13
        s = PeriodicSequence.from_support(4, (0, 1))
        assert lc_by_minimal_polynomial(s) == games_chan_lc(s) == 15

    def test_agrees_with_games_chan_exhaustively(self):
        for n in range(4):
            for value in range(1 << (1 << n)):
                s = PeriodicSequence(n, value)
                assert games_chan_lc(s) == lc_by_minimal_polynomial(s)

    def test_agrees_with_games_chan_randomly(self):
        rng = random.Random(0xC0DE)
        for n in (5, 6, 7, 8):
            for _ in range(500):
                s = PeriodicSequence(n, rng.getrandbits(1 << n))
                assert games_chan_lc(s) == lc_by_minimal_polynomial(s)

    def test_full_complexity_iff_odd_weight(self):
        for value in range(1 << 16):
            full = LC4[value] == 16
            assert full == (value.bit_count() & 1 == 1)

    def test_sum_of_two_sequences(self):
        # unequal complexities force the max; equal complexities cancel
        # the leading behaviour and land strictly lower
        for a in range(1, 1 << 8):
            for b in range(1, 1 << 8):
                la, lb, lab = LC3[a], LC3[b], LC3[a ^ b]
                if la != lb:
                    assert lab == max(la, lb)
                else:
                    assert lab < la


class TestClosedForms:
    def test_lc_pair_examples(self):
        assert lc_pair(0, 1, 4) == 15
        assert lc_pair(0, 8, 4) == 8
        assert lc_pair(3, 15, 4) == 12
        s = PeriodicSequence.from_support(4, (3, 15))
        assert games_chan_lc(s) == 12

    def test_lc_pair_validation(self):
        with pytest.raises(InvalidParams, match="^need 0 <= i < j < 16, got i=1, j=1$"):
            lc_pair(1, 1, 4)
        with pytest.raises(InvalidParams, match="^need 0 <= i < j < 16, got i=2, j=1$"):
            lc_pair(2, 1, 4)
        with pytest.raises(InvalidParams, match="^need 0 <= i < j < 16, got i=0, j=16$"):
            lc_pair(0, 16, 4)
        with pytest.raises(InvalidParams, match="^need 0 <= i < j < 16, got i=-1, j=3$"):
            lc_pair(-1, 3, 4)

    def test_lc_pair_matches_games_chan(self):
        for n in range(1, 7):
            for i, j in combinations(range(1 << n), 2):
                s = PeriodicSequence(n, 1 << i | 1 << j)
                assert lc_pair(i, j, n) == games_chan_lc(s), (n, i, j)

    def test_lc_quad_examples(self):
        assert lc_quad(0, 4, 1, 13, 4) == 11
        s = PeriodicSequence.from_support(4, (0, 1, 4, 13))
        assert games_chan_lc(s) == 11
        assert lc_quad(0, 2, 1, 5, 4) == 14

    def test_lc_quad_validation(self):
        with pytest.raises(InvalidParams, match="^k - i must be odd, got 4$"):
            lc_quad(0, 2, 4, 6, 4)
        with pytest.raises(InvalidParams, match="^positions must be distinct"):
            lc_quad(0, 2, 2, 5, 4)
        with pytest.raises(InvalidParams, match="^need i < j and i < k < l$"):
            lc_quad(0, 2, 5, 3, 4)  # k < l violated
        with pytest.raises(InvalidParams, match="^need i < j and i < k < l$"):
            lc_quad(2, 0, 3, 5, 4)  # i < j violated
        with pytest.raises(InvalidParams, match=r"^positions must lie in \[0, 16\)$"):
            lc_quad(0, 16, 1, 5, 4)

    def test_lc_quad_rejects_cancelling_odd_gaps(self):
        # {0,1,2,3} split as {0,3} and {1,2}: both gaps odd, sum 4; the
        # closed form would say 2 but the true complexity is 1.  The
        # equal-parity regrouping {0,2} + {1,3} is accepted and exact.
        with pytest.raises(InvalidParams, match="regroup the pairs by position parity$"):
            lc_quad(0, 3, 1, 2, 2)
        assert lc_quad(0, 2, 1, 3, 2) == 1
        assert games_chan_lc(PeriodicSequence.from_support(2, (0, 1, 2, 3))) == 1

    def test_lc_quad_matches_games_chan(self):
        # every labelling lc_quad accepts must agree with Games-Chan, and
        # every support of mixed parity must have an accepted labelling
        checked = 0
        for n in range(2, 6):
            for quad in combinations(range(1 << n), 4):
                mask = 0
                for p in quad:
                    mask |= 1 << p
                expected = games_chan_lc(PeriodicSequence(n, mask))
                accepted = 0
                i = quad[0]
                for j in quad[1:]:
                    k, l = sorted(set(quad) - {i, j})
                    try:
                        got = lc_quad(i, j, k, l, n)
                    except InvalidParams as exc:
                        # sorted, distinct, in-range positions fail only
                        # the two lemma preconditions
                        assert re.match(LEMMA_PRECONDITIONS, str(exc)), exc
                        continue
                    assert got == expected, (n, i, j, k, l)
                    accepted += 1
                # two even and two odd positions always admit the
                # equal-parity regrouping, so the closed form covers them
                if sum(p & 1 for p in quad) == 2:
                    assert accepted > 0, quad
                checked += accepted
        assert checked > 50_000
