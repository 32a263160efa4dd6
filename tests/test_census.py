import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from test_kerror import stamp_martin

from lcforge import cosets
from lcforge.census import (
    MAX_CENSUS_EXPONENT,
    MAX_ERRORS,
    CensusQuery,
    Sampled,
    SequenceClass,
    census_distribution,
    closed_form,
    formula_counts,
    proportion_interval,
    refutation_report,
    render,
    verify_formulas,
)
from lcforge.core import PeriodicSequence, lc_by_minimal_polynomial
from lcforge.cosets import _draws
from lcforge.cli import main
from lcforge.counting import kavuluru_table1, n3_lcfull, rueppel_count
from lcforge.errors import InvalidParams, NoFormulaAvailable


def interval_covers(
    count: int, sample_size: int, true_numerator: int, true_denominator: int
) -> bool:
    """Exact test that the three-sigma interval contains the truth.

    (c/s - a/b)^2 <= 9/s * c/s * (1 - c/s), times s^3 b^2, in integers.
    """
    c, s, a, b = count, sample_size, true_numerator, true_denominator
    return s * (c * b - a * s) ** 2 <= 9 * c * (s - c) * b * b


ALL = SequenceClass.ALL
FULL = SequenceClass.FULL_LC
LESS = SequenceClass.LESS_LC

# every (errors, class) pair served by a closed form
FORMULA_COMBOS = (
    (0, ALL),
    (1, FULL),
    (2, LESS),
    (2, FULL),
    (2, ALL),
    (3, LESS),
    (3, FULL),
    (3, ALL),
    (4, FULL),
)


def class_size(n, seq_class):
    """Number of sequences of period 2^n in the class."""
    return (1 << (1 << n)) >> (seq_class.parity is not None)


def exhaustive(n, k, seq_class):
    return census_distribution(CensusQuery(n, k, seq_class))


def cli_bytes(capsys, argv):
    """What `lcforge census` prints for argv in json and in csv."""
    printed = []
    for fmt in ("json", "csv"):
        assert main(["census", *argv, "--format", fmt]) == 0
        printed.append(capsys.readouterr().out)
    return printed


class TestQueryValidation:
    def test_rejects_big_n(self):
        with pytest.raises(InvalidParams, match="^census supports n <= 5, got 6$"):
            CensusQuery(6, 0, ALL, Sampled(10))

    def test_exhaustive_capped_below_sampled(self):
        # one ceiling serves both modes
        with pytest.raises(InvalidParams, match="^census supports n <= 5, got 6$"):
            CensusQuery(6, 0, ALL)
        CensusQuery(5, 0, ALL)  # fine
        CensusQuery(5, 0, ALL, Sampled(10))  # fine

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParams, match=r"k in \[0, 4\] at n = 4, got 5$"):
            CensusQuery(4, 5, ALL)
        with pytest.raises(InvalidParams, match=r"k in \[0, 4\] at n = 4, got -1$"):
            CensusQuery(4, -1, ALL)
        with pytest.raises(InvalidParams, match=r"k in \[0, 1\] at n = 0, got 2$"):
            CensusQuery(0, 2, ALL)  # only one bit to flip

    def test_rejects_bad_sampling(self):
        with pytest.raises(InvalidParams, match="^sample count must be at least 1$"):
            Sampled(10) and CensusQuery(4, 0, ALL, Sampled(0))
        with pytest.raises(InvalidParams, match="^seed must fit in 64 bits$"):
            CensusQuery(4, 0, ALL, Sampled(10, seed=-1))
        with pytest.raises(InvalidParams, match="^seed must fit in 64 bits$"):
            CensusQuery(4, 0, ALL, Sampled(10, seed=1 << 64))

    def test_class_size(self):
        assert ALL.parity is None
        assert FULL.parity == 1
        assert LESS.parity == 0


class TestExhaustiveCensus:
    def test_zero_errors_recovers_plain_distribution(self):
        report = exhaustive(2, 0, ALL)
        assert [row.census for row in report.rows] == [
            rueppel_count(2, L) for L in range(5)
        ]

    def test_full_class_three_errors_n3_has_no_mass_at_two(self):
        report = exhaustive(3, 3, FULL)
        assert report.rows[2].census == 0
        assert report.census_total == class_size(3, FULL) == 128

    def test_known_period_sixteen_count(self):
        query = CensusQuery(4, 3, ALL)
        report = census_distribution(query)
        assert report.query is query
        assert report.rows[5].census == 8400
        assert report.census_total == 65536
        assert report.rows[16].census == 0

    def test_classes_partition_the_census(self):
        for n in range(2, 5):
            for k in range(4):
                whole = exhaustive(n, k, ALL)
                full = exhaustive(n, k, FULL)
                less = exhaustive(n, k, LESS)
                for L in range((1 << n) + 1):
                    assert (
                        whole.rows[L].census
                        == full.rows[L].census + less.rows[L].census
                    ), (n, k, L)

    def test_worker_count_does_not_change_output(self, capsys):
        # --jobs is only checked: the census runs in-process whatever it says
        report = exhaustive(4, 3, ALL)
        expected = [report.to_json() + "\n", report.to_csv()]
        for jobs in ("1", "2"):
            argv = ["--n", "4", "--k", "3", "--jobs", jobs]
            assert cli_bytes(capsys, argv) == expected


def _kernel_lc(values, n, k):
    """L_k of each packed period by the Stamp-Martin kernel, the oracle."""
    period = 1 << n
    bits = (values[:, None] >> np.arange(period, dtype=values.dtype) & 1).astype(bool)
    return np.concatenate([
        stamp_martin(bits[i : i + 8192], k)[0]
        for i in range(0, len(values), 8192)
    ])


def _sampled_tally(monkeypatch, values, n, k, seq_class):
    """The sampled census scorer's tally of the given packed periods."""
    # _draws returns a fresh array, which the scorer transforms in place
    monkeypatch.setattr(cosets, "_draws", lambda seed, lo, hi, *_: values[lo:hi].copy())
    return cosets._sampled_tally(n, k, seq_class.parity, 0, len(values))


@pytest.fixture(scope="module")
def every_period_of_16():
    """Every period of 16, and its L_k for k = 0..4 by the kernel."""
    values = np.arange(1 << 16, dtype=np.uint64)
    return values, [_kernel_lc(values, 4, k) for k in range(5)]


class TestAgainstEveryPeriod:
    def test_weighted_census_equals_a_tally_of_every_period(self, every_period_of_16):
        # the Stamp-Martin kernel on every period of 16: the oracle for the
        # coset count, which scores no sequence
        values, lcs = every_period_of_16
        odd = np.bitwise_count(values) % 2 == 1
        for k, lc in enumerate(lcs):
            for seq_class, rows in ((ALL, slice(None)), (FULL, odd), (LESS, ~odd)):
                tally = np.bincount(lc[rows], minlength=17).tolist()
                report = exhaustive(4, k, seq_class)
                assert [row.census for row in report.rows] == tally, (k, seq_class)

    def test_sampled_scorer_equals_a_tally_of_every_period(
        self, every_period_of_16, monkeypatch
    ):
        # the nearest light coset word against the kernel, over every period
        # of each class, in blocks of _BLOCK_ROWS
        values, lcs = every_period_of_16
        odd = np.bitwise_count(values) % 2 == 1
        for k, lc in enumerate(lcs):
            for seq_class, rows in ((ALL, slice(None)), (FULL, odd), (LESS, ~odd)):
                tally = np.bincount(lc[rows], minlength=17).tolist()
                scored = _sampled_tally(monkeypatch, values[rows], 4, k, seq_class)
                assert scored == tally, (k, seq_class)


class TestFormulaJoin:
    def test_every_served_combo_matches_exhaustively(self):
        for n in range(2, 6):
            for k, seq_class in FORMULA_COMBOS:
                report = verify_formulas(n, k, seq_class)
                assert report.all_match, (n, k, seq_class)
                assert report.formula_total == report.census_total

    def test_unserved_combos_raise(self):
        served = set()
        for k in range(-1, 9):
            for seq_class in SequenceClass:
                try:
                    formula_counts(4, k, seq_class)
                except NoFormulaAvailable as exc:
                    # the refusal names the pair asked for, not one it derives from
                    assert str(exc) == (
                        f"no closed form for k={k} on class '{seq_class.value}'"
                    )
                else:
                    served.add((k, seq_class))
        assert served == set(FORMULA_COMBOS)

    def test_mismatch_is_reported_not_hidden(self):
        report = verify_formulas(3, 2, LESS)
        assert report.query == CensusQuery(3, 2, LESS)
        assert all(row.verdict == "Match" for row in report.rows)
        report.rows[2] = type(report.rows[2])(2, report.rows[2].census, 999, "Mismatch")
        assert not report.all_match


def _word_by_definition(positions, period):
    """A pattern's (1+x)^j word: a_j, the XOR of e_i over every i whose
    bits contain j's, at bit N-1-j."""
    word = 0
    for j in range(period):
        a_j = sum(1 for i in positions if i & j == j) & 1
        word |= a_j << (period - 1 - j)
    return word


class TestLightWords:
    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in range(6) for k in range(min(4, 1 << n) + 1)],
    )
    def test_words_and_parity_split_by_definition(self, n, k):
        # the words of the patterns' reflections, i -> N-1-i, which are
        # the same patterns over every weight <= k
        period = 1 << n
        by_parity = ([], [])
        for w in range(k + 1):
            for positions in combinations(range(period), w):
                word = _word_by_definition(positions, period)
                assert word >> (period - 1) == w & 1  # a_0 is the weight parity
                by_parity[w & 1].append(word)
        words = cosets._light_words(n, k, None)
        assert words.tolist() == sorted(by_parity[0] + by_parity[1])
        odd = np.searchsorted(words, np.uint64(1 << (period - 1)))
        for parity, part in enumerate((words[:odd], words[odd:])):
            assert len(part) == sum(comb(period, w) for w in range(parity, k + 1, 2))
            assert part.tolist() == sorted(by_parity[parity])

    @pytest.mark.parametrize("parity", (0, 1, None))
    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(6) for k in range(min(4, 1 << n) + 1)]
    )
    def test_parity_words_equal_the_top_bit_split(self, n, k, parity):
        # the reference splits the words of every parity at 2^(N-1): the
        # top bit, a_0, is the pattern's weight parity
        words = cosets._light_words(n, k, None)
        if parity is not None:
            odd = np.searchsorted(words, np.uint64(1 << ((1 << n) - 1)))
            words = words[odd:] if parity else words[:odd]
        got = cosets._light_words(n, k, parity)
        assert got.dtype == np.uint64
        assert got.tolist() == words.tolist()
        if parity == 1 and k == 0:
            # no odd pattern is light: every sequence sits at L = N
            period = 1 << n
            expected = [0] * period + [1 << (period - 1)]
            assert cosets._coset_tally(n, k, parity) == expected

    def test_bit_lengths_are_exact_up_to_the_census_cap(self):
        # _bit_lengths goes through float64; the census cap keeps every word
        # below 2^53, where that is exact
        for n in range(MAX_CENSUS_EXPONENT + 1):
            period = 1 << n
            top = 1 << (period - 1)
            words = sorted(
                word
                for word in {0, 1, (1 << period) - 1, top - 1, top, top + 1}
                if word < 1 << period
            )
            lengths = cosets._bit_lengths(np.array(words, dtype=np.uint64))
            assert lengths.tolist() == [word.bit_length() for word in words], n


# exact k = 4 tables at n = 5 for the two classes the paper gives no closed
# form for
PINNED_N5 = json.loads(
    (Path(__file__).parent / "data" / "census_n5_k4.json").read_text()
)


def _residues_by_division(words, m, period):
    """Each packed pattern reduced mod (1+x)^m by long division over GF(2)."""
    # C(m, i) is odd exactly when i's bits are among m's (Lucas)
    divisor = sum(1 << i for i in range(m + 1) if i & m == i)
    words = words.copy()
    for degree in range(period - 1, m - 1, -1):
        lead = (words >> np.uint64(degree)) & np.uint64(1)
        words ^= lead * np.uint64(divisor << (degree - m))
    return words


class TestPinnedN5:
    def test_tables_without_a_closed_form(self, capsys):
        all_rows, less_rows = PINNED_N5["all"], PINNED_N5["less"]
        assert [r.census for r in exhaustive(5, 4, ALL).rows] == all_rows
        assert [r.census for r in exhaustive(5, 4, LESS).rows] == less_rows
        assert sum(all_rows) == 1 << 32
        assert sum(less_rows) == 1 << 31
        # the full class has a closed form: (4, full) equals (3, full)
        assert [a - b for a, b in zip(all_rows, less_rows)] == [
            n3_lcfull(5, L) for L in range(33)
        ]
        for seq_class in ("less", "all"):
            for argv in (
                ["count", "--n", "5", "--k", "4", "--class", seq_class, "--L", "3"],
                ["verify", "--n", "5", "--k", "4", "--class", seq_class],
            ):
                assert main(argv) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err == f"error: no closed form for k=4 on class '{seq_class}'\n"

    def test_division_route_agrees(self):
        # distinct residues of the light patterns, found by long division
        # rather than Lucas coordinates: #{L_k <= c} = 2^c * residues
        period = 32
        for seq_class, parity in ((ALL, None), (LESS, 0)):
            words = np.array(
                [
                    sum(1 << p for p in combo)
                    for w in range(5)
                    if parity is None or w % 2 == parity
                    for combo in combinations(range(period), w)
                ],
                dtype=np.uint64,
            )
            at_most = [
                (1 << c)
                * len(np.unique(_residues_by_division(words, period - c, period)))
                for c in range(period)
            ] + [class_size(5, seq_class)]
            rows = [at_most[0]] + [b - a for a, b in zip(at_most, at_most[1:])]
            assert rows == PINNED_N5[seq_class.value], seq_class


class TestSampledCensus:
    def test_total_equals_draw_count(self):
        query = CensusQuery(4, 1, ALL, Sampled(500, seed=3))
        report = census_distribution(query)
        assert report.query is query
        assert report.census_total == 500
        assert report.query.mode.count == 500

    def test_same_seed_same_rows(self):
        a = census_distribution(CensusQuery(4, 2, ALL, Sampled(256, seed=11)))
        b = census_distribution(CensusQuery(4, 2, ALL, Sampled(256, seed=11)))
        assert a.to_json() == b.to_json()

    def test_different_seed_different_rows(self):
        a = census_distribution(CensusQuery(4, 2, ALL, Sampled(512, seed=0)))
        b = census_distribution(CensusQuery(4, 2, ALL, Sampled(512, seed=1)))
        assert [r.census for r in a.rows] != [r.census for r in b.rows]

    def test_worker_count_does_not_change_sample(self, capsys):
        report = census_distribution(CensusQuery(4, 3, ALL, Sampled(1000, seed=9)))
        expected = [report.to_json() + "\n", report.to_csv()]
        for jobs in ("1", "3"):
            argv = [
                "--n", "4", "--k", "3", "--mode", "sampled", "--samples", "1000",
                "--seed", "9", "--jobs", jobs,
            ]
            assert cli_bytes(capsys, argv) == expected

    def test_draw_blocks_do_not_change_output(self, monkeypatch):
        # blocks bound the temporaries only: every draw is tallied on its own
        def census_bytes(query):
            report = census_distribution(query)
            return report.to_json() + report.to_csv()

        queries = [
            CensusQuery(5, 3, seq_class, Sampled(20_000, seed=6))
            for seq_class in SequenceClass
        ]
        default = [census_bytes(query) for query in queries]
        for rows in (7, 1000):
            monkeypatch.setattr(cosets, "_BLOCK_ROWS", rows)
            assert [census_bytes(query) for query in queries] == default, rows

    def test_draws_are_pinned(self):
        # the stream is blake2b-8 of (seed, index), both 8 bytes big-endian
        assert _draws(2024, 0, 3, 5, None).tolist() == [0x83E5712, 0x4AC7EB65, 0x911699B2]
        assert _draws(2024, 9999, 10000, 5, None).tolist() == [0x925C455F]
        assert _draws(2024, 0, 3, 4, 1).tolist() == [0x5712, 0x6B65, 0x19B2]
        assert _draws(2024, 1, 3, 3, 0).tolist() == [0x65, 0xB2]
        values = _draws(5, 0, 500, 4, 1)
        assert (np.bitwise_count(values) % 2 == 1).all()
        assert _draws(5, 100, 200, 4, 1).tolist() == values[100:200].tolist()

    def test_class_draws_respect_the_class(self):
        # with no errors allowed, every odd-weight draw sits at full complexity
        report = census_distribution(CensusQuery(4, 0, FULL, Sampled(300, seed=5)))
        assert report.rows[16].census == 300
        report = census_distribution(CensusQuery(4, 0, LESS, Sampled(300, seed=5)))
        assert report.rows[16].census == 0
        assert report.census_total == 300

    def test_n5_smoke(self):
        report = census_distribution(CensusQuery(5, 4, ALL, Sampled(200, seed=2)))
        assert len(report.rows) == 33
        assert report.census_total == 200

    @pytest.mark.parametrize("k, draws", [(2, 64), (3, 8)])
    def test_n5_matches_brute_force_over_the_same_draws(self, k, draws):
        seed = 17
        masks = [0] + [
            sum(1 << p for p in combo)
            for w in range(1, k + 1)
            for combo in combinations(range(32), w)
        ]
        for seq_class in (ALL, FULL, LESS):
            query = CensusQuery(5, k, seq_class, Sampled(draws, seed))
            tally = [0] * 33
            for value in _draws(seed, 0, draws, 5, seq_class.parity).tolist():
                tally[
                    min(
                        lc_by_minimal_polynomial(PeriodicSequence(5, value ^ mask))
                        for mask in masks
                    )
                ] += 1
            rows = census_distribution(query).rows
            assert [row.census for row in rows] == tally, seq_class

    def test_n5_matches_the_kernel_over_the_same_draws(self):
        seed, draws = 23, 4096
        for seq_class in (ALL, FULL, LESS):
            values = _draws(seed, 0, draws, 5, seq_class.parity)
            for k in range(5):
                tally = np.bincount(_kernel_lc(values, 5, k), minlength=33).tolist()
                query = CensusQuery(5, k, seq_class, Sampled(draws, seed))
                rows = census_distribution(query).rows
                assert [row.census for row in rows] == tally, (k, seq_class)

    def test_intervals_cover_the_exact_proportions(self):
        # the three-sigma band should capture the truth essentially always
        draws, hits, trials = 4096, 0, 0
        truth = [closed_form(3, ALL)(4, L) for L in range(17)]
        for seed in range(100):
            query = CensusQuery(4, 3, ALL, Sampled(draws, seed=seed))
            for row in census_distribution(query).rows:
                trials += 1
                hits += interval_covers(row.census, draws, truth[row.L], 65536)
        assert hits / trials >= 0.99

    def test_interval_maths(self):
        lo, hi = proportion_interval(0, 100)
        assert (lo, hi) == (0.0, 0.0)
        lo, hi = proportion_interval(50, 100)
        assert 0.0 < lo < 0.5 < hi < 1.0
        assert interval_covers(0, 100, 0, 1)
        assert not interval_covers(0, 100, 1, 2)

    def test_interval_covers_equals_the_rational_test(self):
        def rational(c, s, a, b):
            p_hat, p = Fraction(c, s), Fraction(a, b)
            return (p_hat - p) ** 2 <= Fraction(9, s) * p_hat * (1 - p_hat)

        cases = [
            (c, s, a, b)
            for s in range(1, 25)
            for c in range(s + 1)
            for b in (1, 2, 3, 7, 16)
            for a in range(b + 1)
        ]
        rng = random.Random(3)
        for _ in range(2000):
            s, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
            c, a = rng.randint(0, s), rng.randint(0, b)
            if rng.random() < 0.5:  # next to the estimate, where the bound bites
                a = min(max(c * b // s + rng.randint(-2, 2), 0), b)
            cases.append((c, s, a, b))
        hits = 0
        for case in cases:
            hits += interval_covers(*case)
            assert interval_covers(*case) == rational(*case), case
        assert 0 < hits < len(cases)


class TestSerialisation:
    def test_csv_header_and_shape(self):
        report = exhaustive(2, 0, ALL)
        lines = report.to_csv().splitlines()
        assert lines[0] == "L,census,formula,verdict"
        assert lines[1] == "0,1,,"
        assert len(lines) == 6

    def test_json_round_trips_byte_identically(self):
        for report in (
            exhaustive(3, 2, FULL),
            census_distribution(CensusQuery(4, 1, ALL, Sampled(64, seed=1))),
            verify_formulas(3, 2, LESS),
        ):
            text = report.to_json()
            assert render("json", json.loads(text)) == text

    def test_csv_cells(self):
        # None is empty, a list joins its items with spaces, the rest is str
        rows = [{"a": None, "b": [1, 20], "c": "x"}, {"a": 0, "b": [], "c": 5}]
        text = render("csv", {"rows": rows})
        assert text == "a,b,c\n,1 20,x\n0,,5\n"

    def test_csv_is_the_rows_or_the_payload_as_one_row(self):
        payload = {"n": 2, "rows": [{"L": 0, "census": 3, "interval": [0.5, 1.0]}]}
        assert render("json", payload) == json.dumps(payload, sort_keys=True, indent=2)
        # the JSON-only interval is no column
        assert render("csv", payload) == "L,census\n0,3\n"
        row = {"n": 4, "witness": [1, 6], "formula": None}
        assert render("csv", row) == "n,witness,formula\n4,1 6,\n"

    def test_reports_render_their_payload(self, report):
        sampled = census_distribution(CensusQuery(3, 1, LESS, Sampled(32, seed=2)))
        for each in (sampled, verify_formulas(3, 2, LESS), report):
            payload = each.payload()
            assert each.to_json() == render("json", payload)
            assert each.to_csv() == render("csv", payload)

    def test_stable_json_excludes_timing(self):
        report = exhaustive(2, 1, ALL)
        assert "elapsed_seconds" not in json.loads(report.to_json())
        report.elapsed = 123.0
        assert report.to_json() == exhaustive(2, 1, ALL).to_json()

    def test_sampled_json_carries_intervals_and_mode(self):
        report = census_distribution(CensusQuery(4, 2, ALL, Sampled(128, seed=4)))
        payload = json.loads(report.to_json())
        assert payload["mode"] == {"kind": "sampled", "count": 128, "seed": 4}
        assert all("interval" in row for row in payload["rows"])
        exhaustive_payload = json.loads(exhaustive(2, 0, ALL).to_json())
        assert exhaustive_payload["mode"] == {"kind": "exhaustive"}
        assert all("interval" not in row for row in exhaustive_payload["rows"])

    def test_every_report_is_byte_pinned(self):
        # every census query's JSON and CSV, then the refutation's
        digest = hashlib.sha256()
        for n in range(6):
            for k in range(min(MAX_ERRORS, 1 << n) + 1):
                for seq_class in SequenceClass:
                    for mode in (None, Sampled(300, 7), Sampled(9000, 0)):
                        query = CensusQuery(n, k, seq_class, mode)
                        report = census_distribution(query)
                        digest.update((report.to_json() + report.to_csv()).encode())
        report = refutation_report()
        digest.update((report.to_json() + report.to_csv()).encode())
        assert digest.hexdigest() == (
            "aa487026a2ce06211de0a9eb6d95083d36b05db32316a9733d148515ae83f617"
        )


@pytest.fixture(scope="module")
def report():
    return refutation_report()


class TestRefutation:
    def test_census_and_theorem_account_for_every_sequence(self, report):
        assert report.census_total == 65536
        assert report.theorem_total == 65536
        assert all(row.verdict != "TheoremMismatch" for row in report.rows)
        assert [row.theorem for row in report.rows] == formula_counts(4, 3, ALL)[:16]

    def test_fixture_overcounts(self, report):
        assert report.fixture_total == 158208
        assert report.fixture_total == sum(kavuluru_table1(L) for L in range(16))

    def test_disagreement_set(self, report):
        assert report.mismatched_L == (4, 5, 6, 7, 10, 11)
        for row in report.rows:
            expected = "FixtureWrong" if row.L in report.mismatched_L else "Match"
            assert row.verdict == expected

    def test_serialisation(self, report):
        assert report.query == CensusQuery(4, 3, ALL)
        lines = report.to_csv().splitlines()
        assert lines[0] == "L,census,theorem,fixture,verdict"
        assert len(lines) == 17
        text = report.to_json()
        assert render("json", json.loads(text)) == text
        payload = json.loads(text)
        assert payload["mismatched_L"] == [4, 5, 6, 7, 10, 11]
        assert "elapsed" not in text

    def test_theorem_mismatch_is_reported(self, monkeypatch):
        def skewed(n, k, seq_class):
            counts = formula_counts(n, k, seq_class)
            counts[8] += 1
            return counts

        monkeypatch.setattr("lcforge.census.formula_counts", skewed)
        report = refutation_report()
        assert [row.theorem for row in report.rows] == skewed(4, 3, ALL)[:16]
        assert report.mismatched_L == (4, 5, 6, 7, 10, 11)
        for row in report.rows:
            if row.L == 8:
                expected = "TheoremMismatch"
            elif row.L in report.mismatched_L:
                expected = "FixtureWrong"
            else:
                expected = "Match"
            assert row.verdict == expected
