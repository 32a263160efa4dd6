import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from lcforge import census, cosets
from lcforge.census import (
    CensusQuery,
    Exhaustive,
    Sampled,
    SequenceClass,
    census_distribution,
    class_size,
    closed_form,
    formula_counts,
    interval_covers,
    proportion_interval,
    refutation_report,
    render_csv,
    render_json,
    verify_formulas,
)
from lcforge.core import PeriodicSequence, lc_by_minimal_polynomial
from lcforge.cosets import _draws
from lcforge.cli import main
from lcforge.counting import kavuluru_table1, n3_lcfull, rueppel_count
from lcforge.errors import InvalidParams, NoFormulaAvailable, TooLarge
from lcforge.kerror import _stamp_martin

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


def exhaustive(n, k, seq_class):
    return census_distribution(CensusQuery(n, k, seq_class, Exhaustive()))


def cli_bytes(capsys, argv):
    """What `lcforge census` prints for argv in json and in csv."""
    printed = []
    for fmt in ("json", "csv"):
        assert main(["census", *argv, "--format", fmt]) == 0
        printed.append(capsys.readouterr().out)
    return printed


class TestQueryValidation:
    def test_rejects_big_n(self):
        with pytest.raises(TooLarge):
            CensusQuery(6, 0, ALL, Sampled(10))

    def test_exhaustive_capped_below_sampled(self):
        # one ceiling serves both modes
        with pytest.raises(TooLarge):
            CensusQuery(6, 0, ALL, Exhaustive())
        CensusQuery(5, 0, ALL, Exhaustive())  # fine
        CensusQuery(5, 0, ALL, Sampled(10))  # fine

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParams):
            CensusQuery(4, 5, ALL, Exhaustive())
        with pytest.raises(InvalidParams):
            CensusQuery(4, -1, ALL, Exhaustive())
        with pytest.raises(InvalidParams):
            CensusQuery(0, 2, ALL, Exhaustive())  # only one bit to flip

    def test_rejects_bad_sampling(self):
        with pytest.raises(InvalidParams):
            Sampled(10) and CensusQuery(4, 0, ALL, Sampled(0))
        with pytest.raises(InvalidParams):
            CensusQuery(4, 0, ALL, Sampled(10, seed=-1))
        with pytest.raises(InvalidParams):
            CensusQuery(4, 0, ALL, Sampled(10, seed=1 << 64))

    def test_class_size(self):
        assert class_size(4, ALL) == 65536
        assert class_size(4, FULL) == 32768
        assert class_size(4, LESS) == 32768
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
        report = exhaustive(4, 3, ALL)
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
    unit = np.ones(bits.shape, dtype=np.int64)
    return np.concatenate([
        _stamp_martin(bits[i : i + 8192], unit[i : i + 8192], k)[0]
        for i in range(0, len(values), 8192)
    ])


def _sampled_tally(monkeypatch, values, n, k, seq_class):
    """The sampled census scorer's tally of the given packed periods."""
    # _draws returns a fresh array, which the scorer transforms in place
    monkeypatch.setattr(cosets, "_draws", lambda seed, lo, hi, *_: values[lo:hi].copy())
    return cosets._sampled_tally(n, k, seq_class, 0, len(values))


@pytest.fixture(scope="module")
def every_period_of_16():
    """Every period of 16, and its L_k for k = 0..4 by the kernel."""
    values = np.arange(1 << 16, dtype=np.uint64)
    return values, [_kernel_lc(values, 4, k) for k in range(5)]


class TestOrbits:
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

    def test_shard_scorer_equals_a_tally_of_every_period(
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
        assert all(row.verdict == "Match" for row in report.rows)
        report.rows[2] = type(report.rows[2])(2, report.rows[2].census, 999, "Mismatch")
        assert not report.all_match


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
        report = census_distribution(CensusQuery(4, 1, ALL, Sampled(500, seed=3)))
        assert report.census_total == 500
        assert report.sample_size == 500

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
        assert _draws(2024, 0, 3, 5, ALL).tolist() == [0x83E5712, 0x4AC7EB65, 0x911699B2]
        assert _draws(2024, 9999, 10000, 5, ALL).tolist() == [0x925C455F]
        assert _draws(2024, 0, 3, 4, FULL).tolist() == [0x5712, 0x6B65, 0x19B2]
        assert _draws(2024, 1, 3, 3, LESS).tolist() == [0x65, 0xB2]
        values = _draws(5, 0, 500, 4, FULL)
        assert (np.bitwise_count(values) % 2 == 1).all()
        assert _draws(5, 100, 200, 4, FULL).tolist() == values[100:200].tolist()

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
            for value in _draws(seed, 0, draws, 5, seq_class).tolist():
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
            values = _draws(seed, 0, draws, 5, seq_class)
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
            assert render_json(json.loads(text)) == text

    def test_csv_cells(self):
        # None is empty, a list joins its items with spaces, the rest is str
        text = render_csv(("a", "b", "c"), [(None, [1, 20], "x"), (0, [], 5)])
        assert text == "a,b,c\n,1 20,x\n0,,5\n"
        assert render_csv(("k", "Lk"), []) == "k,Lk\n"

    def test_render_csv_is_the_rows_or_the_payload_as_one_row(self):
        payload = {"n": 2, "rows": [{"L": 0, "census": 3, "interval": [0.5, 1.0]}]}
        assert census.render("json", payload) == render_json(payload)
        # the JSON-only interval is no column
        assert census.render("csv", payload) == "L,census\n0,3\n"
        row = {"n": 4, "witness": [1, 6], "formula": None}
        assert census.render("csv", row) == "n,witness,formula\n4,1 6,\n"

    def test_reports_render_their_payload(self, report):
        sampled = census_distribution(CensusQuery(3, 1, LESS, Sampled(32, seed=2)))
        for each in (sampled, verify_formulas(3, 2, LESS), report):
            payload = each.payload()
            assert each.to_json() == census.render("json", payload)
            assert each.to_csv() == census.render("csv", payload)

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


@pytest.fixture(scope="module")
def report():
    return refutation_report()


class TestRefutation:
    def test_census_and_theorem_account_for_every_sequence(self, report):
        assert report.census_total == 65536
        assert report.theorem_total == 65536
        assert all(row.verdict != "TheoremMismatch" for row in report.rows)

    def test_fixture_overcounts(self, report):
        assert report.fixture_total == 158208
        assert report.fixture_total == sum(kavuluru_table1(L) for L in range(16))

    def test_disagreement_set(self, report):
        assert report.mismatched_L == (4, 5, 6, 7, 10, 11)
        for row in report.rows:
            expected = "FixtureWrong" if row.L in report.mismatched_L else "Match"
            assert row.verdict == expected

    def test_serialisation(self, report):
        lines = report.to_csv().splitlines()
        assert lines[0] == "L,census,theorem,fixture,verdict"
        assert len(lines) == 17
        text = report.to_json()
        assert render_json(json.loads(text)) == text
        payload = json.loads(text)
        assert payload["mismatched_L"] == [4, 5, 6, 7, 10, 11]
        assert "elapsed" not in text
