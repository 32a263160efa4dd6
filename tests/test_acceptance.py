"""Acceptance gate: the nine headline guarantees, one test (and line) each.

Run with `pytest tests/test_acceptance.py -v` to get one PASSED/FAILED
line per criterion; each test also prints a `criterion N PASS/FAIL`
line into its captured output.
"""

import random
import re
from contextlib import contextmanager
from itertools import combinations

from test_core import LEMMA_PRECONDITIONS
from test_kerror import k_min_by_search

from lcforge import cosets
from lcforge.census import (
    CensusQuery,
    SequenceClass,
    census_distribution,
    closed_form,
    refutation_report,
    verify_formulas,
)
from lcforge.cli import main
from lcforge.core import (
    PeriodicSequence,
    games_chan_lc,
    lc_by_minimal_polynomial,
    lc_pair,
    lc_quad,
)
from lcforge.errors import InvalidParams
from lcforge.kerror import k_error_profile, k_min_formula

ALL = SequenceClass.ALL
FULL = SequenceClass.FULL_LC
LESS = SequenceClass.LESS_LC


def class_size(n, seq_class):
    """Number of sequences of period 2^n in the class."""
    return (1 << (1 << n)) >> (seq_class.parity is not None)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL — {description}")
        raise
    print(f"criterion {number} PASS — {description}")


def test_criterion_1_period_16_three_error_census():
    with criterion(1, "exhaustive 3-error census at period 16, under 60 s"):
        report = census_distribution(CensusQuery(4, 3, ALL))
        counts = tuple(row.census for row in report.rows)
        assert counts[:16] == (
            697, 697, 1394, 2788, 2824, 8400, 4384, 2624,
            0, 23808, 8704, 5120, 0, 4096, 0, 0,
        )
        assert counts[16] == 0
        assert report.census_total == 65536
        assert report.elapsed <= 60.0


def test_criterion_2_published_table_refuted():
    with criterion(2, "published count wrong exactly at L in {4,5,6,7,10,11}"):
        report = refutation_report()
        assert report.mismatched_L == (4, 5, 6, 7, 10, 11)
        assert report.fixture_total == 158208
        assert report.fixture_total > 65536
        assert all(row.verdict != "TheoremMismatch" for row in report.rows)


def test_criterion_3_even_class_two_error_counts():
    with criterion(3, "2-error counts on the 32 768 even-weight sequences"):
        report = verify_formulas(4, 2, LESS)
        assert report.all_match
        expected = {0: 121, 1: 121, 2: 242, 3: 484, 4: 776,
                    5: 1744, 6: 2336, 7: 1600, 9: 7424, 13: 4096}
        for L, count in expected.items():
            assert report.rows[L].census == count, L
        assert report.census_total == 1 << 15


def test_criterion_4_odd_class_three_error_counts():
    with criterion(4, "3-error counts on the 32 768 odd-weight sequences"):
        report = verify_formulas(4, 3, FULL)
        assert report.all_match
        expected = {9: 16384, 4: 2048, 5: 6656, 6: 2048, 7: 1024}
        for L, count in expected.items():
            assert report.rows[L].census == count, L
        small = census_distribution(CensusQuery(3, 3, FULL))
        assert small.rows[2].census == 0


def test_criterion_5_halving_agrees_with_minimal_polynomial():
    with criterion(5, "halving and minimal-polynomial complexities agree"):
        for value in range(1 << 16):
            s = PeriodicSequence(4, value)
            assert games_chan_lc(s) == lc_by_minimal_polynomial(s), value
        rng = random.Random(20260814)
        for n in range(5, 11):
            for _ in range(10_000):
                s = PeriodicSequence(n, rng.getrandbits(1 << n))
                assert games_chan_lc(s) == lc_by_minimal_polynomial(s), (n, s.value)


def test_criterion_6_two_and_four_point_closed_forms():
    with criterion(6, "pair and quadruple closed forms match the halving oracle"):
        for n in range(1, 7):
            period = 1 << n
            for i, j in combinations(range(period), 2):
                pair = PeriodicSequence.from_support(n, (i, j))
                assert lc_pair(i, j, n) == games_chan_lc(pair), (n, i, j)
        accepted = 0
        for n in range(2, 6):
            period = 1 << n
            for a, b, c, d in combinations(range(period), 4):
                mask = (1 << a) | (1 << b) | (1 << c) | (1 << d)
                expected = games_chan_lc(PeriodicSequence(n, mask))
                for i, j, k, l in ((a, b, c, d), (a, c, b, d), (a, d, b, c)):
                    try:
                        value = lc_quad(i, j, k, l, n)
                    except InvalidParams as exc:
                        # a < b < c < d fail only the two lemma preconditions
                        assert re.match(LEMMA_PRECONDITIONS, str(exc)), exc
                        continue
                    accepted += 1
                    assert value == expected, (n, i, j, k, l)
        assert accepted > 10_000  # the sweep is far from vacuous


def test_criterion_7_parity_identities_and_first_drop():
    with criterion(7, "parity plateaus and the first-drop closed form at period 8"):
        for value in range(1 << 8):
            s = PeriodicSequence(3, value)
            levels = [lk for _, lk in k_error_profile(s, 4)]
            if s.weight() % 2 == 0:
                assert levels[1] == levels[0], value
                assert levels[3] == levels[2], value
            else:
                assert levels[2] == levels[1], value
                assert levels[4] == levels[3], value
        for value in range(1, 1 << 8):
            s = PeriodicSequence(3, value)
            assert k_min_by_search(s) == k_min_formula(s), value


def test_criterion_8_counting_totals_and_additivity():
    with criterion(8, "counting functions total the class sizes and add up"):
        served = (
            (0, ALL), (1, FULL), (2, LESS), (2, FULL), (2, ALL),
            (3, LESS), (3, FULL), (3, ALL), (4, FULL),
        )
        for n in range(2, 7):
            period = 1 << n
            for k, seq_class in served:
                fn = closed_form(k, seq_class)
                total = sum(fn(n, L) for L in range(period + 1))
                assert total == class_size(n, seq_class), (n, k, seq_class)
            for L in range(period + 1):
                for k in (2, 3):
                    less, full = closed_form(k, LESS), closed_form(k, FULL)
                    assert closed_form(k, ALL)(n, L) == less(n, L) + full(n, L)


def test_criterion_9_census_is_worker_count_invariant(capsys, monkeypatch):
    with criterion(9, "census bytes identical across --jobs 1, 4, 8 and draw blocks"):
        default = cosets._BLOCK_ROWS
        for argv, block_rows in (
            (["--n", "4", "--k", "3"], (default,)),
            (["--n", "5", "--k", "2", "--mode", "sampled", "--samples", "3000"],
             (1, 100, default)),
        ):
            printed = set()
            for rows in block_rows:
                monkeypatch.setattr(cosets, "_BLOCK_ROWS", rows)
                for jobs in ("1", "4", "8"):
                    for fmt in ("json", "csv"):
                        assert main(["census", *argv, "--jobs", jobs, "--format", fmt]) == 0
                        printed.add((fmt, capsys.readouterr().out))
            assert len(printed) == 2, argv
