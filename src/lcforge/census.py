"""Exhaustive and sampled censuses of k-error complexity distributions.

A census tallies, for every complexity value L, how many sequences of
period N = 2^n have k-error linear complexity exactly L — either over
all sequences or restricted to one weight-parity class; n <= 5.

Exhaustive censuses score no sequence.  L(s) is N minus the multiplicity
of (1+x) in s(x), so the periods with L <= c are the 2^c multiples of
(1+x)^(N-c), and L_k(s) <= c holds exactly when some error pattern of
weight <= k is congruent to s modulo (1+x)^(N-c).  The census counts the
residues that light patterns reach, for every c at once, in the calling
process.

Sampled censuses draw values from a counter-based hash stream, so the
same (seed, count) always yields the same draws.  They too run in the
calling process, 8 192 draws at a time: each draw is looked up among the
sorted (1+x)^j words of the patterns of weight <= k, and the nearer
neighbour gives L_k.

verify_formulas joins a census with the closed forms from
lcforge.counting, and refutation_report reruns the period-16 3-error
census against both the closed form and the previously published table
it contradicts.

Each report builds one payload dict, and render turns any payload into
JSON or CSV: JSON is the whole payload, CSV its rows (or the payload as
one row) with the row keys as columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from hashlib import blake2b
from math import sqrt
from time import perf_counter

import numpy as np

from . import counting
from .errors import InvalidParams, NoFormulaAvailable, TooLarge

MAX_CENSUS_EXPONENT = 5
MAX_ERRORS = 4

# draws scored at once: bounds a sampled census's temporaries for any count
_BLOCK_ROWS = 1 << 13


class SequenceClass(Enum):
    """Which weight-parity class of sequences a census covers."""

    ALL = "all"
    FULL_LC = "full"  # odd weight per period: complexity is exactly 2^n
    LESS_LC = "less"  # even weight: complexity is below 2^n


@dataclass(frozen=True)
class Exhaustive:
    """Count every sequence of the class exactly."""


@dataclass(frozen=True)
class Sampled:
    """Draw `count` sequences from a deterministic stream keyed by `seed`."""

    count: int
    seed: int = 0


@dataclass(frozen=True)
class CensusQuery:
    """What to census: period exponent, error bound, class, and mode."""

    n: int
    k: int
    seq_class: SequenceClass
    mode: Exhaustive | Sampled

    def __post_init__(self):
        if not 0 <= self.n <= MAX_CENSUS_EXPONENT:
            raise TooLarge(
                f"census supports n <= {MAX_CENSUS_EXPONENT}, got {self.n}"
            )
        most = min(MAX_ERRORS, 1 << self.n)
        if not 0 <= self.k <= most:
            raise InvalidParams(
                f"census supports k in [0, {most}] at n = {self.n}, got {self.k}"
            )
        if isinstance(self.mode, Sampled):
            if self.mode.count < 1:
                raise InvalidParams("sample count must be at least 1")
            if not 0 <= self.mode.seed < 1 << 64:
                raise InvalidParams("seed must fit in 64 bits")


@dataclass(frozen=True)
class CensusRow:
    """Census (and optional formula) count for one complexity value."""

    L: int
    census: int
    formula: int | None = None
    verdict: str = ""


@dataclass
class CensusReport:
    """A census distribution, optionally joined with formula counts."""

    n: int
    k: int
    seq_class: SequenceClass
    mode: Exhaustive | Sampled
    rows: list[CensusRow]
    elapsed: float = 0.0

    @property
    def census_total(self) -> int:
        return sum(row.census for row in self.rows)

    @property
    def formula_total(self) -> int | None:
        if any(row.formula is None for row in self.rows):
            return None
        return sum(row.formula for row in self.rows)

    @property
    def all_match(self) -> bool:
        return not any(row.verdict == "Mismatch" for row in self.rows)

    @property
    def sample_size(self) -> int | None:
        return self.mode.count if isinstance(self.mode, Sampled) else None

    def payload(self) -> dict:
        """The report as data; a sampled row also carries its interval."""
        rows = [dict(vars(row)) for row in self.rows]
        size = self.sample_size
        if size is not None:
            for item in rows:
                item["interval"] = list(proportion_interval(item["census"], size))
        return {
            "n": self.n,
            "k": self.k,
            "class": self.seq_class.value,
            # "exhaustive", or "sampled" with its count and seed
            "mode": {"kind": type(self.mode).__name__.lower(), **vars(self.mode)},
            "rows": rows,
            "totals": {"census": self.census_total, "formula": self.formula_total},
        }

    def to_csv(self) -> str:
        return render("csv", self.payload())

    def to_json(self) -> str:
        return render("json", self.payload())


def render_json(payload) -> str:
    """The one JSON renderer: parse-then-re-render is byte identical."""
    return json.dumps(payload, sort_keys=True, indent=2)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def render_csv(header, rows) -> str:
    """The one CSV renderer: None is empty, a list joins its items with spaces."""
    lines = [",".join(header)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def render(fmt: str, payload: dict) -> str:
    """A payload as "json" (all of it) or "csv".

    CSV is the payload's rows, or the payload itself as one row; the
    columns are the first row's keys in order, less the JSON-only
    interval.
    """
    if fmt == "json":
        return render_json(payload)
    rows = payload.get("rows", [payload])
    header = [key for key in rows[0] if key != "interval"]
    return render_csv(header, ([row[key] for key in header] for row in rows))


# ---------------------------------------------------------------------------
# tallying


_CLASS_PARITY = {SequenceClass.FULL_LC: 1, SequenceClass.LESS_LC: 0}


def _pattern_words(n: int, k: int, parity: int | None) -> np.ndarray:
    """Every pattern of weight <= k (of that parity, if given), packed."""
    bits = np.uint64(1) << np.arange(1 << n, dtype=np.uint64)
    layer = np.zeros(1, dtype=np.uint64)  # the patterns of one weight, sorted
    patterns = [layer] if parity != 1 else []
    for weight in range(1, k + 1):
        # the patterns below bit i are a prefix of the sorted layer
        cuts = np.searchsorted(layer, bits).tolist()
        layer = np.concatenate([layer[:cut] | bit for cut, bit in zip(cuts, bits)])
        if parity is None or weight & 1 == parity:
            patterns.append(layer)
    return np.concatenate(patterns) if patterns else layer[:0]


def _lucas(words: np.ndarray, n: int) -> np.ndarray:
    """In place: bit j becomes the XOR of bits i whose bits are among j's.

    That is the coordinate a_j in the basis (1+x)^j of the reflected period
    i -> N-1-i, at bit N-1-j; reflection keeps weights, L and L_k.
    """
    for step in (1 << b for b in range(n)):
        upper = sum(1 << j for j in range(1 << n) if j & step)
        words ^= (words << np.uint64(step)) & np.uint64(upper)
    return words


def _light_words(n: int, k: int, parity: int | None) -> np.ndarray:
    """The sorted (1+x)^j words of every pattern of weight <= k (and that parity)."""
    return np.sort(_lucas(_pattern_words(n, k, parity), n))


def _coset_tally(n: int, k: int, seq_class: SequenceClass) -> list[int]:
    """Exact per-L census of the class, counted by cosets of (1+x)^m.

    Write a pattern e as the sum of a_j (1+x)^j; by Lucas' theorem a_j is
    the XOR of e_i over every i whose bits contain j's bits, and e mod
    (1+x)^m is fixed by a_0..a_(m-1).  With a_j packed at bit N-1-j, the
    number D(m) of distinct residues mod (1+x)^m is one more than the
    number of adjacent sorted words that differ in their top m bits.
    #{L_k <= c} is then 2^c * D(N-c) for c < N.  Every multiple of (1+x)
    has even weight, so the full class counts odd-weight patterns only
    and the less class even-weight ones.
    """
    period = 1 << n
    words = _light_words(n, k, _CLASS_PARITY.get(seq_class))
    if not len(words):  # the full class with k = 0
        return [0] * period + [class_size(n, seq_class)]
    # bit length of each adjacent XOR, 0 for a repeated word; frexp is
    # exact below 2^53 (n <= 5), here and in _sampled_tally
    _, lengths = np.frexp(words[1:] ^ words[:-1])
    longer = np.bincount(lengths, minlength=period + 1)[::-1].cumsum()[::-1]
    at_most = [(1 << c) * (1 + int(longer[c + 1])) for c in range(period)]
    at_most.append(class_size(n, seq_class))
    return [at_most[0]] + [b - a for a, b in zip(at_most, at_most[1:])]


def _draws(seed: int, lo: int, hi: int, n: int, seq_class: SequenceClass) -> np.ndarray:
    """Draws lo..hi-1 of the stream keyed by `seed`, packed as uint64.

    Draw i hashes (seed, i) with blake2b and then forces the class
    parity.  For a parity class, 2^n - 1 hash bits choose the low
    positions freely and the top position is set to fix the parity;
    every class member arises from exactly one bit string, so draws are
    uniform on the class.
    """
    keyed = blake2b(seed.to_bytes(8, "big"), digest_size=8)
    digests = bytearray()
    for index in range(lo, hi):
        draw = keyed.copy()
        draw.update(index.to_bytes(8, "big"))
        digests += draw.digest()
    words = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    period = 1 << n
    if seq_class is SequenceClass.ALL:
        return words & np.uint64((1 << period) - 1)
    free = words & np.uint64((1 << (period - 1)) - 1)
    top = ((np.bitwise_count(free) & 1) ^ _CLASS_PARITY[seq_class]).astype(np.uint64)
    return free | top << np.uint64(period - 1)


def _sampled_tally(
    n: int, k: int, seq_class: SequenceClass, seed: int, count: int
) -> list[int]:
    """Per-L tally of the first `count` draws, scored by their nearest light words."""
    # all patterns of weight <= k, whatever the class: 0 is always one
    light = _light_words(n, k, None)
    tally = np.zeros((1 << n) + 1, dtype=np.int64)
    for start in range(0, count, _BLOCK_ROWS):
        end = min(count, start + _BLOCK_ROWS)
        words = _lucas(_draws(seed, start, end, n, seq_class), n)
        above = np.searchsorted(light, words)
        left = light[np.maximum(above, 1) - 1]
        right = light[np.minimum(above, len(light) - 1)]
        _, lengths = np.frexp(np.minimum(words ^ left, words ^ right))
        tally += np.bincount(lengths, minlength=len(tally))
    return tally.tolist()


def census_distribution(query: CensusQuery) -> CensusReport:
    """Run the census described by `query` in the calling process."""
    start = perf_counter()
    if isinstance(query.mode, Exhaustive):
        counts = _coset_tally(query.n, query.k, query.seq_class)
    else:
        mode = query.mode
        counts = _sampled_tally(query.n, query.k, query.seq_class, mode.seed, mode.count)
    rows = [CensusRow(L, count) for L, count in enumerate(counts)]
    return CensusReport(
        query.n, query.k, query.seq_class, query.mode, rows,
        elapsed=perf_counter() - start,
    )


def class_size(n: int, seq_class: SequenceClass) -> int:
    """Number of sequences of period 2^n in the class."""
    if seq_class is SequenceClass.ALL:
        return 1 << (1 << n)
    return 1 << ((1 << n) - 1)


# ---------------------------------------------------------------------------
# joining censuses with the closed forms

_FORMULAS = {
    (0, SequenceClass.ALL): counting.rueppel_count,
    (1, SequenceClass.FULL_LC): counting.n1_lcfull,
    (2, SequenceClass.LESS_LC): counting.n2_lcless,
    # one flip already makes an odd weight even; a second never helps
    (2, SequenceClass.FULL_LC): counting.n1_lcfull,
    (2, SequenceClass.ALL): counting.n2_total,
    # an odd number of flips on an even weight lands on full complexity
    (3, SequenceClass.LESS_LC): counting.n2_lcless,
    (3, SequenceClass.FULL_LC): counting.n3_lcfull,
    (3, SequenceClass.ALL): counting.n3_total,
    # three flips already make an odd weight even; a fourth never helps
    (4, SequenceClass.FULL_LC): counting.n3_lcfull,
}


def closed_form(k: int, seq_class: SequenceClass):
    """The count function (n, L) -> int for (k, class), or NoFormulaAvailable."""
    formula = _FORMULAS.get((k, seq_class))
    if formula is None:
        raise NoFormulaAvailable(
            f"no closed form for k={k} on class '{seq_class.value}'"
        )
    return formula


def formula_counts(n: int, k: int, seq_class: SequenceClass) -> list[int]:
    """Closed-form counts for every L, or NoFormulaAvailable."""
    formula = closed_form(k, seq_class)
    return [formula(n, L) for L in range((1 << n) + 1)]


def verify_formulas(n: int, k: int, seq_class: SequenceClass) -> CensusReport:
    """Exhaustively census (n, k, class) and join each row with its closed form."""
    closed_form(k, seq_class)  # a pair with no closed form is refused first
    query = CensusQuery(n, k, seq_class, Exhaustive())
    expected = formula_counts(n, k, seq_class)
    report = census_distribution(query)
    rows = [
        CensusRow(
            row.L,
            row.census,
            expected[row.L],
            "Match" if row.census == expected[row.L] else "Mismatch",
        )
        for row in report.rows
    ]
    report.rows = rows
    return report


# ---------------------------------------------------------------------------
# the period-16 refutation


@dataclass(frozen=True)
class RefutationRow:
    """census vs closed form vs published value for one complexity L."""

    L: int
    census: int
    theorem: int
    fixture: int
    verdict: str  # Match | FixtureWrong | TheoremMismatch


@dataclass
class RefutationReport:
    """Side-by-side period-16 3-error counts: census, closed form, publication."""

    rows: list[RefutationRow]
    elapsed: float = 0.0

    @property
    def census_total(self) -> int:
        return sum(row.census for row in self.rows)

    @property
    def theorem_total(self) -> int:
        return sum(row.theorem for row in self.rows)

    @property
    def fixture_total(self) -> int:
        return sum(row.fixture for row in self.rows)

    @property
    def mismatched_L(self) -> tuple[int, ...]:
        return tuple(row.L for row in self.rows if row.fixture != row.census)

    def payload(self) -> dict:
        """The report as data."""
        return {
            "n": 4,
            "k": 3,
            "class": SequenceClass.ALL.value,
            "rows": [dict(vars(row)) for row in self.rows],
            "totals": {
                "census": self.census_total,
                "theorem": self.theorem_total,
                "fixture": self.fixture_total,
            },
            "mismatched_L": list(self.mismatched_L),
        }

    def to_csv(self) -> str:
        return render("csv", self.payload())

    def to_json(self) -> str:
        return render("json", self.payload())


def refutation_report() -> RefutationReport:
    """Census period 16 at k = 3 and compare against formula and publication.

    The published table gets one row per L in [0, 15]; the exhaustive
    census puts no sequence at L = 16 for k = 3 (one flip already breaks
    full complexity), so those rows carry the whole distribution.
    """
    report = census_distribution(CensusQuery(4, 3, SequenceClass.ALL, Exhaustive()))
    rows = []
    for L in range(16):
        census = report.rows[L].census
        theorem = counting.n3_total(4, L)
        fixture = counting.kavuluru_table1(L)
        if census != theorem:
            verdict = "TheoremMismatch"
        elif census == fixture:
            verdict = "Match"
        else:
            verdict = "FixtureWrong"
        rows.append(RefutationRow(L, census, theorem, fixture, verdict))
    return RefutationReport(rows, elapsed=report.elapsed)


# ---------------------------------------------------------------------------
# sampled-census intervals


def proportion_interval(count: int, sample_size: int) -> tuple[float, float]:
    """Symmetric three-sigma normal interval around the sample proportion."""
    p = count / sample_size
    delta = 3.0 * sqrt(p * (1.0 - p) / sample_size)
    return (max(0.0, p - delta), min(1.0, p + delta))


def interval_covers(
    count: int, sample_size: int, true_numerator: int, true_denominator: int
) -> bool:
    """Exact test that the three-sigma interval contains the truth.

    (c/s - a/b)^2 <= 9/s * c/s * (1 - c/s), times s^3 b^2, in integers.
    """
    c, s, a, b = count, sample_size, true_numerator, true_denominator
    return s * (c * b - a * s) ** 2 <= 9 * c * (s - c) * b * b
