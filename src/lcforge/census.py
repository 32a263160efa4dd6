"""Exhaustive and sampled censuses of k-error complexity distributions.

A census tallies, for every complexity value L, how many sequences of
period N = 2^n have k-error linear complexity exactly L — either over
all sequences or restricted to one weight-parity class; n <= 5.

The tallies themselves are numpy work in lcforge.cosets, which this
module imports, and numpy with it, when the first census runs.

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
from math import sqrt
from time import perf_counter

from . import counting
from .errors import InvalidParams, NoFormulaAvailable, TooLarge

MAX_CENSUS_EXPONENT = 5
MAX_ERRORS = 4


class SequenceClass(Enum):
    """Which weight-parity class of sequences a census covers."""

    ALL = "all"
    FULL_LC = "full"  # odd weight per period: complexity is exactly 2^n
    LESS_LC = "less"  # even weight: complexity is below 2^n

    @property
    def parity(self) -> int | None:
        """The weight parity of every member: 1, 0, or None for all."""
        return {"full": 1, "less": 0}.get(self.value)


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


def census_distribution(query: CensusQuery) -> CensusReport:
    """Run the census described by `query` in the calling process."""
    from . import cosets  # numpy loads here, on the first census only

    start = perf_counter()
    if isinstance(query.mode, Exhaustive):
        counts = cosets._coset_tally(query.n, query.k, query.seq_class)
    else:
        mode = query.mode
        counts = cosets._sampled_tally(
            query.n, query.k, query.seq_class, mode.seed, mode.count
        )
    rows = [CensusRow(L, count) for L, count in enumerate(counts)]
    return CensusReport(
        query.n, query.k, query.seq_class, query.mode, rows,
        elapsed=perf_counter() - start,
    )


def class_size(n: int, seq_class: SequenceClass) -> int:
    """Number of sequences of period 2^n in the class."""
    if seq_class.parity is None:
        return 1 << (1 << n)
    return 1 << ((1 << n) - 1)


# ---------------------------------------------------------------------------
# joining censuses with the closed forms

_FORMULAS = {
    (0, SequenceClass.ALL): counting.rueppel_count,
    (1, SequenceClass.FULL_LC): counting.n1_lcfull,
    (2, SequenceClass.LESS_LC): counting.n2_lcless,
    (3, SequenceClass.FULL_LC): counting.n3_lcfull,
}


def _derived(k: int, seq_class: SequenceClass):
    """The count function for (k, class) by the rules of closed_form, or None."""
    parity = seq_class.parity
    if parity is not None and k >= 1 and k & 1 != parity:
        k -= 1
    formula = _FORMULAS.get((k, seq_class))
    if formula is None and parity is None:
        less = _derived(k, SequenceClass.LESS_LC)
        full = _derived(k, SequenceClass.FULL_LC)
        if less and full:
            return lambda n, L: less(n, L) + full(n, L)
    return formula


def closed_form(k: int, seq_class: SequenceClass):
    """The count function (n, L) -> int for (k, class), or NoFormulaAvailable.

    _FORMULAS holds the independent formulas, and two rules serve every
    other pair from them:

    * on a parity class, a k >= 1 of the other parity counts as k - 1.
      A pattern of the other weight parity leaves an odd weight, and so
      full complexity, which never lowers L_k.  So on the even-weight
      class the 3-error count is the 2-error count, and on the
      odd-weight class the 2-error count is the 1-error count and the
      4-error count the 3-error count;
    * `all` is the sum of the `less` and `full` functions, when both
      exist.
    """
    formula = _derived(k, seq_class)
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
    totals = closed_form(3, SequenceClass.ALL)
    rows = []
    for L in range(16):
        census = report.rows[L].census
        theorem = totals(4, L)
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
