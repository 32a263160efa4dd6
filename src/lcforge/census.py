"""Exhaustive and sampled censuses of k-error complexity distributions.

A census tallies, for every complexity value L, how many sequences of
period N = 2^n have k-error linear complexity exactly L — either over
all sequences or restricted to one weight-parity class; n <= 5.

This module owns the classes.  The tallies are numpy work in
lcforge.cosets, the package's one numpy module, which takes only a
weight parity and which this module imports, and numpy with it, when
the first census runs.

verify_formulas joins a census with the closed forms from
lcforge.counting, and refutation_report sets that join for the period-16
3-error census beside the previously published table it contradicts.

Each report builds one payload dict, and render turns any payload into
JSON or CSV: JSON is the whole payload, CSV its rows (or the payload as
one row) with the row keys as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from math import isfinite, sqrt
from time import perf_counter

from . import counting
from .errors import InvalidParams, NoFormulaAvailable

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
class Sampled:
    """Draw `count` sequences from a deterministic stream keyed by `seed`."""

    count: int
    seed: int = 0


@dataclass(frozen=True)
class CensusQuery:
    """What to census: period exponent, error bound, class, and draws.

    With no mode every sequence of the class is counted; a Sampled mode
    draws its count of sequences instead.
    """

    n: int
    k: int
    seq_class: SequenceClass
    mode: Sampled | None = None

    def __post_init__(self):
        if not 0 <= self.n <= MAX_CENSUS_EXPONENT:
            raise InvalidParams(
                f"census supports n <= {MAX_CENSUS_EXPONENT}, got {self.n}"
            )
        most = min(MAX_ERRORS, 1 << self.n)
        if not 0 <= self.k <= most:
            raise InvalidParams(
                f"census supports k in [0, {most}] at n = {self.n}, got {self.k}"
            )
        if self.mode is not None:
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
    """The rows answering `query`, optionally joined with formula counts.

    payload() is the report as data, which to_json and to_csv render.
    """

    query: CensusQuery
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

    def payload(self) -> dict:
        """The report as data; a sampled row also carries its interval."""
        mode = self.query.mode
        rows = [dict(vars(row)) for row in self.rows]
        if mode is not None:
            for item in rows:
                item["interval"] = list(proportion_interval(item["census"], mode.count))
        draws = {} if mode is None else vars(mode)
        return {
            **_query_fields(self.query),
            # "exhaustive", or "sampled" with its count and seed
            "mode": {"kind": "sampled" if draws else "exhaustive", **draws},
            "rows": rows,
            "totals": {"census": self.census_total, "formula": self.formula_total},
        }

    def to_csv(self) -> str:
        return render("csv", self.payload())

    def to_json(self) -> str:
        return render("json", self.payload())


def _query_fields(query: CensusQuery) -> dict:
    """The n, k and class that head every report's payload."""
    return {"n": query.n, "k": query.k, "class": query.seq_class.value}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _json(value, pad: str) -> str:
    """`value` as json.dumps(value, sort_keys=True, indent=2) writes it,
    each line after the first indented by `pad`.

    Exact str, int, finite float, bool and None, lists and str-keyed
    dicts are written, and a finite Decimal as its str; anything else
    raises TypeError, as json.dumps does for an object it cannot
    encode.  No payload holds anything else.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}"
            for key in sorted(value)
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    from decimal import Decimal  # imported by count alone, for its count
    if kind is Decimal and value.is_finite():
        return str(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def render(fmt: str, payload: dict) -> str:
    """The one renderer: a payload as "json" (all of it) or "csv".

    JSON is indented by 2 with sorted keys, so parsing and re-rendering
    it is byte identical.  For exact str, int, finite float, bool and
    None, lists and str-keyed dicts, the output equals json.dumps(payload,
    sort_keys=True, indent=2), but is written here in one recursive pass:
    with an indent, json.dumps leaves its C encoder for the pure-Python
    one, a chain of generators that is slower than this pass on every
    payload a command builds.  A finite Decimal (count's count) is
    written as its str, a bare JSON number; any other value raises
    TypeError.

    CSV is the payload's rows, or the payload itself as one row; the
    columns are the first row's keys in order, less the JSON-only
    interval.  A None cell is empty and a list joins its items with
    spaces.
    """
    if fmt == "json":
        return _json(payload, "")
    rows = payload.get("rows", [payload])
    header = [key for key in rows[0] if key != "interval"]
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(row[key]) for key in header) for row in rows]
    return "\n".join(lines) + "\n"


def census_distribution(query: CensusQuery) -> CensusReport:
    """Run the census described by `query` in the calling process."""
    from . import cosets  # numpy loads here, on the first census only

    start = perf_counter()
    n, k, parity, mode = query.n, query.k, query.seq_class.parity, query.mode
    if mode is None:
        counts = cosets._coset_tally(n, k, parity)
    else:
        counts = cosets._sampled_tally(n, k, parity, mode.seed, mode.count)
    rows = [CensusRow(L, count) for L, count in enumerate(counts)]
    return CensusReport(query, rows, elapsed=perf_counter() - start)


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
    query = CensusQuery(n, k, seq_class)  # checks n before the formulas run
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

    query: CensusQuery
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
            **_query_fields(self.query),
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

    The rows are verify_formulas' rows for L in [0, 15], the published
    table's; the census puts no sequence at L = 16 for k = 3 (one flip
    already breaks full complexity), so they carry the whole distribution.
    """
    report = verify_formulas(4, 3, SequenceClass.ALL)
    rows = []
    for row in report.rows[:16]:
        fixture = counting.kavuluru_table1(row.L)
        if row.verdict == "Mismatch":
            verdict = "TheoremMismatch"
        else:
            verdict = "Match" if row.census == fixture else "FixtureWrong"
        rows.append(RefutationRow(row.L, row.census, row.formula, fixture, verdict))
    return RefutationReport(report.query, rows, elapsed=report.elapsed)


# ---------------------------------------------------------------------------
# sampled-census intervals


def proportion_interval(count: int, sample_size: int) -> tuple[float, float]:
    """Symmetric three-sigma normal interval around the sample proportion."""
    p = count / sample_size
    delta = 3.0 * sqrt(p * (1.0 - p) / sample_size)
    return (max(0.0, p - delta), min(1.0, p + delta))
