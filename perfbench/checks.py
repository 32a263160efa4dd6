"""Output checks for benchmark requests, each on a route independent of the
code path under test.

`check(lcforge, request, code, out)` returns None when the output is right
and a one-line reason otherwise.  Sequences are rebuilt from the packed
value the benchmark drew, never from the program's parse, and complexities
are recomputed with `lc_by_minimal_polynomial`, which shares no code with
the halving the program reports.
"""

from __future__ import annotations

import json

REFUTED_L = [4, 5, 6, 7, 10, 11]
FIXTURE_TOTAL = 158_208


def stable(out: str) -> str:
    """Output minus the run-dependent `elapsed:` line of table renderings."""
    return "".join(
        line for line in out.splitlines(keepends=True)
        if not line.startswith("elapsed:")
    )


def _pairs(out: str, fmt: str) -> dict:
    """Parse the key/value renderings of lc, kerr and count."""
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        keys, values = out.splitlines()
        return dict(zip(keys.split(","), values.split(",")))
    return dict(line.split(" = ", 1) for line in out.splitlines())


def _ints(value) -> list[int]:
    """A witness as json list, csv "3 5" or table "[3, 5]"."""
    if isinstance(value, list):
        return value
    return [int(x) for x in value.strip("[]").replace(",", " ").split()]


def _rows(out: str, fmt: str, columns: int) -> list[list[str]]:
    """Rows of a census-like table or csv, as lists of cells."""
    lines = out.splitlines()[1:]
    if fmt == "csv":
        return [line.split(",") for line in lines]
    rows = []
    for line in lines:
        cells = line.split()
        if cells and cells[0].isdigit():
            rows.append(cells[:columns])
    return rows


def _census_rows(out: str, fmt: str) -> list[tuple[int, int, int | None, str]]:
    """(L, census, formula, verdict) for every row of a census or verify."""
    if fmt == "json":
        return [
            (r["L"], r["census"], r["formula"], r["verdict"])
            for r in json.loads(out)["rows"]
        ]
    rows = []
    for cells in _rows(out, fmt, 4):
        # a sampled table puts its interval where a verify puts the verdict
        verdict = cells[3] if len(cells) > 3 and cells[3][:1] != "[" else ""
        formula = None if cells[2] in ("", "-") else int(cells[2])
        rows.append((int(cells[0]), int(cells[1]), formula, verdict))
    return rows


def _class_size(n: int, seq_class: str) -> int:
    size = 1 << (1 << n)
    return size if seq_class == "all" else size >> 1


def _formula(lcforge, n, k, seq_class):
    census = lcforge.census
    try:
        return census.formula_counts(n, k, census.SequenceClass(seq_class))
    except lcforge.errors.NoFormulaAvailable:
        return None


def _check_lc(lcforge, req, out):
    core = lcforge.core
    weight = req.value.bit_count()
    want = {
        "n": req.n,
        "L": core.lc_by_minimal_polynomial(core.PeriodicSequence(req.n, req.value)),
        "weight": weight,
        "class": "FullLC" if weight & 1 else "LessLC",
    }
    # table and csv cells are text, json values are numbers
    got = {key: str(value) for key, value in _pairs(out, req.fmt).items()}
    if got != {key: str(value) for key, value in want.items()}:
        return f"lc: got {got}, expected {want}"
    return None


def _check_kerr(lcforge, req, out):
    core, kerror = lcforge.core, lcforge.kerror
    s = core.PeriodicSequence(req.n, req.value)
    got = _pairs(out, req.fmt)
    L, Lk, witness = int(got["L"]), int(got["Lk"]), _ints(got["witness"])
    if L != core.lc_by_minimal_polynomial(s):
        return f"kerr: L = {L} is wrong"
    if Lk > L:
        return f"kerr: Lk = {Lk} exceeds L = {L}"
    if len(witness) > req.k or witness != sorted(set(witness)):
        return f"kerr: witness {witness} is not a pattern of at most {req.k} flips"
    if witness and not 0 <= witness[0] <= witness[-1] < 1 << req.n:
        return f"kerr: witness {witness} leaves the period"
    flips = core.PeriodicSequence.from_support(req.n, witness)
    if core.lc_by_minimal_polynomial(s ^ flips) != Lk:
        return f"kerr: witness {witness} does not reach Lk = {Lk}"
    if (Lk < L) != (req.k >= kerror.k_min_formula(s)):
        return f"kerr: Lk < L is {Lk < L} at k = {req.k}, against k_min_formula"
    return None


def _check_profile(lcforge, req, out):
    core, kerror = lcforge.core, lcforge.kerror
    s = core.PeriodicSequence(req.n, req.value)
    if req.fmt == "json":
        rows = [(r["k"], r["Lk"]) for r in json.loads(out)["rows"]]
    else:
        rows = [(int(a), int(b)) for a, b in _rows(out, req.fmt, 2)]
    values = [v for _, v in rows]
    L = core.lc_by_minimal_polynomial(s)
    k_min = kerror.k_min_formula(s)
    if [k for k, _ in rows] != list(range(req.k + 1)):
        return f"profile: rows for k = {[k for k, _ in rows]}"
    if values[0] != L:
        return f"profile: L_0 = {values[0]}, expected {L}"
    if any(b > a for a, b in zip(values, values[1:])):
        return f"profile: {values} increases"
    if any((v < L) != (k >= k_min) for k, v in rows):
        return f"profile: {values} disagrees with k_min_formula = {k_min}"
    return None


def _check_count(lcforge, req, out):
    got = _pairs(out, req.fmt) if req.fmt != "table" else {"count": out.strip()}
    expected = _formula(lcforge, req.n, req.k, req.seq_class)[req.L]
    if int(got["count"]) != expected:
        return f"count: got {got['count']}, expected {expected}"
    return None


def _check_census(lcforge, req, out):
    rows = _census_rows(out, req.fmt)
    if [L for L, *_ in rows] != list(range((1 << req.n) + 1)):
        return "census: rows do not cover L = 0..2^n"
    total = sum(c for _, c, _, _ in rows)
    want = req.samples or _class_size(req.n, req.seq_class)
    if total != want:
        return f"census: total {total}, expected {want}"
    if req.kind == "verify" or (req.n == 4 and not req.samples):
        formula = _formula(lcforge, req.n, req.k, req.seq_class)
        if formula is not None and [c for _, c, _, _ in rows] != formula:
            return "census: rows differ from formula_counts"
    if req.kind == "verify" and any(v != "Match" for *_, v in rows):
        return "verify: not every row is Match"
    return None


def _check_refute(lcforge, req, out):
    if req.fmt == "json":
        payload = json.loads(out)
        mismatched = payload["mismatched_L"]
        totals = payload["totals"]
        census_total, fixture_total = totals["census"], totals["fixture"]
    else:
        rows = [[int(c) for c in cells[:4]] for cells in _rows(out, req.fmt, 5)]
        mismatched = [L for L, census, _, fixture in rows if census != fixture]
        census_total = sum(r[1] for r in rows)
        fixture_total = sum(r[3] for r in rows)
    if mismatched != REFUTED_L:
        return f"refute: mismatched L {mismatched}, expected {REFUTED_L}"
    if (census_total, fixture_total) != (65_536, FIXTURE_TOTAL):
        return f"refute: totals census {census_total}, fixture {fixture_total}"
    return None


_CHECKS = {
    "lc": _check_lc,
    "kerr": _check_kerr,
    "profile": _check_profile,
    "count": _check_count,
    "census": _check_census,
    "verify": _check_census,
    "refute": _check_refute,
}


def check(lcforge, req, code, out: str) -> str | None:
    """None if `out` and exit `code` are right for `req`, else why not."""
    if code != 0:
        return f"{req.kind}: exit code {code}"
    try:
        return _CHECKS[req.kind](lcforge, req, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{req.kind}: unreadable output ({type(exc).__name__}: {exc})"
