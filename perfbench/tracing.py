"""In-memory spans around the public functions of each lcforge layer.

The benchmark, not the program, installs the wrappers: `Tracer.install`
replaces each function under every name a caller looks it up by (the CLI
imports `census_distribution` and friends by name, so both the census
module and the cli module are patched) and `uninstall` puts the originals
back.  Spans record name, start, end and parent, plus the work each call
did, counted from its arguments and result.

A layer's self time is a span's duration minus the time its child spans
cover; `layer_metrics` turns the spans of one pass into per-layer figures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _chars(args, result):
    return {"chars": len(args[0])}


def _patterns(args, result):
    # The brute-force search space after parity pruning, computed from the
    # inputs; the program does not count it.
    s, k = args[0], args[1]
    parity = s.value.bit_count() & 1
    period = 1 << s.exponent
    return {
        "patterns": sum(comb(period, w) for w in range(1, k + 1) if w & 1 == parity)
    }


def _values(args, result):
    return {"values": len(result)}


def _sequences(args, result):
    query = args[0]
    count = getattr(query.mode, "count", None)
    if count is None:
        count = 1 << (1 << query.n)
        if query.seq_class.value != "all":
            count >>= 1
    return {"seqs": count}


def _cold_builds(fn):
    """Work counter for a cached table function: 1 when a call missed the cache."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return lambda args, result: {"cold": 1}
    seen = [info().misses]

    def work(args, result):
        misses = info().misses
        cold, seen[0] = misses > seen[0], misses
        return {"cold": int(cold)}

    return work


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self, lcforge):
        self.lcforge = lcforge
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _targets(self):
        core, kerror = self.lcforge.core, self.lcforge.kerror
        census, cli = self.lcforge.census, self.lcforge.cli
        reports = (census.CensusReport, census.RefutationReport)
        return [
            ("core.parse", [(core, "parse_binary")], _chars),
            ("core.parse", [(core, "parse_hex")], _chars),
            ("core.lc", [(core, "games_chan_lc")], None),
            (
                "core.lc_table",
                [(core, "lc_table")],
                _cold_builds(vars(core).get("lc_table")),
            ),
            ("kerror.kerr", [(kerror, "k_error_lc")], _patterns),
            ("kerror.profile", [(kerror, "k_error_profile")], None),
            ("counting.formula", [(census, "formula_counts")], _values),
            (
                "census.census",
                [(census, "census_distribution"), (cli, "census_distribution")],
                _sequences,
            ),
            (
                "census.verify",
                [(census, "verify_formulas"), (cli, "verify_formulas")],
                None,
            ),
            (
                "census.refute",
                [(census, "refutation_report"), (cli, "refutation_report")],
                None,
            ),
            *(
                ("census.render", [(cls, method)], None)
                for cls in reports
                for method in ("to_json", "to_csv")
            ),
            ("cli.main", [(cli, "main")], None),
        ]

    def install(self) -> None:
        for name, owners, work in self._targets():
            wrapped = {}
            for owner, attr in owners:
                original = vars(owner).get(attr)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, work)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return wrapper


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Self time of spans[first:]: duration minus the children's durations."""
    own = [span.duration for span in spans[first:]]
    for span in spans[first:]:
        if span.parent is not None and span.parent >= first:
            own[span.parent - first] -= span.duration
    return own


def layer_metrics(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per-layer figures from the spans of one pass, spans[first:]."""
    own = self_times(spans, first)
    time: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    useful = 0
    for span, self_s in zip(spans[first:], own):
        time[span.name] = time.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.work.items():
            work[key] = work.get(key, 0) + value
        if span.name == "counting.formula":
            # verify prints every value computed; count prints one
            parent = spans[span.parent].name if span.parent is not None else ""
            useful += span.work["values"] if parent == "census.verify" else 1
    parse_s = time.get("core.parse", 0.0)
    census_s = time.get("census.census", 0.0)
    values = work.get("values", 0)
    return {
        "core.parse_s": parse_s,
        "core.parse_chars": work.get("chars", 0),
        "core.parse_mchars_per_s": work.get("chars", 0) / parse_s / 1e6
        if parse_s else 0.0,
        "core.lc_s": time.get("core.lc", 0.0),
        "core.lc_calls": calls.get("core.lc", 0),
        "kerror.kerr_s": time.get("kerror.kerr", 0.0),
        "kerror.kerr_calls": calls.get("kerror.kerr", 0),
        "kerror.profile_s": time.get("kerror.profile", 0.0),
        "kerror.pattern_space": work.get("patterns", 0),
        "counting.formula_s": time.get("counting.formula", 0.0),
        "counting.values_computed": values,
        "counting.useful_ratio": useful / values if values else 0.0,
        "census.census_s": census_s,
        "census.seqs": work.get("seqs", 0),
        "census.seqs_per_s": work.get("seqs", 0) / census_s if census_s else 0.0,
        "census.verify_s": time.get("census.verify", 0.0),
        "census.refute_s": time.get("census.refute", 0.0),
        "census.render_s": time.get("census.render", 0.0),
        "cli.self_s": time.get("cli.main", 0.0),
    }


def cold_build_seconds(spans: list[Span]) -> float:
    """Time of lc_table calls that built a table rather than hit the cache."""
    return sum(
        span.duration
        for span in spans
        if span.name == "core.lc_table" and span.work.get("cold")
    )
