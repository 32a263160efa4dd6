"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import checks
import tracing
import workloads
from run import ROOT, call, load_lcforge

lcforge = load_lcforge(ROOT)


def _argvs(workload, seed):
    return json.dumps([r.argv for r in workloads.build(workload, seed, 2)])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_bytes(workload):
    assert _argvs(workload, 5) == _argvs(workload, 5)
    assert _argvs(workload, 5) != _argvs(workload, 6)


def _run(req):
    code, out = call(lcforge, req.argv)
    assert checks.check(lcforge, req, code, out) is None
    return out


def test_checker_flags_complexity_off_by_one():
    req = workloads.lc(workloads.random.Random(1), 8, "json")
    payload = json.loads(_run(req))
    payload["L"] += 1
    assert "lc:" in checks.check(lcforge, req, 0, json.dumps(payload))


def test_checker_flags_witness_that_misses_lk():
    rng = workloads.random.Random(2)
    req = workloads.kerr(rng, 6, 2, 0, "json")
    payload = json.loads(_run(req))
    assert payload["witness"], "a random even-weight period should drop at k=2"
    payload["witness"] = [p + 1 for p in payload["witness"]]
    assert "witness" in checks.check(lcforge, req, 0, json.dumps(payload))


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_checker_flags_wrong_mismatched_list(fmt):
    req = workloads.refute(fmt, 1)
    out = _run(req)
    if fmt == "json":
        payload = json.loads(out)
        payload["mismatched_L"] = [4, 5, 6, 7, 10]
        tampered = json.dumps(payload)
    else:
        # make the fixture agree with the census at L = 11
        rows = out.splitlines()
        i = next(i for i, r in enumerate(rows) if r.split()[:1] == ["11"])
        L, census, theorem, _, verdict = rows[i].split()
        rows[i] = f"{L} {census} {theorem} {census} Match"
        tampered = "\n".join(rows)
    assert "mismatched" in checks.check(lcforge, req, 0, tampered)


def test_checker_flags_exit_codes_and_unreadable_output():
    req = workloads.count(6, 2, "all", 40, "json")
    assert "exit code 2" in checks.check(lcforge, req, 2, "")
    assert "unreadable" in checks.check(lcforge, req, 0, "not json")


def test_self_times_sum_to_request_spans():
    rng = workloads.random.Random(3)
    requests = [
        workloads.lc(rng, 8, "json"),
        workloads.kerr(rng, 4, 2, 0, "table"),
        workloads.profile(rng, 5, 2, 0, "csv"),
        workloads.count(6, 3, "all", 40, "table"),
        workloads.census(3, 2, "all", "csv", 1),
        workloads.verify(3, 2, "less", "json", 1),
    ]
    tracer = tracing.Tracer(lcforge)
    tracer.install()
    try:
        results = [call(lcforge, req.argv) for req in requests]
    finally:
        tracer.uninstall()
    for req, (code, out) in zip(requests, results):
        assert checks.check(lcforge, req, code, out) is None
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    assert [spans[i].name for i in roots] == ["cli.main"] * len(requests)
    own = tracing.self_times(spans)
    for root, end in zip(roots, roots[1:] + [len(spans)]):
        assert sum(own[root:end]) == pytest.approx(spans[root].duration, abs=1e-6)
    names = {s.name for s in spans}
    assert {"core.parse", "kerror.kerr", "counting.formula", "census.verify"} <= names
    metrics = tracing.layer_metrics(spans)
    assert metrics["core.parse_chars"] == 2**8 + 2**4 + 2**5
    assert metrics["census.seqs"] == 2**8 + 2**7  # all, then the even class


def test_uninstall_restores_every_name():
    names = ("main", "census_distribution")
    before = {name: getattr(lcforge.cli, name) for name in names}
    tracer = tracing.Tracer(lcforge)
    tracer.install()
    assert lcforge.cli.census_distribution is lcforge.census.census_distribution
    assert lcforge.cli.main is not before["main"]
    tracer.uninstall()
    assert {name: getattr(lcforge.cli, name) for name in before} == before
