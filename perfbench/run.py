"""The lcforge benchmark: one run of one workload, one JSON line of results.

    python3 perfbench/run.py --workload single --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout.  The run imports lcforge from
`src/` of that checkout, measures set-up time in fresh interpreters, then
sends the workload's requests one at a time through `lcforge.cli.main`
(a closed loop with one client), pass after pass, until the next pass
would end after `--seconds`.  Outputs are checked after the timed passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced passes and reports the per-layer metrics.
The last line of stdout is the result object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 11


def load_lcforge(root: Path):
    """Import lcforge from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "lcforge" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no lcforge sources in {src}")
    sys.path.insert(0, str(src))
    import lcforge
    import lcforge.cli

    if Path(lcforge.__file__).resolve().parent != src / "lcforge":
        raise SystemExit(f"perfbench: imported lcforge from {lcforge.__file__}")
    return lcforge


def jobs() -> int:
    """Workers per census request: two, or fewer on a smaller machine."""
    return min(2, os.cpu_count() or 1)


def measure_setup(root: Path) -> float:
    """Median time from a fresh interpreter to `lcforge.cli` imported."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import lcforge.cli"],
            cwd=root, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return median(times)


def call(lcforge, argv) -> tuple[int | str, str]:
    """Run one CLI request in-process: (exit code or what it raised, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = lcforge.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failed request is counted, never fatal
            code = f"raised {type(exc).__name__}: {str(exc)[:120]}"
    return code, out.getvalue()


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def run_pass(lcforge, requests):
    """One pass over the request list: per-request wall and cpu seconds, and
    each request's (code, stdout)."""
    walls, cpus, results = [], [], []
    for req in requests:
        cpu = cpu_seconds()
        start = perf_counter()
        results.append(call(lcforge, req.argv))
        walls.append(perf_counter() - start)
        cpus.append(cpu_seconds() - cpu)
    return walls, cpus, results


def typical_pass(passes: list[list[float]]) -> float:
    """One pass's total, as the sum over requests of their median times."""
    return sum(median(times) for times in zip(*passes))


class Ledger:
    """Attempted and failed requests, with the first reasons for failure."""

    def __init__(self, lcforge, requests):
        self.lcforge, self.requests = lcforge, requests
        self.reference: list | None = None
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def pass_results(self, results) -> None:
        """Check the first pass in full; later passes must repeat its bytes."""
        if self.reference is None:
            self.reference = []
            for req, (code, out) in zip(self.requests, results):
                self.attempted += 1
                reason = checks.check(self.lcforge, req, code, out)
                if reason:
                    self._fail(reason)
                self.reference.append((code, checks.stable(out)))
            return
        for i, (code, out) in enumerate(results):
            self.same(i, code, out)

    def same(self, index: int, code, out: str) -> None:
        """Count one more run of request `index`; it must repeat the first."""
        self.attempted += 1
        if (code, checks.stable(out)) != self.reference[index]:
            self._fail(f"{' '.join(self.requests[index].argv[:5])}: output changed")


def timed_passes(seconds: float, run_one) -> None:
    """Call run_one() until another pass of average length would overrun."""
    start, passes = perf_counter(), 0
    while True:
        run_one()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return


def end_to_end(lcforge, requests, ledger, seconds) -> dict[str, float]:
    walls, cpus = [], []

    def one():
        wall, cpu, results = run_pass(lcforge, requests)
        walls.append(wall)
        cpus.append(cpu)
        ledger.pass_results(results)

    timed_passes(seconds, one)
    return {
        "wall_s": typical_pass(walls),
        "cpu_s": typical_pass(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }


def _with_jobs(argv, count: int) -> tuple[str, ...]:
    argv = list(argv)
    argv[argv.index("--jobs") + 1] = str(count)
    return tuple(argv)


def _timed_pair(lcforge, ledger, requests, req, reps):
    """Median times of `req` with all its workers and with one."""
    index = requests.index(req)
    solo_argv = _with_jobs(req.argv, 1)
    pooled, solo = [], []
    for _ in range(reps):
        for argv, times in ((req.argv, pooled), (solo_argv, solo)):
            start = perf_counter()
            code, out = call(lcforge, argv)
            times.append(perf_counter() - start)
            ledger.same(index, code, out)
    return median(pooled), median(solo)


def per_layer(lcforge, requests, ledger, seconds) -> dict[str, float]:
    tracer = tracing.Tracer(lcforge)
    traced, untraced, layers = [], [], []

    def one():
        if len(traced) > len(untraced):
            wall, _, results = run_pass(lcforge, requests)
            untraced.append(wall)
        else:
            first = len(tracer.spans)
            tracer.install()
            try:
                wall, _, results = run_pass(lcforge, requests)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(tracing.layer_metrics(tracer.spans, first))
        ledger.pass_results(results)

    timed_passes(seconds, one)
    if not untraced:
        one()
    metrics = {name: median(m[name] for m in layers) for name in layers[0]}
    metrics["core.lc_table_s"] = tracing.cold_build_seconds(tracer.spans)
    metrics["trace.overhead_s"] = typical_pass(traced) - typical_pass(untraced)

    workers = jobs()
    pooled, solo = _timed_pair(
        lcforge, ledger, requests, workloads.speedup_request(requests), reps=1
    )
    metrics["census.pool_speedup"] = solo / pooled
    smallest = workloads.smallest_census(workers)
    pooled, solo = _timed_pair(lcforge, ledger, requests, smallest, reps=3)
    metrics["census.pool_overhead_s"] = pooled - solo / workers
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lcforge = load_lcforge(ROOT)
    requests = workloads.build(args.workload, args.seed, jobs())
    ledger = Ledger(lcforge, requests)
    if args.trace:
        declared = spec["per_layer"]
        metrics = per_layer(lcforge, requests, ledger, args.seconds)
    else:
        declared = spec["end_to_end"]
        metrics = end_to_end(lcforge, requests, ledger, args.seconds)
        metrics["setup_s"] = measure_setup(ROOT)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(requests)} requests,"
        f" {ledger.attempted} attempted, {ledger.failed} failed",
        file=sys.stderr,
    )
    for reason in ledger.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
