"""Known costs and failures of lcforge that the timed workloads leave out.

    python3 perfbench/defects.py

The timed workloads hold only requests that succeed, so that their times
stay comparable; these requests fail or cost far more than they should
at the commit that introduced the benchmark.  Each runs here as a real
`python3 -m lcforge` process, so its exit code is the one a user sees.  A
request counts as failed if it exits non-zero.  The quadratic parse of a
2^20-character period is timed in-process against the halving.  The last
line of stdout is a JSON summary, with `fail_ratio` = failed / attempted.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from time import perf_counter

import workloads
from run import ROOT, load_lcforge


def _requests():
    rng = random.Random("defects")
    odd10 = workloads.kerr(rng, 10, 3, 1, "json")
    return [
        (
            "kerr-n10-k3-odd-refused",
            "odd-weight period 1024 at k=3: the brute-force search would"
            " enumerate 178 434 048 patterns and is refused with exit 2",
            odd10.argv,
        ),
        (
            "count-n14-high-L-traceback",
            "n=14 counts above L = 14219 exceed Python's 4300-digit int-to-str"
            " limit: ValueError traceback and exit 1, not a documented code",
            ("count", "--n", "14", "--k", "3", "--class", "all", "--L", "16000"),
        ),
    ]


def _parse_cost(core) -> dict:
    """Parse against halving at n=20, in-process: one argument of 2^20
    characters is longer than Linux lets a command line carry."""
    text = workloads.lc(random.Random("defects"), 20, "json").argv[4]
    start = perf_counter()
    s = core.parse_binary(text, 20)
    parse_s = perf_counter() - start
    start = perf_counter()
    core.games_chan_lc(s)
    return {
        "name": "lc-n20-bits-quadratic-parse",
        "why": "core.parse_binary rebuilds a growing big int per character",
        "argv": _short(("lc", "--n", "20", "--bits", text)),
        "parse_s": parse_s,
        "halving_s": perf_counter() - start,
    }


def _short(argv) -> str:
    return " ".join(a if len(a) <= 24 else f"<{len(a)} chars>" for a in argv)


def main() -> int:
    core = load_lcforge(ROOT).core
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = []
    for name, why, argv in _requests():
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "lcforge", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        seconds = perf_counter() - start
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        results.append(
            {
                "name": name,
                "why": why,
                "argv": _short(argv),
                "exit": proc.returncode,
                "stderr": last[:160],
                "seconds": seconds,
            }
        )
        print(f"{name}: exit {proc.returncode} in {seconds:.3f} s  {last[:100]}")
    failed = sum(r["exit"] != 0 for r in results)
    cost = _parse_cost(core)
    print(
        f"{cost['name']}: parse {cost['parse_s']:.3f} s,"
        f" halving {cost['halving_s']:.4f} s"
    )
    summary = {
        "attempted": len(results),
        "failed": failed,
        "fail_ratio": failed / len(results),
        "requests": results,
        "costs": [cost],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
