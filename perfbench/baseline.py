"""Run every workload over several seeds and summarise, with spreads.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/baseline.py --seeds 1 2 3 --trace-seeds 1 \
        --write perfbench/BASELINE.json

For each workload and end-to-end metric it prints the median over seeds,
the quartile spread as a share of the median (statistics.quantiles, n=4)
and the metric's bound, and the workload's fail_ratio (failed over
attempted requests).  --trace-seeds adds traced runs and their per-layer
medians; the known-defect probe (defects.py) runs once at the end.
--write stores all of it, with the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _last_json(args) -> dict:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(workload, seed, seconds, trace) -> dict:
    return _last_json([
        str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ])


def _summary(values: list[float]) -> dict:
    mid = median(values)
    if len(values) > 1:
        q1, _, q3 = quantiles(values, n=4)
    else:
        q1 = q3 = mid
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0,
        "values": values,
    }


def _versions() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"machine": _versions(), "run_seconds": seconds, "seeds": args.seeds}
    for workload in names:
        runs = [_run(workload, seed, seconds, 0) for seed in args.seeds]
        traced = [_run(workload, seed, seconds, 1) for seed in args.trace_seeds]
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "correct": all(r["correct"] for r in runs + traced),
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"{workload}: fail_ratio {entry['fail_ratio']:.4f}"
              f" ({failed}/{attempted}), correct {entry['correct']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = _summary([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": metric["unit"], **stats}
            print(
                f"  {name:<14} {stats['median']:>12.4f} {metric['unit']:<4}"
                f" spread {stats['spread']:.4f}  bound {metric['bound']}"
            )
        for metric in spec["per_layer"] if traced else ():
            name = metric["name"]
            value = median(r["metrics"][name]["value"] for r in traced)
            entry["per_layer"][name] = {"unit": metric["unit"], "median": value}
            print(f"  {name:<26} {value:>14.6g} {metric['unit']}")
        report[workload] = entry
    defects = _last_json([str(HERE / "defects.py")])
    report["defects"] = defects
    print(f"defects: fail_ratio {defects['fail_ratio']:.4f}"
          f" ({defects['failed']}/{defects['attempted']})")
    for item in defects["requests"]:
        print(f"  {item['name']}: exit {item['exit']} in {item['seconds']:.3f} s")
    for item in defects["costs"]:
        print(f"  {item['name']}: parse {item['parse_s']:.3f} s,"
              f" halving {item['halving_s']:.4f} s")
    if args.write:
        args.write.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
