"""Steadiness report: run the benchmark repeatedly and measure its spread.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/results/NAME.json
    python3 perfbench/steadiness.py --runs 10 --first-seed 11 --against perfbench/results/NAME.json

For each workload, runs ``run.py`` once per seed (``--runs`` seeds from
``--first-seed``, one run at a time) with the ``run_seconds`` of
BENCHMARK.json, then reports for each end-to-end metric its median,
quartiles and spread: the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median.  A spread above
a third of the metric's bound is flagged, since a regression bound must
sit well clear of the noise, and a spread above the bound fails the
report.  ``--against`` an earlier report also fails it when a median is
worse than the earlier one by more than the metric's bound, so two reports
of the same code show whether they agree.  ``--trace`` adds one traced run
per workload, so the file also records the per-layer numbers.  Every
result keeps the environment ``run.py`` printed (Python, nproc, CPU model,
seed, commit) and the run's wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    return {"env": env, "result": json.loads(lines[-1]), "stderr": proc.stderr.strip(),
            "wall_s": perf_counter() - t0}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier report whose medians these must not be worse than")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    report = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        seeds = range(args.first_seed, args.first_seed + args.runs)
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            metrics = runs[-1]["result"]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
        entry = {"runs": runs, "spreads": {}}
        for name, bound in bounds.items():
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["spreads"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  above a third of the bound"
            if s["spread"] > bound:
                flag, steady = "  ABOVE THE BOUND", False
            before = earlier.get(workload, {}).get("spreads", {}).get(name)
            if before is not None:
                change = s["median"] / before["median"] - 1 if before["median"] else 0.0
                s["change"] = change
                flag += f"  median {change:+.4f} against the earlier report"
                if (-change if name in higher else change) > bound:
                    flag, steady = flag + " WORSE THAN THE BOUND", False
            print(f"  {workload:10s} {name:14s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.4f}  bound {bound}{flag}")
        if args.trace:
            entry["traced"] = run_once(workload, seeds[0], seconds, 1)
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
