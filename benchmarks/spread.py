"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads annotate textsim lexicon \
        --seeds 1-10 [--out summary.json]

For every workload and metric it prints the median of the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result = run_once(workload, seed, declared["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), file=sys.stderr, flush=True)
        summary[workload] = {}
        print(f"\n{workload} ({len(args.seeds)} seeds)")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": series,
            }
            bound = bounds.get(name)
            print(f"  {name:42s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}" + (f"  bound {bound}" if bound else ""))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
