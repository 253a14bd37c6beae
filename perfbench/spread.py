"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fuzz-oracle --seeds 1-10

Runs the benchmark once per seed (serially), then prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.
A spread at or above a third of the bound is flagged.  The raw results
go to ``perfbench/out/spread-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    steady = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread >= metric["bound"] / 3:
            flag, steady = "  <-- above bound/3", False
        print(f"{metric['name']:16s} median {median:14.4f} {metric['unit']:9s}"
              f" spread {spread:7.4f}  bound {metric['bound']}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
