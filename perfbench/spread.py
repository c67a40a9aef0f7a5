"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --workload mc_tree --runs 10 [--first-seed 0]

runs ``run.py`` once per seed (``--trace 0``, ``run_seconds`` of
``BENCHMARK.json``) and prints, per end-to-end metric, the median of the
runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound. Each run's result line is appended to
``perfbench/out/spread.jsonl``.
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        with open(HERE / "out" / "spread.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: output checks failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{m['name']:14s} median {med:12.6g} {m['unit']:9s} spread "
              f"{(q3 - q1) / med:.4f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
