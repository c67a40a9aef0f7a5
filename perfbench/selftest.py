"""Fast self-test of the benchmark at tiny sizes (about 15 seconds).

    python3 perfbench/selftest.py

For every workload, with ``--trace 0`` and ``--trace 1``, it runs
``run.py --tiny`` for one second and checks that the last line of output is
the result object, that every metric named in ``BENCHMARK.json`` for that
kind of run is emitted with its unit and a finite value, and that every
output check passed. It then copies only ``BENCHMARK.json`` and the
benchmark's files into ``perfbench/out/bare`` and checks that a run there,
with no program to import, exits with an error and prints no result.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}, stderr: {proc.stderr.strip()}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{where}: output checks failed:\n{proc.stdout}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted is {result.get('attempted')!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {m.get('unit')!r}, not {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} has value {value!r}")
    return problems


def check_bare(spec: dict) -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run without the program: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_result(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    found = check_bare(spec)
    print(f"run without the program: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
