"""Record the outputs that every benchmark run is checked against.

    python3 perfbench/record_golden.py

runs one round of every workload on every input cell, at full and tiny
sizes, and writes ``perfbench/golden.json``. Run it only at a commit whose
outputs are known to be right: the benchmark then holds every later commit
to the same values (Monte Carlo means to 1e-9 relative, exact values to
1e-9 absolute).
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, OUT, git_commit, import_program


def main() -> int:
    import_program()
    import workloads as wl
    tmpdir = OUT / "instances"
    tmpdir.mkdir(parents=True, exist_ok=True)
    doc = {"git_commit": git_commit()}
    for scale, sizes in (("tiny", wl.TINY), ("full", wl.FULL)):
        doc[scale] = {}
        for workload in wl.WORKLOADS.values():
            t0 = time.perf_counter()
            state, _ = workload.setup(sizes, tmpdir)
            cells = range(wl.N_CELLS) if workload.seeded else [0]
            doc[scale][workload.name] = {
                wl.golden_key(workload, cell):
                    workload.run(state, sizes, cell, workload.workers).values
                for cell in cells}
            print(f"{scale} {workload.name}: {time.perf_counter() - t0:.1f}s",
                  file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
