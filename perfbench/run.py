"""ocrlab benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_multiunit --seed 3 --seconds 25 --trace 0

``--trace 0`` times the workload with no wrappers installed and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the per-layer
metrics from a separate traced phase (see ``tracing.py``). Both kinds of run
check every round's outputs against ``golden.json`` and count failed checks
and raised exceptions. Human-readable lines come first; the last line of
standard output is the JSON result. A record of the run (metrics, checks,
machine facts, git commit, ``src/ocrlab`` line count, CPU steal ticks) is
appended to ``perfbench/out/results.jsonl``; a traced run also writes the
spans of its first traced round to ``perfbench/out/<workload>.spans.npz``.
The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 500
SETUP_SECONDS = 3.0
ORACLE_KINDS = ("k_uniform", "tree_path", "nested_phase")


def import_program():
    """Import ocrlab from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ocrlab
    if Path(ocrlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ocrlab resolved to {ocrlab.__file__}, not under {SRC}")
    return ocrlab


# --- facts stored with every result -------------------------------------------


def read_steal_ticks() -> int | None:
    """CPU steal ticks summed over all CPUs (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "ocrlab").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit(), "src_ocrlab_lines": src_lines}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its finished
    children (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# --- the run --------------------------------------------------------------------


class Checks:
    """Output checks and raised exceptions, counted against attempts."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def timed_rounds(rounds: dict, budget_s: float, min_rounds: int,
                 checks: Checks) -> dict[str, tuple[list[float], list]]:
    """Run the named rounds in turn, one of each per pass, until each has
    ``min_rounds`` successes (or as many failures) and another pass would
    overrun ``budget_s``. Alternating spreads slow spells of the machine
    over all kinds of round alike. Returns the wall time and result of each
    success, per name."""
    out = {label: ([], []) for label in rounds}
    failed = 0
    t_start = time.perf_counter()
    last_pass = 0.0
    while failed < min_rounds and (
            min(len(w) for w, _ in out.values()) < min_rounds
            or time.perf_counter() - t_start + last_pass <= budget_s):
        t_pass = time.perf_counter()
        for label, run_round in rounds.items():
            t0 = time.perf_counter()
            try:
                result = run_round()
            except Exception:  # an exception in the program is a failed attempt
                traceback.print_exc()
                checks.record(f"{label}: round raised", False)
                failed += 1
                continue
            out[label][0].append(time.perf_counter() - t0)
            out[label][1].append(result)
        last_pass = time.perf_counter() - t_pass
    return out


def check_rounds(workload, expected, results, checks: Checks, label: str) -> None:
    from workloads import compare_golden
    for i, result in enumerate(results):
        bad = compare_golden(workload, expected, result.values)
        checks.record(f"{label} round {i}: outputs differ from golden.json: {bad}",
                      not bad)


def layer_metrics(tracer, result, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    totals = tracer.layer_totals()

    def get(name, key):
        return totals[name][key] if name in totals else 0

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "total_s") / calls * 1e6 if calls else 0.0

    m = {
        "core.trial_rng.calls": get("core.trial_rng", "calls"),
        "core.value_uniforms": tracer.value_uniforms,
        "core.value_sampling.self_s": get("core.value_sampling", "self_s"),
        "core.run_policy.calls": get("core.run_policy", "calls"),
        "core.run_policy.self_s": get("core.run_policy", "self_s"),
        "core.allowed_actions.calls": get("core.allowed_actions", "calls"),
        "core.allowed_actions.us_per_call": per_call_us("core.allowed_actions"),
    }
    ce_calls = ce_total = ce_self = 0
    for kind in ORACLE_KINDS:
        name = f"feasibility.can_extend.{kind}"
        m[f"feasibility.can_extend.calls.{kind}"] = get(name, "calls")
    for name, t in totals.items():
        if name.startswith("feasibility.can_extend."):
            ce_calls += t["calls"]
            ce_total += t["total_s"]
            ce_self += t["self_s"]
    m["feasibility.can_extend.self_s"] = ce_self
    m["feasibility.can_extend.us_per_call"] = ce_total / ce_calls * 1e6 if ce_calls else 0.0
    m.update({
        "constructions.tree_order.calls": get("constructions.tree_order", "calls"),
        "constructions.tree_order.self_s": get("constructions.tree_order", "self_s"),
        "constructions.tree_order.us_per_call": per_call_us("constructions.tree_order"),
    })
    decide, notify = get("policies.decide", "calls"), get("policies.notify", "calls")
    m.update({
        "policies.decide.calls": decide,
        "policies.notify.calls": notify,
        "policies.decide_share": decide / (decide + notify) if decide + notify else 0.0,
        "policies.decide.self_s": get("policies.decide", "self_s"),
    })
    chunk_ms = 1e3 * np.concatenate([totals[n]["durations"] for n in
                                     ("montecarlo.chunk.fast", "montecarlo.chunk.generic")
                                     if n in totals] or [np.zeros(0)])

    def chunk_pct(q):
        return float(np.percentile(chunk_ms, q)) if chunk_ms.size else 0.0

    m.update({
        "montecarlo.chunks": int(chunk_ms.size),
        "montecarlo.chunk_p50_ms": chunk_pct(50),
        "montecarlo.chunk_p90_ms": chunk_pct(90),
        "montecarlo.engine.fast_chunks": get("montecarlo.chunk.fast", "calls"),
        "montecarlo.engine.generic_chunks": get("montecarlo.chunk.generic", "calls"),
        "montecarlo.fastpath.self_s": get("montecarlo.chunk.fast", "self_s"),
        "montecarlo.merge_s": get("montecarlo.simulate_many", "self_s"),
        "montecarlo.pool.job_bytes": tracer.job_bytes() if workers > 1 else 0,
    })
    states = result.states_expanded
    solve_s = get("solvers.solve", "total_s")
    m.update({
        "solvers.states_expanded": states,
        "solvers.solve_s": solve_s,
        "solvers.us_per_state": solve_s / states * 1e6 if states else 0.0,
        "solvers.can_extend_per_state": ce_calls / states if states else 0.0,
    })
    return m


# metrics in these units are counts or ratios of counts, which repeat exactly
COUNT_UNITS = ("count", "bytes", "ratio")


def per_layer(spec, workload, tracers, done, build_times, checks: Checks) -> dict:
    """Per-layer metrics of a traced run: counts from the first traced round
    (checked to repeat in every other), times as medians over rounds."""
    per_round = [layer_metrics(t, r, workload.workers)
                 for t, r in zip(tracers, done["traced"][1])]
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name not in per_round[0]:
            continue
        values = [r[name] for r in per_round]
        if m["unit"] in COUNT_UNITS:
            checks.record(f"count {name} repeats across traced rounds",
                          len(set(values)) == 1)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["constructions.build_s"] = statistics.median(build_times)
    serial = statistics.median(done["untraced serial"][0])
    metrics["montecarlo.pool.overhead_s"] = (
        statistics.median(done["untraced pool"][0]) - serial / workload.workers
        if "untraced pool" in done else 0.0)
    metrics["trace.overhead_frac"] = statistics.median(done["traced"][0]) / serial - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test only")
    args = parser.parse_args(argv)

    try:
        import_program()
        import workloads as wl
        import tracing as tr
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    sizes = wl.TINY if args.tiny else wl.FULL
    cell = args.seed % wl.N_CELLS
    expected = golden["tiny" if args.tiny else "full"][workload.name][
        wl.golden_key(workload, cell)]

    steal0 = read_steal_ticks()
    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / "instances"
    tmpdir.mkdir(exist_ok=True)
    checks = Checks()

    # set-up: construction plus the instance-file round trip, repeated; each
    # repetition starts from a collected heap, as a fresh CLI process would
    setup_times, build_times, state = [], [], None
    t_setup = time.perf_counter()
    while (len(setup_times) < SETUP_MIN_REPS
           or (time.perf_counter() - t_setup < SETUP_SECONDS
               and len(setup_times) < SETUP_MAX_REPS)):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state, build_s = workload.setup(sizes, tmpdir)
        setup_times.append(time.perf_counter() - t0)
        build_times.append(build_s)

    def untraced(workers):
        return lambda: workload.run(state, sizes, cell, workers)

    tracers = []

    def traced():
        tracer = tr.Tracer()
        saved = tr.install(tracer)
        try:
            result = workload.run(state, sizes, cell, 1)
        finally:
            tr.uninstall(saved)
        tracers.append(tracer)
        return result

    pooled = workload.workers > 1
    if args.trace == 0:
        rounds = {"untraced": untraced(workload.workers)}
    else:
        # traced rounds replay the workload serially, so that no span is
        # lost in a pool child; untraced serial rounds are their baseline
        rounds = {"untraced pool": untraced(workload.workers)} if pooled else {}
        rounds.update({"untraced serial": untraced(1), "traced": traced})
    done = timed_rounds(rounds, args.seconds, MIN_ROUNDS if args.trace == 0 else 1,
                        checks)
    for label, (_, results) in done.items():
        check_rounds(workload, expected, results, checks, label)
    first = next((results[0] for _, results in done.values() if results), None)
    if first is not None:
        try:
            for label, ok in workload.extra_checks(state, sizes, cell, first):
                checks.record(label, ok)
        except Exception:  # an exception in the program is a failed attempt
            traceback.print_exc()
            checks.record("extra checks raised", False)
    record: dict = {f"{label} walls": walls for label, (walls, _) in done.items()}

    metrics: dict[str, float] = {}
    if all(walls for walls, _ in done.values()):
        if args.trace == 0:
            walls, results = done["untraced"]
            # the host's speed drifts for tens of seconds at a time, so the
            # whole timed phase, not its median round, is the steadier figure
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": sum(walls) / len(walls),
                "trials_per_s": sum(r.trials for r in results) / sum(walls),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            metrics = per_layer(spec, workload, tracers, done, build_times, checks)
            np.savez(OUT / f"{workload.name}.spans.npz",
                     names=np.asarray(tracers[0].id_names), **tracers[0].arrays())

    steal1 = read_steal_ticks()
    failed = len(checks.failures)
    if not metrics:
        print("perfbench: no round completed; no result", file=sys.stderr)
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {workload.name}  seed {args.seed} (input cell {cell})  "
          f"trace {args.trace}  sizes {'tiny' if args.tiny else 'full'}")
    for name, m in result.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed / max(checks.attempted, 1):>16.6g} ratio "
          f"({failed} of {checks.attempted} checks failed)")
    for label in checks.failures:
        print(f"  FAILED: {label}")

    record.update({
        "workload": workload.name, "seed": args.seed, "cell": cell, "trace": args.trace,
        "seconds": args.seconds, "sizes": "tiny" if args.tiny else "full",
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "metrics": result,
        "attempted": checks.attempted, "failed": failed,
        "failed_frac": failed / max(checks.attempted, 1), "failures": checks.failures,
        "setup_samples": setup_times, "machine": machine_facts(),
        "steal_ticks": (steal1 - steal0) if steal0 is not None and steal1 is not None else None,
    })
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
