"""In-memory span tracing of ocrlab's layers, installed from the benchmark.

``install(tracer)`` replaces the layer entry points that the workloads reach
(module functions and oracle/policy methods) with wrappers that record one
span per call: name, parent span, start and end. Nothing under ``src/`` is
edited; ``uninstall`` puts the originals back. Spans stay in Python lists
until ``Tracer.arrays`` hands them over for the per-layer metrics and for
writing out at the end of the run.

Only the traced run installs wrappers, so the untraced timings carry no
tracing cost. Wrappers run in the benchmark process; pool children forked
while they are installed run them too, but their spans are lost, which is
why the traced run replays Monte Carlo rounds with ``workers=1``.
"""

from __future__ import annotations

import time
from multiprocessing.reduction import ForkingPickler

import numpy as np

from ocrlab import constructions, core, feasibility, montecarlo, policies, solvers

CLOCK = time.perf_counter


class Tracer:
    """Spans of one traced round plus counters taken at the same boundaries."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.id_names: list[str] = []
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.value_uniforms = 0
        self.first_job = None

    def open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.id_names)
            self.id_names.append(name)
        idx = len(self.names)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(CLOCK())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = CLOCK()
        self.stack.pop()

    def current(self) -> str | None:
        return self.id_names[self.names[self.stack[-1]]] if self.stack else None

    def arrays(self) -> dict[str, np.ndarray]:
        names = np.asarray(self.names, dtype=np.int32)
        parents = np.asarray(self.parents, dtype=np.int64)
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends, dtype=np.float64)
        return {"name": names, "parent": parents, "start": starts, "end": ends}

    def job_bytes(self) -> int:
        """Pickled size of the first chunk job, as a process pool sends it."""
        if self.first_job is None:
            return 0
        return len(ForkingPickler.dumps(self.first_job))

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds
        (duration minus the part covered by direct child spans), plus the
        list of inclusive durations."""
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        has_parent = arr["parent"] >= 0
        child = np.bincount(arr["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for name, nid in self.name_ids.items():
            mask = arr["name"] == nid
            out[name] = {"calls": int(mask.sum()), "total_s": float(dur[mask].sum()),
                         "self_s": float(self_time[mask].sum()),
                         "durations": dur[mask]}
        return out


class _TracedGenerator:
    """Forwards to a NumPy Generator; value-stream ``random`` draws are
    spanned as value sampling and their uniforms counted."""

    __slots__ = ("_gen", "_tracer", "_values")

    def __init__(self, gen, tracer: Tracer, values: bool):
        self._gen = gen
        self._tracer = tracer
        self._values = values

    def random(self, size=None, *args, **kwargs):
        if not self._values:
            return self._gen.random(size, *args, **kwargs)
        tracer = self._tracer
        tracer.value_uniforms += 1 if size is None else int(np.prod(size))
        if tracer.current() == "core.value_sampling":
            return self._gen.random(size, *args, **kwargs)
        idx = tracer.open("core.value_sampling")
        try:
            return self._gen.random(size, *args, **kwargs)
        finally:
            tracer.close(idx)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _traced_trial_rng(tracer: Tracer, original):
    def trial_rng(seed, trial, stream=core.STREAM_VALUES):
        idx = tracer.open("core.trial_rng")
        try:
            gen = original(seed, trial, stream)
        finally:
            tracer.close(idx)
        return _TracedGenerator(gen, tracer, stream == core.STREAM_VALUES)
    return trial_rng


def _traced_chunk_worker(tracer: Tracer, original):
    def _chunk_worker(args):
        if tracer.first_job is None:
            tracer.first_job = args
        engine = args[-1]
        kind = "generic" if engine == "generic" else "fast"
        idx = tracer.open(f"montecarlo.chunk.{kind}")
        try:
            return original(args)
        finally:
            tracer.close(idx)
    return _chunk_worker


ORACLE_CLASSES = (feasibility.ExplicitFamilyOracle, feasibility.KUniformOracle,
                  feasibility.TreePathOracle, feasibility.PartitionOneBlockOracle,
                  feasibility.PairMatchOracle, feasibility.NestedPhaseOracle)


def _patch_points(tracer: Tracer):
    """(owner, attribute, replacement) for every wrapped entry point."""
    points = []
    rng = _traced_trial_rng(tracer, core.trial_rng)
    for module in (core, montecarlo, constructions):
        points.append((module, "trial_rng", rng))
    points += [
        (core, "allowed_actions",
         _spanned(tracer, "core.allowed_actions", core.allowed_actions)),
        (montecarlo, "run_policy", _spanned(tracer, "core.run_policy", core.run_policy)),
        (montecarlo, "sample_values",
         _spanned(tracer, "core.value_sampling", core.sample_values)),
        (montecarlo, "sample_tree_order",
         _spanned(tracer, "constructions.tree_order", montecarlo.sample_tree_order)),
        (montecarlo, "_sample_tree_raw",
         _spanned(tracer, "constructions.tree_order", montecarlo._sample_tree_raw)),
        (montecarlo, "_chunk_worker",
         _traced_chunk_worker(tracer, montecarlo._chunk_worker)),
        (montecarlo, "simulate_many",
         _spanned(tracer, "montecarlo.simulate_many", montecarlo.simulate_many)),
        (solvers, "opt_aware_exact",
         _spanned(tracer, "solvers.solve", solvers.opt_aware_exact)),
        (solvers, "opt_unaware_exact",
         _spanned(tracer, "solvers.solve", solvers.opt_unaware_exact)),
    ]
    for cls in ORACLE_CLASSES:
        points.append((cls, "can_extend", _spanned(
            tracer, f"feasibility.can_extend.{cls.kind}", cls.can_extend)))
    for cls in vars(policies).values():
        if isinstance(cls, type) and issubclass(cls, policies.Policy):
            for method in ("decide", "notify"):
                if method in vars(cls):
                    points.append((cls, method, _spanned(
                        tracer, f"policies.{method}", vars(cls)[method])))
    return points


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install the wrappers; returns what ``uninstall`` needs to undo them."""
    saved = []
    for owner, attr, replacement in _patch_points(tracer):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
