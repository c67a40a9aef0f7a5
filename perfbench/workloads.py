"""The four benchmark workloads, built only from ocrlab's public API.

Each workload has a set-up step, paid the way a CLI user pays it (build the
instances, write them with ``dump_instance``, read them back with
``load_instance``, parse the policy specs), and a round: a fixed unit of work
that the run repeats and times. Every round of a run does the same work on
the same inputs, so its outputs must be identical from round to round and
equal to the values recorded in ``golden.json``.

The workload seed picks one of ``N_CELLS`` input cells (the simulation seed
of the Monte Carlo rounds), so that every run's outputs can be checked
against values recorded when the benchmark was defined. The exact solvers'
inputs do not depend on the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

from ocrlab import montecarlo, solvers
from ocrlab.constructions import (build_multiunit_instance, build_nested_scaled,
                                  build_tree_instance)
from ocrlab.core import dump_instance, load_instance
from ocrlab.policies import parse_policy_spec

N_CELLS = 32
WIDE_LIMITS = solvers.SolverLimits(max_elements=64, max_states=10_000_000)

# the five threshold policies of the criterion 2 acceptance test
MULTIUNIT_POLICIES = {
    "pi1_aware_1.152": "multiunit_threshold:d=1.152,variant=pi1",
    "pi2_aware_0.674": "multiunit_threshold:d=0.674,variant=pi2",
    "commit_0": "multiunit_threshold:d=0,variant=unaware",
    "commit_0.913": "multiunit_threshold:d=0.913,variant=unaware",
    "commit_1.152": "multiunit_threshold:d=1.152,variant=unaware",
}
# the seven policies of the criterion 3 acceptance test
TREE_POLICIES = {"tree_aware": "tree_aware",
                 **{f"tree_gamble_l{l}": f"tree_gamble:l={l}" for l in range(5)},
                 "greedy": "greedy"}
# criterion 2: aware means at least 2k - c*sqrt(k) on their own order
CRITERION2_BOUNDS = {"pi1/pi1_aware_1.152": 0.295, "pi2/pi2_aware_0.674": 0.228}
# the criterion 2 bound is checked on a round's estimate, so it allows
# for that estimate's own sampling error
CRITERION2_STDERRS = 4.0


@dataclass(frozen=True)
class Sizes:
    mu_k: int
    mu_trials: int
    tree_k: int
    tree_trials: int
    generic_mu_k: int
    generic_trials: int
    exact_mu_k: int
    nested: tuple[int, int, int, int]  # k1, k2, k3, u_size


FULL = Sizes(mu_k=10_000, mu_trials=2048, tree_k=4, tree_trials=8192,
             generic_mu_k=100, generic_trials=16, exact_mu_k=5, nested=(3, 16, 32, 4))
TINY = Sizes(mu_k=100, mu_trials=256, tree_k=2, tree_trials=2100,
             generic_mu_k=10, generic_trials=8, exact_mu_k=2, nested=(2, 8, 12, 3))


@dataclass
class Loaded:
    """One instance after the file round trip, with its orders and policies."""

    instance: object
    orders: object
    policies: list
    names: list[str]


@dataclass
class RoundResult:
    values: dict[str, float]  # checked against golden.json
    stderrs: dict[str, float]
    trials: int
    states_expanded: int = 0


def _load(tmpdir: Path, tag: str, built, specs: dict[str, str]) -> Loaded:
    instance, orders = built if isinstance(built, tuple) else (built, None)
    path = tmpdir / f"{tag}.json"
    dump_instance(instance, path, orders)
    instance, orders = load_instance(path)
    return Loaded(instance, orders, [parse_policy_spec(s) for s in specs.values()],
                  list(specs))


def _mc_values(prefix: str, loaded: Loaded, reports) -> tuple[dict, dict]:
    means = {f"{prefix}/{n}": r.mean for n, r in zip(loaded.names, reports)}
    errs = {f"{prefix}/{n}": r.stderr for n, r in zip(loaded.names, reports)}
    return means, errs


class Workload:
    name = ""
    seeded = True  # whether the seed changes the inputs
    workers = 1
    relative = True  # golden tolerance: 1e-9 relative (MC) or absolute (exact)

    def builds(self, sizes: Sizes) -> dict:
        """tag -> zero-argument constructor; their calls are timed as
        construction."""
        raise NotImplementedError

    def specs(self, tag: str) -> dict[str, str]:
        return {}

    def setup(self, sizes: Sizes, tmpdir: Path) -> tuple[dict[str, Loaded], float]:
        """Construction then the file round trip; returns the loaded
        instances and the construction seconds."""
        t0 = time.perf_counter()
        built = {tag: make() for tag, make in self.builds(sizes).items()}
        build_s = time.perf_counter() - t0
        return {tag: _load(tmpdir, f"{self.name}-{tag}", b, self.specs(tag))
                for tag, b in built.items()}, build_s

    def run(self, state, sizes: Sizes, cell: int, workers: int) -> RoundResult:
        raise NotImplementedError

    def extra_checks(self, state, sizes: Sizes, cell: int,
                     result: RoundResult) -> list[tuple[str, bool]]:
        return []


class McMultiunit(Workload):
    name = "mc_multiunit"

    def builds(self, sizes):
        return {"mu": lambda: build_multiunit_instance(sizes.mu_k)}

    def specs(self, tag):
        return MULTIUNIT_POLICIES

    def run(self, state, sizes, cell, workers):
        mu = state["mu"]
        values, errs = {}, {}
        for tag, order in zip(("pi1", "pi2"), mu.orders.orders):
            reports = montecarlo.simulate_many(mu.policies, mu.instance,
                                               montecarlo.FixedOrder(order),
                                               trials=sizes.mu_trials, seed=cell,
                                               workers=workers)
            m, e = _mc_values(tag, mu, reports)
            values.update(m)
            errs.update(e)
        return RoundResult(values, errs, trials=2 * sizes.mu_trials)

    def extra_checks(self, state, sizes, cell, result):
        k = sizes.mu_k
        return [(f"criterion 2 bound on {key}",
                 result.values[key] + CRITERION2_STDERRS * result.stderrs[key]
                 >= 2 * k - c * math.sqrt(k))
                for key, c in CRITERION2_BOUNDS.items()]


class McTree(Workload):
    name = "mc_tree"
    workers = 2

    def builds(self, sizes):
        return {"tree": lambda: build_tree_instance(sizes.tree_k)}

    def specs(self, tag):
        return TREE_POLICIES

    def run(self, state, sizes, cell, workers):
        tree = state["tree"]
        reports = montecarlo.simulate_many(tree.policies, tree.instance,
                                           montecarlo.TreeOrders(),
                                           trials=sizes.tree_trials, seed=cell,
                                           workers=workers)
        values, errs = _mc_values("tree", tree, reports)
        return RoundResult(values, errs, trials=sizes.tree_trials)


class GenericEngine(Workload):
    name = "generic_engine"

    def builds(self, sizes):
        return {"mu": lambda: build_multiunit_instance(sizes.generic_mu_k),
                "tree": lambda: build_tree_instance(sizes.tree_k)}

    def specs(self, tag):
        return MULTIUNIT_POLICIES if tag == "mu" else TREE_POLICIES

    def _simulate(self, state, sizes, cell, fast):
        mu, tree = state["mu"], state["tree"]
        cells = [("mu_pi2", mu, montecarlo.FixedOrder(mu.orders.orders[1])),
                 ("tree", tree, montecarlo.TreeOrders())]
        values, errs = {}, {}
        for prefix, loaded, source in cells:
            reports = montecarlo.simulate_many(loaded.policies, loaded.instance, source,
                                               trials=sizes.generic_trials, seed=cell,
                                               fast=fast)
            m, e = _mc_values(prefix, loaded, reports)
            values.update(m)
            errs.update(e)
        return values, errs

    def run(self, state, sizes, cell, workers):
        values, errs = self._simulate(state, sizes, cell, fast=False)
        return RoundResult(values, errs, trials=2 * sizes.generic_trials)

    def extra_checks(self, state, sizes, cell, result):
        fast, _ = self._simulate(state, sizes, cell, fast=True)
        return [(f"generic mean equals fast-path mean on {key}",
                 _close(result.values[key], fast[key], relative=True))
                for key in fast]


class ExactSolve(Workload):
    name = "exact_solve"
    seeded = False
    relative = False

    def builds(self, sizes):
        k1, k2, k3, u_size = sizes.nested
        return {"mu": lambda: build_multiunit_instance(sizes.exact_mu_k),
                "nested": lambda: build_nested_scaled(k1, k2, k3, u_size=u_size, q=0.1)}

    def run(self, state, sizes, cell, workers):
        mu, nested = state["mu"], state["nested"]
        solves = {
            "mu/aware_pi1": lambda: solvers.opt_aware_exact(
                mu.instance, mu.orders.orders[0], limits=WIDE_LIMITS),
            "mu/aware_pi2": lambda: solvers.opt_aware_exact(
                mu.instance, mu.orders.orders[1], limits=WIDE_LIMITS),
            "mu/unaware": lambda: solvers.opt_unaware_exact(
                mu.instance, mu.orders, limits=WIDE_LIMITS),
            "nested/unaware": lambda: solvers.opt_unaware_exact(
                nested.instance, nested.orders, limits=WIDE_LIMITS),
            "nested/aware_0": lambda: solvers.opt_aware_exact(
                nested.instance, nested.orders.orders[0], limits=WIDE_LIMITS),
        }
        values, states = {}, 0
        for key, solve in solves.items():
            res = solve()
            values[key] = res.value
            states += res.states_expanded
        # one exact solve counts as one trial of this workload
        return RoundResult(values, {}, trials=len(solves), states_expanded=states)


WORKLOADS = {w.name: w for w in (McMultiunit(), McTree(), GenericEngine(), ExactSolve())}


def _close(a: float, b: float, relative: bool) -> bool:
    scale = max(abs(a), abs(b), 1e-300) if relative else 1.0
    return abs(a - b) <= 1e-9 * scale


def golden_key(workload: Workload, cell: int) -> str:
    return str(cell) if workload.seeded else "any"


def compare_golden(workload: Workload, expected: dict[str, float],
                   values: dict[str, float]) -> list[str]:
    """Names of outputs that are missing or differ from the recorded ones."""
    if set(expected) != set(values):
        return sorted(set(expected) ^ set(values))
    return [k for k in expected
            if not _close(values[k], expected[k], workload.relative)]
