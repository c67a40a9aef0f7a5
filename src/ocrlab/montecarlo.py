"""Monte-Carlo estimation of policy values and ratio reports.

Trials are aggregated in fixed chunks whose partial sums are combined in
chunk-index order, so results are bit-identical for any worker count. The
generic path runs the policy through ``run_policy``; recognized
(construction, policy) pairs take closed-form or walker-based fast paths that
replicate the generic semantics exactly (cross-validated in tests).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (STREAM_ORDER, STREAM_POLICY, STREAM_VALUES, ArrivalOrder,
                   FiniteOrderDistribution, Instance, Trace, ValueDistribution,
                   check_order, run_policy, sample_values, trial_rng)
from .constructions import _sample_tree_raw, sample_tree_order
from .feasibility import KUniformOracle, TreePathOracle, tree_n, tree_offsets
from .policies import (AlwaysDiscardPolicy, GreedyPolicy, Knowledge,
                       MultiunitThresholdPolicy, Policy, TreeAwarePolicy,
                       TreeGamblePolicy)

CHUNK_SIZE = 1024
TRACE_CAP = 1000


@dataclass(frozen=True)
class EvalReport:
    mean: float
    stderr: float
    ci95: tuple[float, float]
    trials: int
    seed: int

    def as_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "ci95": [self.ci95[0], self.ci95[1]],
                "trials": self.trials, "seed": self.seed}


def _report(total: float, total_sq: float, trials: int, seed: int) -> EvalReport:
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    stderr = math.sqrt(var / trials)
    half = 1.96 * stderr
    return EvalReport(mean=mean, stderr=stderr, ci95=(mean - half, mean + half),
                      trials=trials, seed=seed)


# --- order sources ---------------------------------------------------------------


@dataclass(frozen=True)
class FixedOrder:
    """Every trial uses the same order."""

    order: ArrivalOrder

    def distribution(self, n: int) -> FiniteOrderDistribution:
        return FiniteOrderDistribution.uniform([check_order(self.order, n)])

    def realize(self, instance, seed, trial):
        return self.order, {}


@dataclass(frozen=True)
class SampledOrders:
    """Per trial, one order drawn from a finite distribution."""

    dist: FiniteOrderDistribution

    def distribution(self, n: int) -> FiniteOrderDistribution:
        return self.dist

    def realize(self, instance, seed, trial):
        idx = self.dist.sample_index(trial_rng(seed, trial, STREAM_ORDER))
        return self.dist.orders[idx], {}


@dataclass(frozen=True)
class TreeOrders:
    """Per trial, a fresh draw of the tree order recursion. With ``pool``
    set, trial t reuses realization t mod pool; with ``fixed`` set, every
    trial uses realization ``fixed``. Realizations are keyed by their own
    index, so both modes are deterministic."""

    pool: int | None = None
    fixed: int | None = None

    def distribution(self, n: int) -> None:
        return None

    def order_trial(self, trial: int) -> int:
        if self.fixed is not None:
            return self.fixed
        return trial % self.pool if self.pool else trial

    def realize(self, instance, seed, trial):
        real = sample_tree_order(instance, seed, self.order_trial(trial))
        return real.order, {"good": real.good}


def _knowledge_for(policy: Policy, instance: Instance, source, order, side_info) -> Knowledge:
    if policy.aware:
        return Knowledge.aware(order, **side_info)
    return Knowledge.unaware(source.distribution(instance.n))


# --- chunk evaluation --------------------------------------------------------------


def _generic_chunk(instance, policies, source, seed, start, count) -> np.ndarray:
    totals = np.empty((len(policies), count), dtype=np.float64)
    for i in range(count):
        trial = start + i
        order, side_info = source.realize(instance, seed, trial)
        values = sample_values(instance, seed, trial)
        for p_idx, policy in enumerate(policies):
            kn = _knowledge_for(policy, instance, source, order, side_info)
            policy.start(instance, kn, rng=trial_rng(seed, trial, STREAM_POLICY))
            totals[p_idx, i] = run_policy(policy, instance, order, values).total
    return totals


# fast path: multi-unit threshold policies on a canonical order ---------------------


def _multiunit_order_tag(instance: Instance, order: ArrivalOrder) -> str | None:
    k = int(instance.metadata["k"])
    a = tuple(range(k))
    b = tuple(range(k, 2 * k))
    c = tuple(range(2 * k, 4 * k))
    if order == a + b + c:
        return "pi1"
    if order == a + c + b:
        return "pi2"
    return None


def _multiunit_totals_from_x(policy: MultiunitThresholdPolicy, k: int,
                             x: np.ndarray, tag: str) -> np.ndarray:
    """Closed form of the threshold policy's value as a function of the
    number of value-2 elements; mirrors the step-by-step policy exactly."""
    m = math.floor(policy.d * math.sqrt(k / 2))
    s = np.minimum(k - m, x)
    base = 1.75 * m
    if policy.variant == "pi1":
        return base + 2.0 * s
    if policy.variant == "pi2":
        if tag == "pi1":
            return np.full_like(s, base + (k - m), dtype=np.float64)
        return base + s + (k - m)
    # the committed rule plays pi1-style when units precede the random block
    # and pi2-style otherwise
    if tag == "pi1":
        return base + 2.0 * s
    return base + s + (k - m)


def _random_block_twos(k: int, seed: int, start: int, count: int) -> np.ndarray:
    """Per trial, how many of the 2k random-block elements draw value 2: of
    the value stream's words 2k..4k-1, those with the top bit set, as
    ``random`` maps word w to (w >> 11) * 2**-53 and value 2 is u >= 0.5.
    ``advance`` skips 4 words per Philox step; ``lead`` more are dropped."""
    skip, lead = divmod(2 * k, 4)
    x = np.empty(count, dtype=np.int64)
    for i in range(count):
        bits = trial_rng(seed, start + i, STREAM_VALUES).bit_generator
        bits.advance(skip)
        w = bits.random_raw(2 * k + lead)[lead:]
        x[i] = np.count_nonzero(w.view(np.int64) < 0)
    return x


def _multiunit_chunk(instance, policies, source, seed, start, count) -> np.ndarray:
    k = int(instance.metadata["k"])
    tag = _multiunit_order_tag(instance, source.order)
    x = _random_block_twos(k, seed, start, count)
    totals = np.empty((len(policies), count), dtype=np.float64)
    for p_idx, policy in enumerate(policies):
        totals[p_idx] = _multiunit_totals_from_x(policy, k, x, tag)
    return totals


def _has_value_groups(instance: Instance, runs) -> bool:
    """Whether ``sample_values`` draws the elements from exactly the given
    ``(first id, stop, distribution)`` runs; reads the cached groups."""
    groups = instance._value_groups()
    return len(groups) == len(runs) and all(
        len(ids) == stop - first and ids[0] == first and ids[-1] == stop - 1
        and values.tolist() == list(dist.support())
        and cum.tolist() == dist.cumulative().tolist()
        for (ids, values, cum), (first, stop, dist) in zip(groups, runs))


def _multiunit_fast_ok(instance, policies, source) -> bool:
    if instance.metadata.get("construction") != "multiunit":
        return False
    k = int(instance.metadata["k"])
    oracle = instance.feasibility
    return (type(oracle) is KUniformOracle and (oracle.n, oracle.k) == (4 * k, k)
            and _has_value_groups(instance, (
                (0, k, ValueDistribution.deterministic(1.75)),
                (k, 2 * k, ValueDistribution.deterministic(1.0)),
                (2 * k, 4 * k, ValueDistribution(((0.0, 0.5), (2.0, 0.5))))))
            and isinstance(source, FixedOrder)
            and _multiunit_order_tag(instance, source.order) is not None
            and all(isinstance(p, MultiunitThresholdPolicy) for p in policies)
            and all(math.floor(p.d * math.sqrt(k / 2)) <= k for p in policies))


# fast path: tree policies under the recursive order distribution -------------------


def _tree_aware_total(k: int, offs, r_by_node, v1: np.ndarray) -> float:
    total = 0.0
    tip = 0
    for layer in range(1, k + 1):
        cand = r_by_node[(layer - 1, tip)] if layer <= k - 2 else range(k)
        chosen = None
        for j in cand:
            m = tip * k + j
            if v1[offs[layer - 1] + m]:
                chosen = m
                total += 1.0
                break
        if chosen is None:
            chosen = tip * k + (cand[-1] if layer <= k - 2 else k - 1)
        tip = chosen
    return total


def _is_ancestor(k: int, lo_layer: int, lo_m: int, hi_layer: int, hi_m: int) -> bool:
    return hi_m // k ** (hi_layer - lo_layer) == lo_m


def _tree_gamble_total(k: int, l: int, arrivals: list[tuple[int, int]]) -> float:
    """Replays the gamble rule over the value-1 elements in arrival order;
    value-0 elements never change its state."""
    tip_layer, tip_m = 0, 0
    count = 0
    d1 = d2 = None  # selections in the two deepest layers
    total = 0.0
    for layer, m in arrivals:
        if layer <= k - 2:
            if (count < l and layer == tip_layer + 1 and m // k == tip_m
                    and (d1 is None or _is_ancestor(k, layer, m, k - 1, d1))
                    and (d2 is None or _is_ancestor(k, layer, m, k, d2))):
                tip_layer, tip_m = layer, m
                count += 1
                total += 1.0
        elif layer == k - 1:
            if (d1 is None and _is_ancestor(k, tip_layer, tip_m, k - 1, m)
                    and (d2 is None or d2 // k == m)):
                d1 = m
                total += 1.0
        else:
            if (d2 is None and _is_ancestor(k, tip_layer, tip_m, k, m)
                    and (d1 is None or m // k == d1)):
                d2 = m
                total += 1.0
    return total


def _tree_greedy_total(k: int, arrivals: list[tuple[int, int]]) -> float:
    # the selected nodes form a chain, and a node extends it exactly when it
    # is comparable with the deepest one; a node in an already selected layer
    # never is, because that layer's one ancestor of the deepest is selected
    deep_layer, deep_m = 0, 0
    total = 0.0
    for layer, m in arrivals:
        if layer <= deep_layer:
            ok = _is_ancestor(k, layer, m, deep_layer, deep_m)
        else:
            ok = _is_ancestor(k, deep_layer, deep_m, layer, m)
        if ok:
            total += 1.0
            if layer > deep_layer:
                deep_layer, deep_m = layer, m
    return total


def _tree_chunk(instance, policies, source, seed, start, count) -> np.ndarray:
    k = int(instance.metadata["k"])
    n = instance.n
    offs = tree_offsets(k)
    p_one = instance.dists[0].cumulative()[0]
    layer_of = np.empty(n, dtype=np.int64)
    m_of = np.empty(n, dtype=np.int64)
    for layer in range(1, k + 1):
        layer_of[offs[layer - 1]: offs[layer]] = layer
        m_of[offs[layer - 1]: offs[layer]] = np.arange(k ** layer)
    order_cache: dict[int, tuple] = {}
    totals = np.empty((len(policies), count), dtype=np.float64)
    ids = np.arange(n)
    for i in range(count):
        trial = start + i
        order_trial = source.order_trial(trial)
        cached = order_cache.get(order_trial)
        if cached is None:
            r_by_node, order = _sample_tree_raw(k, seed, order_trial)
            inv = np.empty(n, dtype=np.int64)
            inv[np.asarray(order)] = ids
            cached = (r_by_node, inv)
            if source.pool or source.fixed is not None:
                order_cache[order_trial] = cached
        r_by_node, inv = cached
        u = trial_rng(seed, trial, STREAM_VALUES).random(n)
        v1 = u < p_one
        v1_ids = np.flatnonzero(v1)
        v1_ids = v1_ids[np.argsort(inv[v1_ids], kind="stable")]
        arrivals = list(zip(layer_of[v1_ids].tolist(), m_of[v1_ids].tolist()))
        for p_idx, policy in enumerate(policies):
            if isinstance(policy, TreeAwarePolicy):
                totals[p_idx, i] = _tree_aware_total(k, offs, r_by_node, v1)
            elif isinstance(policy, TreeGamblePolicy):
                totals[p_idx, i] = _tree_gamble_total(k, policy.l, arrivals)
            elif isinstance(policy, GreedyPolicy):
                totals[p_idx, i] = _tree_greedy_total(k, arrivals)
            else:
                totals[p_idx, i] = 0.0
    return totals


def _tree_fast_ok(instance, policies, source) -> bool:
    if instance.metadata.get("construction") != "tree":
        return False
    k = int(instance.metadata["k"])
    oracle = instance.feasibility
    return (type(oracle) is TreePathOracle and oracle.k == k
            and _has_value_groups(instance,
                                  ((0, tree_n(k), ValueDistribution.bernoulli(1.0 / k)),))
            and isinstance(source, TreeOrders)
            and all(isinstance(p, (TreeAwarePolicy, TreeGamblePolicy, GreedyPolicy,
                                   AlwaysDiscardPolicy)) for p in policies))


# --- driver -------------------------------------------------------------------------


def _chunk_worker(args):
    instance, policies, source, seed, start, count, engine = args
    if engine == "multiunit":
        totals = _multiunit_chunk(instance, policies, source, seed, start, count)
    elif engine == "tree":
        totals = _tree_chunk(instance, policies, source, seed, start, count)
    else:
        totals = _generic_chunk(instance, policies, source, seed, start, count)
    return totals.sum(axis=1), (totals * totals).sum(axis=1)


def _pick_engine(instance, policies, source, fast: bool) -> str:
    if not fast:
        return "generic"
    if _multiunit_fast_ok(instance, policies, source):
        return "multiunit"
    if _tree_fast_ok(instance, policies, source):
        return "tree"
    return "generic"


def simulate_many(policies: list[Policy], instance: Instance, order_source,
                  trials: int, seed: int, workers: int = 1,
                  fast: bool = True) -> list[EvalReport]:
    """Evaluate several policies on shared per-trial realizations."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if isinstance(order_source, (tuple, list)):
        order_source = FixedOrder(check_order(order_source, instance.n))
    engine = _pick_engine(instance, policies, order_source, fast)
    starts = list(range(0, trials, CHUNK_SIZE))
    jobs = [(instance, policies, order_source, seed, s, min(CHUNK_SIZE, trials - s), engine)
            for s in starts]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_worker, jobs, chunksize=1))
    else:
        results = [_chunk_worker(j) for j in jobs]
    total = np.zeros(len(policies), dtype=np.float64)
    total_sq = np.zeros(len(policies), dtype=np.float64)
    for sums, sumsqs in results:  # fixed chunk order keeps sums bit-identical
        total += sums
        total_sq += sumsqs
    return [_report(float(total[i]), float(total_sq[i]), trials, seed)
            for i in range(len(policies))]


def simulate(policy: Policy, instance: Instance, order_source, trials: int,
             seed: int, workers: int = 1, fast: bool = True) -> EvalReport:
    """Estimate a single policy's expected value; see ``simulate_many``."""
    return simulate_many([policy], instance, order_source, trials, seed,
                         workers=workers, fast=fast)[0]


def collect_traces(policy: Policy, instance: Instance, order_source, trials: int,
                   seed: int) -> list[Trace]:
    """Debugging helper: full traces for the first min(trials, 1000) trials."""
    if isinstance(order_source, (tuple, list)):
        order_source = FixedOrder(check_order(order_source, instance.n))
    traces = []
    for trial in range(min(trials, TRACE_CAP)):
        order, side_info = order_source.realize(instance, seed, trial)
        values = sample_values(instance, seed, trial)
        kn = _knowledge_for(policy, instance, order_source, order, side_info)
        policy.start(instance, kn, rng=trial_rng(seed, trial, STREAM_POLICY))
        traces.append(run_policy(policy, instance, order, values))
    return traces


# --- ratio estimation -----------------------------------------------------------------


@dataclass
class RatioRow:
    order_index: int
    numerator: EvalReport
    denominator: EvalReport | float
    ratio: float | None
    ratio_ci: tuple[float, float] | None


@dataclass
class RatioEstimate:
    rows: list[RatioRow]
    min_ratio: float | None
    denominator_is_lower_bound: bool
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "rows": [{
                "order_index": r.order_index,
                "numerator": r.numerator.as_dict(),
                "denominator": (r.denominator.as_dict()
                                if isinstance(r.denominator, EvalReport)
                                else r.denominator),
                "ratio": r.ratio,
                "ratio_ci": list(r.ratio_ci) if r.ratio_ci else None,
            } for r in self.rows],
            "min_ratio": self.min_ratio,
            "denominator_is_lower_bound": self.denominator_is_lower_bound,
            "warnings": self.warnings,
        }


def estimate_ratio(policy: Policy, instance: Instance, orders: FiniteOrderDistribution,
                   trials: int, seed: int, references, workers: int = 1,
                   fast: bool = True) -> RatioEstimate:
    """Per-order ALG/OPT ratio estimates against an aware reference.

    ``orders`` is a finite order distribution or a list of per-order sources
    (e.g. pinned ``TreeOrders``). ``references`` is one exact optimum (float)
    or aware reference policy per order; policy references make the
    denominator a lower bound on the true optimum, which is flagged.
    Numerator and denominator share the seed, so both sides see the same
    value realizations and the gap estimate is far more stable than the
    individual means.
    """
    if isinstance(orders, FiniteOrderDistribution):
        sources = [FixedOrder(o) for o in orders.orders]
    else:
        sources = list(orders)
    n_orders = len(sources)
    if not isinstance(references, (list, tuple)):
        references = [references] * n_orders
    if len(references) != n_orders:
        raise ValueError("need one reference per order")
    per_order_trials = max(2, trials // n_orders)
    rows: list[RatioRow] = []
    notes: list[str] = []
    lower_bound = any(isinstance(r, Policy) for r in references)
    for idx, src in enumerate(sources):
        ref = references[idx]
        if isinstance(ref, Policy):
            num, den = simulate_many([policy, ref], instance, src,
                                     per_order_trials, seed, workers=workers, fast=fast)
            den_mean, den_lo, den_hi = den.mean, den.ci95[0], den.ci95[1]
        else:
            num = simulate(policy, instance, src, per_order_trials, seed,
                           workers=workers, fast=fast)
            den = float(ref)
            den_mean = den_lo = den_hi = den
        if den_mean <= 0.0:
            notes.append(f"order {idx}: reference value is 0, ratio undefined")
            rows.append(RatioRow(idx, num, den, None, None))
            continue
        ratio = num.mean / den_mean
        ci = None
        if den_lo > 0.0:
            ci = (num.ci95[0] / den_hi, num.ci95[1] / den_lo)
        rows.append(RatioRow(idx, num, den, ratio, ci))
    defined = [r.ratio for r in rows if r.ratio is not None]
    return RatioEstimate(rows=rows, min_ratio=min(defined) if defined else None,
                         denominator_is_lower_bound=lower_bound, warnings=notes)
