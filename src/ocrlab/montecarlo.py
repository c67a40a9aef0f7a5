"""Monte-Carlo estimation of policy values and ratio reports.

Trials are aggregated in fixed chunks whose partial sums are combined in
chunk-index order, so results are bit-identical for any worker count. The
generic path runs the policy through ``run_policy``; recognized
(construction, policy) pairs take closed-form or walker-based fast paths that
replicate the generic semantics exactly (cross-validated in tests).
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (STREAM_ORDER, STREAM_POLICY, STREAM_VALUES, ArrivalOrder,
                   FiniteOrderDistribution, Instance, Trace, _cell_key, cell_draws,
                   check_order, run_policy, sample_values, trial_rng)
from .constructions import (_sample_tree_raw, multiunit_blocks, multiunit_orders,
                            sample_tree_order, tree_arrival_positions, tree_good_layers,
                            tree_prior)
from .feasibility import KUniformOracle, TreePathOracle, tree_layout
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


def _report(total: float, total_sq: float, trials: int, seed: int) -> EvalReport:
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    stderr = math.sqrt(var / trials)
    half = 1.96 * stderr
    return EvalReport(mean=mean, stderr=stderr, ci95=(mean - half, mean + half),
                      trials=trials, seed=seed)


# --- order sources ---------------------------------------------------------------
# ``realize(instance, seed, trial)`` returns the aware policies' ``Knowledge``


@dataclass(frozen=True)
class FixedOrder:
    """Every trial uses the same order."""

    order: ArrivalOrder

    def realize(self, instance, seed, trial):
        return Knowledge(self.order)


@dataclass(frozen=True)
class SampledOrders:
    """Per trial, one order drawn from a finite distribution."""

    dist: FiniteOrderDistribution

    def realize(self, instance, seed, trial):
        idx = self.dist.sample_index(trial_rng(seed, trial, STREAM_ORDER))
        return Knowledge(self.dist.orders[idx])


@dataclass(frozen=True)
class TreeOrders:
    """Per trial, a fresh draw of the tree order recursion; with ``fixed``
    set, every trial uses realization ``fixed``. Realizations are keyed by
    their own index, so both modes are deterministic."""

    fixed: int | None = None

    def __post_init__(self):
        # ``fixed`` stands in for the trial index, so it must key a cell: a
        # float, negative or oversized index would fail only at the first draw
        if self.fixed is not None:
            _cell_key(0, self.fixed, STREAM_ORDER)

    def order_trial(self, trial: int) -> int:
        return trial if self.fixed is None else self.fixed

    def realize(self, instance, seed, trial):
        return sample_tree_order(instance, seed, self.order_trial(trial))


def _as_source(order_source, instance: Instance):
    """The order source, a bare order becoming a ``FixedOrder``; a fixed or
    sampled order must be a permutation of the instance's elements, and tree
    orders need the tree oracle."""
    n = instance.n
    if isinstance(order_source, (tuple, list)):
        return FixedOrder(check_order(order_source, n))
    if isinstance(order_source, FixedOrder):
        check_order(order_source.order, n)
    elif isinstance(order_source, SampledOrders):
        for order in order_source.dist.orders:
            check_order(order, n)
    elif (isinstance(order_source, TreeOrders)
          and not isinstance(instance.feasibility, TreePathOracle)):
        raise ValueError("tree orders only apply to tree instances")
    return order_source


def _trial_traces(instance: Instance, policies, source, seed: int, trials):
    """Per trial, every policy's trace on the trial's order and values. A
    policy that draws gets the trial's policy stream, fresh for each."""
    unaware = Knowledge()
    for trial in trials:
        aware = source.realize(instance, seed, trial)
        values = sample_values(instance, seed, trial)
        traces = []
        for policy in policies:
            rng = trial_rng(seed, trial, STREAM_POLICY) if policy.draws else None
            pstate = policy.start(instance, aware if policy.aware else unaware, rng=rng)
            traces.append(run_policy(policy, instance, aware.order, values, pstate))
        yield traces


# --- chunk evaluation --------------------------------------------------------------


def _generic_chunk(instance, policies, source, seed, start, count) -> np.ndarray:
    totals = np.empty((len(policies), count), dtype=np.float64)
    runs = _trial_traces(instance, policies, source, seed, range(start, start + count))
    for i, traces in enumerate(runs):
        totals[:, i] = [trace.total for trace in traces]
    return totals


# fast path: multi-unit threshold policies on a canonical order ---------------------


def _multiunit_totals_from_x(policy: MultiunitThresholdPolicy, k: int,
                             x: np.ndarray, tag: str) -> np.ndarray:
    """Closed form of the threshold policy's value as a function of the
    number of value-2 elements; mirrors the step-by-step policy exactly."""
    m = policy.threshold_count(k)
    s = np.minimum(k - m, x)
    base = 1.75 * m
    if policy.variant == "pi2" and tag == "pi1":
        return np.full_like(s, base + (k - m), dtype=np.float64)
    # pi1 on either order, and the committed rule when units precede the
    # random block; the committed rule plays pi2-style otherwise
    if policy.variant == "pi1" or tag == "pi1":
        return base + 2.0 * s
    return base + s + (k - m)


def _random_block_twos(k: int, seed: int, start: int, count: int) -> np.ndarray:
    """Per trial, how many of the 2k random-block elements draw value 2: of
    the value stream's words 2k..4k-1, those with the top bit set, as
    ``random`` maps word w to (w >> 11) * 2**-53 and value 2 is u >= 0.5.
    Trials are drawn into one row in turn, so no (count, 2k) block is held."""
    row = np.empty(2 * k, dtype=np.uint64)
    cells = cell_draws(seed, range(start, start + count), STREAM_VALUES,
                       itertools.repeat(row), 2 * k)
    return np.fromiter((np.count_nonzero(w.view(np.int64) < 0) for w in cells),
                       dtype=np.int64, count=count)


def _multiunit_chunk(instance, policies, tag, seed, start, count) -> np.ndarray:
    k = instance.feasibility.k
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


def _multiunit_fast_tag(instance, policies, source) -> str | None:
    """The canonical order's tag when the closed form applies, else None."""
    oracle = instance.feasibility
    if type(oracle) is not KUniformOracle:
        return None
    k = oracle.k
    if not (oracle.n == 4 * k and _has_value_groups(instance, multiunit_blocks(k))
            and isinstance(source, FixedOrder)
            and all(isinstance(p, MultiunitThresholdPolicy) for p in policies)
            and all(p.threshold_count(k) <= k for p in policies)):
        return None
    pi1, pi2 = multiunit_orders(k)
    return "pi1" if source.order == pi1 else "pi2" if source.order == pi2 else None


# fast path: tree policies under the recursive order distribution -------------------

# trials x elements per block: a block's (trials, n) arrays take about 8 bytes
# a cell, so they stay near 256 KB
TREE_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class _TreeTables:
    """Per-element lookups of the tree fast path for one k. Index n is the
    pad that fills a trial's ranks after its last value-1 element."""

    poskey: np.ndarray  # (k-1, n): POS[e, D] << shift | e
    pad: int  # key of a value-0 element: sorts after every other, decodes to n
    id_mask: int
    lo: np.ndarray  # (n+1,): ``tree_layout(k)``'s leaf intervals [lo, hi)
    hi: np.ndarray  # and layers, the pad's being (0, 0) and 0
    layer: np.ndarray
    bit: np.ndarray  # (n+1,): 1 << layer, 0 for the pad


@functools.lru_cache(maxsize=None)
def _tree_tables(k: int) -> _TreeTables:
    layout = tree_layout(k)
    n = layout.offsets[-1]
    pos = tree_arrival_positions(k).T
    shift, key_dtype = (16, np.uint32) if n < 2 ** 16 else (32, np.uint64)
    pad = n << shift | n
    poskey = np.where(pos >= 0, pos.astype(key_dtype) << shift
                      | np.arange(n, dtype=key_dtype), key_dtype(pad))
    leaf_dtype = np.int16 if k ** k < 2 ** 15 else np.int32
    lo, hi = np.array(layout.span + ((0, 0),), dtype=leaf_dtype).T.copy()
    layer = np.array(layout.layer + (0,), dtype=np.int8)
    # k + 1 bits: a tree with k >= 15 would have more than 10**17 elements
    bit = np.left_shift(1, layer, dtype=np.int16)
    bit[n] = 0
    for a in (poskey, lo, hi, layer, bit):
        a.setflags(write=False)
    return _TreeTables(poskey, pad, (1 << shift) - 1, lo, hi, layer, bit)


def _tree_aware_total(k: int, in_r: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Per trial of a block: at each layer, the first candidate child of the
    tip worth 1, else the last candidate; candidates are the tip's r-subset
    down to layer k-2 and all its children below."""
    offs = tree_layout(k).offsets
    rows = np.arange(len(v1))
    kids = np.arange(k)
    tip = np.zeros(len(v1), dtype=np.intp)
    total = np.zeros(len(v1), dtype=np.int64)
    node = 0  # r-row of the first node in the tip's layer
    for layer in range(1, k + 1):
        hit = v1[rows[:, None], offs[layer - 1] + tip[:, None] * k + kids]
        if layer <= k - 2:
            cand = in_r[rows, node + tip]
            hit &= cand
            fallback = k - 1 - np.argmax(cand[:, ::-1], axis=1)
            node += k ** (layer - 1)
        else:
            fallback = k - 1
        found = hit.any(axis=1)
        total += found
        tip = tip * k + np.where(found, np.argmax(hit, axis=1), fallback)
    return total


def _tree_gamble_rule(k: int, l: int) -> tuple[int, tuple[int, ...]]:
    """The gamble rule as (open layers, per-layer flip) bitmasks. Layer 1
    (if l >= 1) and the two deepest layers start open. A selection in layer
    i <= k-2 closes i and opens i+1 while i+1 <= min(l, k-2); one in layer
    k-1 or k closes it."""
    top = min(l, k - 2)
    opened = (2 if top >= 1 else 0) | 1 << (k - 1) | 1 << k
    flip = (0,) + tuple(1 << i | (1 << (i + 1) if i < top else 0) for i in range(1, k + 1))
    return opened, flip


def _tree_greedy_rule(k: int) -> tuple[int, tuple[int, ...]]:
    """Greedy keeps every layer open: a node in an already selected layer is
    never comparable with the deepest selection."""
    return (1 << (k + 1)) - 2, (0,) * (k + 1)


def _tree_walk_totals(k: int, rules, arrivals) -> np.ndarray:
    """Replays chain-building rules over a block's value-1 elements in
    arrival order; value-0 elements never change a rule's state.
    ``arrivals`` is (lo, hi, layer, bit), each shaped (rank, trial), with
    the pad after a trial's last value-1 element. Returns the selection
    counts shaped (rule, trial).

    The selections form a chain, so a node can join exactly when it is
    comparable with the deepest selection: when their leaf intervals meet.
    The deepest selection then becomes the intersection. A rule also needs
    the node's layer to be open. Each selection is in a new layer, so a
    rule selects at most k times: each round finds every trial's next
    selection at once, by searching the ranks after its previous one.
    """
    lo, hi, layer, bit = arrivals
    cols = np.arange(lo.shape[1])
    rank = np.arange(len(lo))[:, None]
    totals = np.zeros((len(rules), len(cols)), dtype=np.int64)
    if not len(lo):  # no trial of the block has a value-1 element
        return totals
    for row, (opened, flip) in enumerate(rules):
        flip = np.array(flip, dtype=np.int16)
        opened = np.full(len(cols), opened, dtype=np.int16)
        deep_lo = np.zeros(len(cols), dtype=lo.dtype)
        deep_hi = np.full(len(cols), k ** k, dtype=lo.dtype)
        after = np.zeros(len(cols), dtype=np.intp)  # first rank not yet replayed
        while True:
            ok = np.maximum(lo, deep_lo) < np.minimum(hi, deep_hi)
            ok &= (bit & opened).astype(bool)
            ok &= rank >= after
            first = ok.argmax(axis=0)
            found = ok[first, cols]
            if not found.any():
                break
            totals[row] += found
            at = first[found], cols[found]
            deep_lo[found] = np.maximum(deep_lo[found], lo[at])
            deep_hi[found] = np.minimum(deep_hi[found], hi[at])
            opened[found] ^= flip[layer[at]]
            after[found] = first[found] + 1
    return totals


def _tree_arrivals(k: int, in_r: np.ndarray, v1: np.ndarray):
    """The block's value-1 elements ranked by arrival, as the walker's
    per-element rows shaped (rank, trial). Element e of a trial arrives at
    POS[e, D], D being the layer of its deepest good strict ancestor (capped
    at k-2), which follows layer by layer from the good labels."""
    tables = _tree_tables(k)
    offs = tree_layout(k).offsets
    good = tree_good_layers(k, in_r)
    key = np.empty(v1.shape, dtype=tables.poskey.dtype)
    depth = np.zeros((len(v1), 1), dtype=np.int8)
    for layer in range(1, k + 1):
        depth = np.repeat(depth, k, axis=1)
        cols = slice(offs[layer - 1], offs[layer])
        part = key[:, cols]
        part[:] = tables.poskey[0, cols]
        for d in range(1, min(layer, k - 1)):
            np.copyto(part, tables.poskey[d, cols], where=depth == d)
        if layer <= k - 2:
            depth = np.where(good[layer - 1], np.int8(layer), depth)
    np.copyto(key, key.dtype.type(tables.pad), where=~v1)
    key.sort(axis=1)
    ranks = int(np.count_nonzero(v1, axis=1).max(initial=0))
    ids = (key[:, :ranks].T & tables.id_mask).astype(np.intp)
    return tables.lo[ids], tables.hi[ids], tables.layer[ids], tables.bit[ids]


def _tree_chunk(instance, policies, source, seed, start, count) -> np.ndarray:
    k = instance.feasibility.k
    n = instance.n
    p_one = instance.dists[0].cumulative()[0]
    aware = [i for i, p in enumerate(policies) if isinstance(p, TreeAwarePolicy)]
    walked = [i for i, p in enumerate(policies)
              if isinstance(p, (TreeGamblePolicy, GreedyPolicy))]
    rules = [_tree_gamble_rule(k, policies[i].l) if isinstance(policies[i], TreeGamblePolicy)
             else _tree_greedy_rule(k) for i in walked]
    distinct = list(dict.fromkeys(rules))  # gambles with l >= k-2 coincide
    rule_row = [distinct.index(r) for r in rules]
    totals = np.zeros((len(policies), count), dtype=np.float64)
    block = max(1, TREE_BLOCK_CELLS // n)
    u = np.empty((block, n))
    for first in range(0, count, block):
        size = min(block, count - first)
        trials = range(start + first, start + first + size)
        in_r = _sample_tree_raw(k, seed, [source.order_trial(t) for t in trials])
        for _ in cell_draws(seed, trials, STREAM_VALUES, u):
            pass  # each trial's uniforms land in its row of u
        v1 = u[:size] < p_one
        cols = slice(first, first + size)
        if aware:
            totals[aware, cols] = _tree_aware_total(k, in_r, v1)
        if walked:
            walk = _tree_walk_totals(k, distinct, _tree_arrivals(k, in_r, v1))
            totals[walked, cols] = walk[rule_row]
    return totals


def _tree_fast_ok(instance, policies, source) -> bool:
    oracle = instance.feasibility
    return (type(oracle) is TreePathOracle
            and _has_value_groups(instance, ((0, oracle.n, tree_prior(oracle.k)),))
            and isinstance(source, TreeOrders)
            and all(isinstance(p, (TreeAwarePolicy, TreeGamblePolicy, GreedyPolicy,
                                   AlwaysDiscardPolicy)) for p in policies))


# --- driver -------------------------------------------------------------------------


def _chunk_worker(args):
    instance, policies, source, seed, start, count, tag, engine = args
    if engine == "multiunit":
        totals = _multiunit_chunk(instance, policies, tag, seed, start, count)
    elif engine == "tree":
        totals = _tree_chunk(instance, policies, source, seed, start, count)
    else:
        totals = _generic_chunk(instance, policies, source, seed, start, count)
    return totals.sum(axis=1), (totals * totals).sum(axis=1)


def _pick_engine(instance, policies, source, fast: bool) -> tuple[str, str | None]:
    """The engine name, plus the multi-unit order tag its chunks need."""
    if not fast:
        return "generic", None
    tag = _multiunit_fast_tag(instance, policies, source)
    if tag is not None:
        return "multiunit", tag
    if _tree_fast_ok(instance, policies, source):
        return "tree", None
    return "generic", None


def simulate_many(policies: list[Policy], instance: Instance, order_source,
                  trials: int, seed: int, workers: int = 1,
                  fast: bool = True) -> list[EvalReport]:
    """Evaluate several policies on shared per-trial realizations."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    order_source = _as_source(order_source, instance)
    engine, tag = _pick_engine(instance, policies, order_source, fast)
    starts = list(range(0, trials, CHUNK_SIZE))
    # the engine goes last: benchmark tracing reads it from there
    jobs = [(instance, policies, order_source, seed, s, min(CHUNK_SIZE, trials - s), tag,
             engine) for s in starts]
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
    runs = _trial_traces(instance, [policy], _as_source(order_source, instance), seed,
                         range(min(trials, TRACE_CAP)))
    return [traces[0] for traces in runs]


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


def estimate_ratio(policy: Policy, instance: Instance, orders: FiniteOrderDistribution,
                   trials: int, seed: int, references, workers: int = 1) -> RatioEstimate:
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
    if trials < 2 * n_orders:
        raise ValueError(f"need at least 2 trials per order ({2 * n_orders} for "
                         f"{n_orders} orders), got {trials}")
    per_order_trials = trials // n_orders
    rows: list[RatioRow] = []
    notes: list[str] = []
    lower_bound = any(isinstance(r, Policy) for r in references)
    for idx, src in enumerate(sources):
        ref = references[idx]
        if isinstance(ref, Policy):
            num, den = simulate_many([policy, ref], instance, src,
                                     per_order_trials, seed, workers=workers)
            den_mean, den_lo, den_hi = den.mean, den.ci95[0], den.ci95[1]
        else:
            num = simulate(policy, instance, src, per_order_trials, seed,
                           workers=workers)
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
