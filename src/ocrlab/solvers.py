"""Exact benchmarks on small instances: the order-aware optimum for a fixed
order, the best order-unaware algorithm against a known order distribution,
the offline prophet value, and exact ratio reports.

All solvers are exact over finite supports; they are guarded by
``SolverLimits`` (the prophet by ``MAX_REALIZATIONS``) and raise
``TooLarge`` rather than degrade.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (DISCARD, SELECT, Action, ArrivalOrder, FiniteOrderDistribution,
                   Instance, check_order)
from .errors import InconsistentState, PolicyViolation, TooLarge
from .feasibility import (PairMatchOracle, PartitionOneBlockOracle, TreePathOracle,
                          materialize, tree_layout)
from .policies import Knowledge


MAX_REALIZATIONS = 1 << 20  # the most value realizations or group-sum points
PROPHET_ROWS = 4096  # the realizations per block of the prophet's enumeration


@dataclass(frozen=True)
class SolverLimits:
    """``max_states`` is the exact solvers' budget: trie nodes, states and
    tree slot updates. ``max_elements``, when set, caps the expectimax's
    element count."""

    max_elements: int | None = None
    max_states: int = 2_000_000

    def __post_init__(self):
        if (self.max_states <= 0
                or (self.max_elements is not None and self.max_elements <= 0)):
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class SolveResult:
    value: float
    states_expanded: int


def opt_aware_exact(instance: Instance, order: ArrivalOrder,
                    limits: SolverLimits = SolverLimits()) -> SolveResult:
    """Optimal online value for a known order: the best order-unaware
    algorithm's value on the one-order belief."""
    return _solve(instance, FiniteOrderDistribution((order,), (1.0,)), limits)


def opt_unaware_exact(instance: Instance, orders: FiniteOrderDistribution,
                      limits: SolverLimits = SolverLimits()) -> SolveResult:
    """Value of the best algorithm that knows the order distribution but not
    the realization. The orders still alive share the identity prefix seen
    so far, so a node of the orders' prefix trie is both the belief and the
    position; values are order-independent, so only the current element's
    realization enters."""
    return _solve(instance, orders, limits)


def _solve(instance: Instance, orders: FiniteOrderDistribution,
           limits: SolverLimits) -> SolveResult:
    """Both exact solves, by the oracle's kind: the slot induction over the
    order trie on a ``TreePathOracle``, the expectimax on every other."""
    if len(orders.orders[0]) != instance.n:
        raise ValueError("order must be a permutation of all element ids")
    if isinstance(instance.feasibility, TreePathOracle):
        return _tree_induction(instance, orders, limits)
    return _expectimax(instance, orders, limits)


def _expect(atoms, sel, keep):
    """The stage value when selecting is worth ``sel`` and discarding ``keep``."""
    total = 0.0
    for v, p in atoms:
        total = total + p * np.maximum(v + sel, keep)
    return total


def _order_trie(orders: FiniteOrderDistribution, n: int,
                max_states: int) -> list[tuple]:
    """The prefix trie of the orders, built level by level. Node 0 is the
    root, and ``trie[t]`` lists node t's children as (element, w_g / w_live,
    child): the next element and the weight share, among the orders alive at
    t, of those that continue with it. A node fixes both the live orders and
    the position; a node at position n has no children. More than
    ``max_states`` nodes raise ``TooLarge`` once their level is built."""
    weights = orders.weights
    trie: list[tuple] = []
    level = [tuple(range(len(orders.orders)))]
    for pos in range(n):
        first = len(trie) + len(level)  # the id of the next level's first node
        nxt: list[tuple[int, ...]] = []
        for live in level:
            if len(live) == 1:  # a lone order's share w / w is exactly 1.0
                trie.append(((orders.orders[live[0]][pos], 1.0, first + len(nxt)),))
                nxt.append(live)
                continue
            w_live = sum(weights[i] for i in live)
            groups: dict[int, list[int]] = {}
            for i in live:
                groups.setdefault(orders.orders[i][pos], []).append(i)
            trie.append(tuple((e, sum(weights[i] for i in idxs) / w_live,
                               first + len(nxt) + c)
                              for c, (e, idxs) in enumerate(groups.items())))
            nxt += map(tuple, groups.values())
        if first + len(nxt) > max_states:
            raise TooLarge(f"state budget {max_states} exceeded")
        level = nxt
    return trie + [()] * len(level)


def _expectimax(instance: Instance, orders: FiniteOrderDistribution,
                limits: SolverLimits) -> SolveResult:
    """Backward induction over (order-trie node, feasibility state). A
    node's children have larger ids, so a forward pass in id order lists
    the states that reach each node and records, per child, each state's
    successor index under select and under discard (-1 where the state
    forbids the action), from one ``successors`` call per child. A backward
    pass then values each node's states as one vector: each next element,
    weighted by its share of the live orders, is decided best once its
    value is seen. Every node has one parent, so a node's states are dropped
    once expanded and its values once its parent is valued."""
    if limits.max_elements is not None and instance.n > limits.max_elements:
        raise TooLarge(f"{instance.n} elements over the limit {limits.max_elements}")
    oracle = instance.feasibility
    successors = oracle.successors
    atoms = [d.atoms for d in instance.dists]
    trie = _order_trie(orders, instance.n, limits.max_states)
    reach: list = [None] * len(trie)
    reach[0] = [oracle.start()]
    size = [0] * len(trie)
    succ: list = [()] * len(trie)
    states = 0
    for node, children in enumerate(trie):
        here, reach[node] = reach[node], None
        size[node] = len(here)
        if not children:
            continue
        states += len(here)
        if states > limits.max_states:
            raise TooLarge(f"state budget {limits.max_states} exceeded")
        moves = []
        for e, _, child in children:
            after_sel, after_dis = successors(here, e)
            nxt: dict = {}
            number = nxt.setdefault  # a state's index in the child, new ones last
            sel = [-1 if s is None else number(s, len(nxt)) for s in after_sel]
            dis = [-1 if s is None else number(s, len(nxt)) for s in after_dis]
            # an index is -1 or nonnegative, so a & b is -1 just when both are
            if -1 in dis and -1 in map(operator.and_, sel, dis):
                raise InconsistentState("state admits no action")
            reach[child] = list(nxt)
            moves.append((np.array(sel, np.intp), np.array(dis, np.intp)))
        succ[node] = moves
    values: list = [None] * len(trie)
    for node in reversed(range(len(trie))):
        # the trailing slot holds -inf, which the -1 index of a forbidden
        # action reads, so that action never wins
        vec = np.zeros(size[node] + 1)
        vec[-1] = -math.inf
        total = vec[:-1]
        for (e, share, child), (sel, dis) in zip(trie[node], succ[node]):
            after, values[child] = values[child], None
            total += share * _expect(atoms[e], after[sel], after[dis])
        values[node] = vec
    return SolveResult(value=float(values[0][0]), states_expanded=states)


def _tree_induction(instance: Instance, orders: FiniteOrderDistribution,
                    limits: SolverLimits) -> SolveResult:
    """Backward induction over (order-trie node, deepest selected node or
    none): a feasible set is a chain, which a later element can join exactly
    when it is comparable with the deepest node. A node's values are one
    vector by node id, slot n for "none". At e's arrival, "none" and e's
    ancestors may select e, making it the deepest; e's descendants keep
    theirs either way; every other slot can only discard e and is left as
    it is. A layer-L node is comparable with k**max(0, d - L) nodes of layer
    d (for d <= L, one stands in for "none"); ``states_expanded`` counts
    these slot updates over the trie's edges, O(n·k) per order."""
    layout = tree_layout(instance.feasibility.k)
    k, n = layout.k, instance.n
    trie = _order_trie(orders, n, limits.max_states)
    per_layer = [sum(k ** max(0, d - layer) for d in range(1, k + 1))
                 for layer in range(k + 1)]
    states = sum(per_layer[layout.layer[e]] for children in trie for e, _, _ in children)
    if states > limits.max_states:
        raise TooLarge(f"{states} states over the limit {limits.max_states}")
    values: list = [None] * len(trie)

    def arrive(e, child):
        """The child's vector, updated in place for e's arrival."""
        w, values[child] = values[child], None
        atoms = instance.dists[e].atoms
        up = [*layout.ancestors[e], n]
        w[up] = _expect(atoms, w[e], w[up])
        for d in range(layout.layer[e] + 1, k + 1):
            below = w[slice(*layout.block(d, e))]
            below[:] = _expect(atoms, below, below)
        return w

    for node in reversed(range(len(trie))):
        children = trie[node]
        if len(children) == 1:  # in place, so a chain of nodes costs O(n·k)
            (e, _, child), = children
            values[node] = arrive(e, child)
        else:  # a leaf's zeros, or the children's sum weighted by share
            values[node] = sum((share * arrive(e, child) for e, share, child in children),
                               np.zeros(n + 1))
    return SolveResult(value=float(values[0][n]), states_expanded=states)


# --- offline benchmark ---------------------------------------------------------


def max_feasible_sum(oracle, values: np.ndarray) -> float | np.ndarray:
    """Offline maximum of a feasible set's value sum, for one realization
    (a float) or for each row of a ``(rows, n)`` block (an array). One pass
    over the ids keeps, per oracle state, the best sum selected so far in
    each row; a state left after the last id has decided every element, so
    its selected set is feasible."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != oracle.n:
        raise ValueError(f"{values.shape[-1]} values for {oracle.n} elements")
    best = {oracle.start(): np.zeros(values.shape[:-1])}
    for e in range(oracle.n):
        after_sel, after_dis = oracle.successors(list(best), e)
        nxt: dict = {}
        for moves, gain in ((after_dis, None), (after_sel, values[..., e])):
            for s, sums in zip(moves, best.values()):
                if s is not None:
                    if gain is not None:
                        sums = sums + gain
                    nxt[s] = np.maximum(nxt[s], sums) if s in nxt else sums
        best = nxt
    top = np.max(list(best.values()), axis=0)
    return float(top) if values.ndim == 1 else top


def _realization_blocks(instance: Instance):
    """Yield (values, probs) blocks of at most ``PROPHET_ROWS`` realizations
    of the product support of all nondeterministic elements, in
    ``itertools.product`` order (the last such element varies fastest); each
    probability is the product of its atoms' probabilities, taken in id
    order as one realization at a time would take them."""
    base = np.array([d.atoms[0][0] for d in instance.dists], dtype=np.float64)
    stochastic = [(i, np.array(d.atoms, dtype=np.float64).T)
                  for i, d in enumerate(instance.dists) if not d.is_deterministic]
    count = 1
    for _, atoms in stochastic:
        count *= atoms.shape[1]
        if count > MAX_REALIZATIONS:
            raise TooLarge(f"support product exceeds {MAX_REALIZATIONS}")
    for start in range(0, count, PROPHET_ROWS):
        index = np.arange(start, min(start + PROPHET_ROWS, count))
        values = np.tile(base, (len(index), 1))
        probs = np.ones(len(index))
        stride = count
        for i, (atom_values, atom_probs) in stochastic:
            stride //= len(atom_values)
            digit = index // stride % len(atom_values)
            values[:, i] = atom_values[digit]
            probs *= atom_probs[digit]
        yield values, probs


def _group_sum_dist(instance: Instance, ids) -> dict[float, float]:
    """Exact distribution of the value sum over one group of elements."""
    dist: dict[float, float] = {0.0: 1.0}
    for e in ids:
        nxt: dict[float, float] = {}
        for s, q in dist.items():
            for v, p in instance.dists[e].atoms:
                key = s + v
                nxt[key] = nxt.get(key, 0.0) + q * p
        if len(nxt) > MAX_REALIZATIONS:
            raise TooLarge("group sum support too large")
        dist = nxt
    return dist


def _expected_max_independent(dists: list[dict[float, float]]) -> tuple[float, int]:
    """E[max of independent sums] from their exact distributions."""
    points = sorted({x for d in dists for x in d})
    total = 0.0
    prev_cdf = 0.0
    cdfs_below = [0.0] * len(dists)
    for x in points:
        for i, d in enumerate(dists):
            cdfs_below[i] += d.get(x, 0.0)
        cdf = 1.0
        for c in cdfs_below:
            cdf *= c
        total += x * (cdf - prev_cdf)
        prev_cdf = cdf
    return total, len(points)


def prophet_exact(instance: Instance) -> SolveResult:
    """E[max feasible sum]: over the product support, in blocks of
    ``PROPHET_ROWS`` realizations through ``max_feasible_sum``, or, when the
    constraint decomposes into independent groups (one block / one pair),
    from the exact group-sum distributions."""
    oracle = instance.feasibility
    groups = None
    if isinstance(oracle, PartitionOneBlockOracle):
        groups = [list(b) for b in oracle.blocks]
    elif isinstance(oracle, PairMatchOracle):
        groups = [[i, i + oracle.k] for i in range(oracle.k)]
    if groups is not None:
        dists = [_group_sum_dist(instance, g) for g in groups]
        value, states = _expected_max_independent(dists)
        return SolveResult(value=value, states_expanded=states)
    total = 0.0
    states = 0
    for values, probs in _realization_blocks(instance):
        for prob, best in zip(probs.tolist(), max_feasible_sum(oracle, values).tolist()):
            total += prob * best  # in realization order, as one at a time
        states += len(probs)
    return SolveResult(value=total, states_expanded=states)


# --- independent brute-force oracle ---------------------------------------------


def exhaustive_policy_search(instance: Instance,
                             order_source: ArrivalOrder | FiniteOrderDistribution) -> float:
    """Maximum expected value over all deterministic decision rules, by raw
    recursion on observable histories — no canonicalization or memoization,
    and allowed actions come from a containment test against the
    materialized family rather than the oracle's state, so it is an
    independent check on both exact solvers. Tiny inputs only."""
    n = instance.n
    if n > 8:
        raise TooLarge("exhaustive search capped at 8 elements")
    if any(len(d.atoms) > 2 for d in instance.dists):
        raise TooLarge("exhaustive search needs binary supports")
    if isinstance(order_source, FiniteOrderDistribution):
        orders = order_source.orders
        weights = order_source.weights
    else:
        orders = (check_order(order_source, n),)
        weights = (1.0,)
    if len(orders) > 8:
        raise TooLarge("exhaustive search capped at 8 orders")
    family = materialize(instance.feasibility)

    def value(history: tuple[tuple[int, float, Action], ...]) -> float:
        ids = [e for e, _, _ in history]
        live = [(o, w) for o, w in zip(orders, weights) if list(o[:len(ids)]) == ids]
        w_live = sum(w for _, w in live)
        pos = len(ids)
        if pos == n:
            return 0.0
        sel = frozenset(e for e, _, a in history if a is Action.SELECT)
        dis = frozenset(e for e, _, a in history if a is Action.DISCARD)
        total = 0.0
        groups: dict[int, float] = {}
        for o, w in live:
            groups[o[pos]] = groups.get(o[pos], 0.0) + w
        for e, w_g in groups.items():
            can_sel = any(sel | {e} <= s and not dis & s for s in family)
            can_dis = any(sel <= s and not (dis | {e}) & s for s in family)
            stage = 0.0
            for v, p in instance.dists[e].atoms:
                branches = []
                if can_sel:
                    branches.append(v + value(history + ((e, v, Action.SELECT),)))
                if can_dis:
                    branches.append(value(history + ((e, v, Action.DISCARD),)))
                stage += p * max(branches)
            total += (w_g / w_live) * stage
        return total

    return value(())


# --- policy evaluation and ratios ------------------------------------------------


def eval_policy_exact(policy, instance: Instance, knowledge: Knowledge,
                      limits: SolverLimits = SolverLimits()) -> float:
    """Expected value of a deterministic policy on a trial's order, told the
    trial's ``knowledge`` if it is aware, by one forward pass of
    ``run_policy``'s steps: per position, a dict from (oracle state, policy
    state) to probability mass, summing the gain as mass moves."""
    if knowledge.order is None:
        raise ValueError("eval_policy_exact needs the trial's order; the knowledge has none")
    order = check_order(knowledge.order, instance.n)
    oracle = instance.feasibility
    told = knowledge if policy.aware else Knowledge()
    mass = {(oracle.start(), policy.start(instance, told)): 1.0}
    total = 0.0
    states = 0
    for e in order:
        states += len(mass)
        if states > limits.max_states:
            raise TooLarge(f"state budget {limits.max_states} exceeded")
        atoms = instance.dists[e].atoms
        nxt: dict = {}
        for (feas, pstate), q in mass.items():
            after_sel, after_dis = oracle.step(feas, e)
            if after_sel is None and after_dis is None:
                raise InconsistentState("state admits no action; it violates its invariant")
            both = after_sel is not None and after_dis is not None
            for v, p in atoms:
                if both:
                    action, after = policy.decide(pstate, e, v)
                    if action is not SELECT and action is not DISCARD:
                        raise PolicyViolation(
                            f"policy {policy.name!r} returned disallowed {action}")
                else:
                    action = SELECT if after_dis is None else DISCARD
                    after = policy.notify(pstate, e, v, action)
                if action is SELECT:
                    total += q * p * v
                    key = (after_sel, after)
                else:
                    key = (after_dis, after)
                nxt[key] = nxt.get(key, 0.0) + q * p
        mass = nxt
    return total


@dataclass
class ExactRatioRow:
    order_index: int
    alg_value: float
    opt_aware: float
    ratio: float | None


@dataclass
class ExactRatioReport:
    rows: list[ExactRatioRow]
    min_ratio: float | None
    prophet: float | None  # None when the value support is too large to enumerate
    competitive_ratio: float | None
    warnings: list[str] = field(default_factory=list)


def ratio_exact(instance: Instance, orders: FiniteOrderDistribution, policy,
                limits: SolverLimits = SolverLimits()) -> ExactRatioReport:
    """Per-order ALG/OPT ratios and their minimum (the order-competitive
    ratio of the policy), plus the prophet-based competitive ratio. When the
    prophet's value support is too large to enumerate, the rows still stand
    and the prophet and competitive ratio are ``None``, with a warning."""
    rows: list[ExactRatioRow] = []
    notes: list[str] = []
    for idx, order in enumerate(orders.orders):
        alg = eval_policy_exact(policy, instance, Knowledge(order), limits=limits)
        opt = opt_aware_exact(instance, order, limits=limits).value
        if opt <= 0.0:
            notes.append(f"order {idx}: OPT = 0, ratio undefined and excluded")
            warnings.warn(notes[-1])
            rows.append(ExactRatioRow(idx, alg, opt, None))
        else:
            rows.append(ExactRatioRow(idx, alg, opt, alg / opt))
    defined = [r.ratio for r in rows if r.ratio is not None]
    min_ratio = min(defined) if defined else None
    try:
        prophet = prophet_exact(instance).value
    except TooLarge as exc:
        prophet = None
        notes.append(f"prophet not computed: {exc}")
        warnings.warn(notes[-1])
    competitive = None
    if prophet is not None and prophet > 0.0:
        competitive = min(r.alg_value for r in rows) / prophet
    return ExactRatioReport(rows=rows, min_ratio=min_ratio, prophet=prophet,
                            competitive_ratio=competitive, warnings=notes)
