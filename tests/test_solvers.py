"""Exact solvers: agreement with an independent brute-force recursion,
closed-form values on the calibration instances, and resource guards."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_micro_instance
from test_feasibility import nested_demo, nested_overlapping
from ocrlab.core import (FiniteOrderDistribution, Instance, ValueDistribution,
                         run_policy)
from ocrlab.constructions import (build_multiunit_instance, build_nested_scaled,
                                  build_pairs_instance, build_partition_scaled,
                                  build_tree_instance, sample_tree_order)
from ocrlab.errors import InconsistentState, PolicyViolation, TooLarge
from ocrlab.feasibility import (ExplicitFamilyOracle, KUniformOracle, TreePathOracle,
                                materialize)
from ocrlab.montecarlo import TreeOrders
from ocrlab.policies import (AlwaysDiscardPolicy, GreedyPolicy, Knowledge,
                             MultiunitThresholdPolicy, NestedAwarePolicy,
                             NestedGuessPolicy, TreeAwarePolicy, TreeGamblePolicy,
                             parse_policy_spec)
from ocrlab import solvers
from ocrlab.solvers import (MAX_REALIZATIONS, SolverLimits, SolveResult, _expectimax,
                            _order_trie, _realization_blocks, eval_policy_exact,
                            exhaustive_policy_search, max_feasible_sum,
                            opt_aware_exact, opt_unaware_exact, prophet_exact,
                            ratio_exact)

WIDE = SolverLimits(max_states=10**7)


def _dict_expectimax(instance, orders, limits=WIDE):
    """The expectimax as one dict per trie node, from state to value, and a
    scalar backward pass that asks the oracle again: the reference for the
    vector backward pass, which must give the same bits."""
    oracle = instance.feasibility
    step = oracle.step
    atoms = [d.atoms for d in instance.dists]
    trie = _order_trie(orders, instance.n, limits.max_states)
    start = oracle.start()
    reach = [{} for _ in trie]
    reach[0][start] = None
    states = 0
    for node, children in enumerate(trie):
        if not children:
            continue
        states += len(reach[node])
        for state in reach[node]:
            for e, _, child in children:
                for after in step(state, e):
                    if after is not None:
                        reach[child][after] = None
    for node in reversed(range(len(trie))):
        values = reach[node]
        for state in values:
            total = 0.0
            for e, share, child in trie[node]:
                after_sel, after_dis = step(state, e)
                sel = -math.inf if after_sel is None else reach[child][after_sel]
                keep = -math.inf if after_dis is None else reach[child][after_dis]
                stage = 0.0
                for v, p in atoms[e]:
                    best = v + sel
                    stage += p * (keep if keep > best else best)
                total += share * stage
            values[state] = total
    return SolveResult(value=reach[0][start], states_expanded=states)


class TestAgainstBruteForce:
    def test_aware_matches_exhaustive(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            instance, orders = random_micro_instance(rng, max_orders=1)
            order = orders.orders[0]
            assert opt_aware_exact(instance, order).value == pytest.approx(
                exhaustive_policy_search(instance, order), abs=1e-9)

    def test_unaware_matches_exhaustive(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            instance, orders = random_micro_instance(rng, max_orders=2)
            assert opt_unaware_exact(instance, orders).value == pytest.approx(
                exhaustive_policy_search(instance, orders), abs=1e-9)

    def test_single_order_unaware_equals_aware(self):
        # the unaware solver on a one-order belief against the brute force's
        # aware entry (a bare order), which shares no code with the solvers
        rng = np.random.default_rng(23)
        for _ in range(10):
            instance, orders = random_micro_instance(rng, max_orders=1)
            aware = exhaustive_policy_search(instance, orders.orders[0])
            unaware = opt_unaware_exact(instance, orders).value
            assert unaware == pytest.approx(aware, abs=1e-12)


def _criterion3_orders(count=50):
    """Criterion 3's first sampled k = 4 tree orders (seed 2026)."""
    tree = build_tree_instance(4)
    return tree, [sample_tree_order(tree, 2026, i).order for i in range(count)]


class TestTreePathInduction:
    """The (order-trie node, deepest selected node) induction on tree
    instances against the state expectimax, its reference, and the
    brute-force search."""

    @staticmethod
    def _check(instance, order):
        tree = opt_aware_exact(instance, order).value
        one_order = FiniteOrderDistribution((order,), (1.0,))
        assert tree == pytest.approx(_expectimax(instance, one_order, WIDE).value, abs=1e-12)
        assert tree == pytest.approx(exhaustive_policy_search(instance, order), abs=1e-12)

    @staticmethod
    def _varied(k, rng):
        """A k-ary tree whose elements have varied Bernoulli priors."""
        n = TreePathOracle(k=k).n
        return Instance(name=f"tree-k{k}-varied",
                        dists=tuple(ValueDistribution.bernoulli(float(rng.uniform(0.2, 0.8)),
                                                                hi=float(rng.integers(1, 4)))
                                    for _ in range(n)),
                        feasibility=TreePathOracle(k=k))

    def test_random_orders(self):
        rng = np.random.default_rng(41)
        for instance in (build_tree_instance(2), self._varied(2, rng)):
            for _ in range(20):
                self._check(instance, tuple(int(e) for e in rng.permutation(instance.n)))

    def test_sampled_tree_orders(self):
        instance = build_tree_instance(2)
        for trial in range(5):
            self._check(instance, sample_tree_order(instance, 2026, trial).order)

    def test_element_cap_does_not_apply(self):
        instance = build_tree_instance(4)
        order = sample_tree_order(instance, 2026, 0).order
        # a chain holds at most one node per layer, each worth at most 1
        assert 0.0 < opt_aware_exact(instance, order).value <= 4.0

    def test_pinned_k4_values(self):
        # the values of the dense (n+1)-slot update this induction replaced
        instance = build_tree_instance(4)
        pinned = ("2.652299413042532", "2.6737905588616697", "2.653166297242649")
        for trial, value in enumerate(pinned):
            res = opt_aware_exact(instance, sample_tree_order(instance, 2026, trial).order)
            assert repr(res.value) == value
            assert res.states_expanded == 2164  # slots comparable with each element

    def test_k6_fits_the_default_limits(self):
        instance = build_tree_instance(6)
        res = opt_aware_exact(instance, sample_tree_order(instance, 2026, 0).order)
        assert round(res.value, 4) == 3.8130
        assert res.states_expanded == 593_466

    def test_state_budget(self):
        instance = build_tree_instance(2)
        with pytest.raises(TooLarge):
            opt_aware_exact(instance, tuple(range(instance.n)),
                            limits=SolverLimits(max_states=1))
        # the k = 4 order's 341 trie nodes fit, its 2,164 slot updates do not
        tree, (order,) = _criterion3_orders(1)
        with pytest.raises(TooLarge, match="2164 states over the limit 2163"):
            opt_aware_exact(tree, order, limits=SolverLimits(max_states=2163))
        assert opt_aware_exact(tree, order, limits=SolverLimits(max_states=2164)).value > 0

    def test_many_orders_match_the_expectimax_by_repr(self):
        # with the construction's prior, the trie induction gives the
        # expectimax's bits on every belief
        rng = np.random.default_rng(43)
        tree = build_tree_instance(2)
        for count in (2, 3, 5, 8):
            orders = FiniteOrderDistribution.uniform(
                [tuple(int(e) for e in rng.permutation(tree.n)) for _ in range(count)])
            assert repr(opt_unaware_exact(tree, orders).value) == \
                repr(_expectimax(tree, orders, WIDE).value)
        tree, orders = _criterion3_orders()
        belief = FiniteOrderDistribution.uniform(orders)
        res = opt_unaware_exact(tree, belief)
        # the expectimax meets 1,883,965 states where the induction makes
        # 43,376 slot updates
        assert res.states_expanded == 43_376
        assert repr(res.value) == repr(_expectimax(tree, belief, WIDE).value)

    def test_many_orders_on_varied_priors(self):
        # the expectimax sums p·w over the atoms of a forbidden select, where
        # the induction leaves the slot as it is: equal up to rounding
        rng = np.random.default_rng(47)
        for k, counts in ((2, (2, 4, 8)), (4, (2, 5))):
            instance = self._varied(k, rng)
            for count in counts:
                orders = [tuple(int(e) for e in rng.permutation(instance.n))
                          for _ in range(count)]
                weights = rng.uniform(0.5, 2.0, count)
                belief = FiniteOrderDistribution(tuple(orders),
                                                 tuple((weights / weights.sum()).tolist()))
                assert opt_unaware_exact(instance, belief).value == pytest.approx(
                    _expectimax(instance, belief, WIDE).value, rel=1e-12, abs=0)


class TestStateMemo:
    def test_multiunit_counts_share_states(self):
        # the k-uniform state is the selected count, so at k=5 the solve
        # meets at most 6 states at each of the 21 positions
        instance, orders = build_multiunit_instance(5)
        for order, value in zip(orders.orders, (9.3671875, 9.51171875)):
            res = opt_aware_exact(instance, order)
            assert res.value == value
            assert res.states_expanded <= 21 * 6


def _grouped_trie(orders, n, max_states):
    """``_order_trie`` with every live set grouped, a lone order's too, and
    no budget: the reference for the trie's one-order shortcut."""
    weights = orders.weights
    trie = []
    level = [tuple(range(len(orders.orders)))]
    for pos in range(n):
        first = len(trie) + len(level)
        nxt = []
        for live in level:
            w_live = sum(weights[i] for i in live)
            groups = {}
            for i in live:
                groups.setdefault(orders.orders[i][pos], []).append(i)
            trie.append(tuple((e, sum(weights[i] for i in idxs) / w_live,
                               first + len(nxt) + c)
                              for c, (e, idxs) in enumerate(groups.items())))
            nxt += map(tuple, groups.values())
        level = nxt
    return trie + [()] * len(level)


class TestOrderTrie:
    """The expectimax keyed on (order-trie node, feasibility state)."""

    def test_lone_orders_build_the_grouped_trie(self, monkeypatch):
        # a live set of one order skips the grouping; its share is w / w = 1.0
        rng = np.random.default_rng(53)
        cases = []
        for _ in range(20):
            instance, orders = random_micro_instance(rng, max_n=6, max_orders=4)
            weights = rng.uniform(0.1, 3.0, len(orders.orders))
            cases.append((instance, FiniteOrderDistribution(
                orders.orders, tuple((weights / weights.sum()).tolist()))))
        # a repeated order is one live set of two orders all the way down
        order = cases[0][1].orders[0]
        cases.append((cases[0][0], FiniteOrderDistribution(
            (order, order, order[::-1]), (0.25, 0.5, 0.25))))
        tree, tree_orders = _criterion3_orders(20)
        cases += [(tree, FiniteOrderDistribution.uniform(tree_orders)),
                  (tree, FiniteOrderDistribution.uniform(tree_orders[:1]))]
        nested, nested_orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        cases.append((nested, nested_orders))
        solved = [opt_unaware_exact(inst, orders) for inst, orders in cases]
        for inst, orders in cases:
            assert _order_trie(orders, inst.n, WIDE.max_states) == \
                _grouped_trie(orders, inst.n, WIDE.max_states)
        monkeypatch.setattr(solvers, "_order_trie", _grouped_trie)
        for (inst, orders), res in zip(cases, solved):
            ref = opt_unaware_exact(inst, orders)
            assert (repr(res.value), res.states_expanded) == \
                (repr(ref.value), ref.states_expanded)

    def test_multiunit_k100_solves(self):
        # (2k - OPT)/sqrt(k) is the independent backward induction's value
        instance, orders = build_multiunit_instance(100)
        for order, scaled in zip(orders.orders, (0.2906, 0.2245)):
            res = opt_aware_exact(instance, order)
            assert round((200 - res.value) / 10, 4) == scaled
            assert res.states_expanded == 35_350

    def test_nested_sweep_values_and_states(self):
        # 4, 8 and 16 orders at q = 2**-k1: the live-order-tuple expectimax's values
        pinned = {(2, 12, 3): ("0.3583984375", 649),
                  (3, 24, 3): ("0.19142388552427292", 8_985),
                  (4, 64, 4): ("0.09883911684676296", 161_825)}
        for (k1, k3, u), (value, states) in pinned.items():
            instance, orders = build_nested_scaled(k1, 2 ** k1, k3, u_size=u, q=2.0 ** -k1)
            res = opt_unaware_exact(instance, orders, limits=WIDE)
            assert (repr(res.value), res.states_expanded) == (value, states)

    def test_memo_is_freed_with_the_solve(self):
        # the 8-order sweep instance: without the unbinding, ten solves
        # leave ~3.4 MB of memo behind for the next full collection
        instance, orders = build_nested_scaled(3, 8, 24, u_size=3, q=0.125)
        opt_unaware_exact(instance, orders, limits=WIDE)  # warm the caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                opt_unaware_exact(instance, orders, limits=WIDE)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20


class TestVectorBackwardPass:
    """The expectimax's per-node vectors against the dict-per-node
    reference: equal by ``repr``, with equal state counts."""

    @staticmethod
    def _same(instance, orders):
        got, ref = _expectimax(instance, orders, WIDE), _dict_expectimax(instance, orders)
        assert type(got.value) is float
        assert (repr(got.value), got.states_expanded) == (repr(ref.value),
                                                          ref.states_expanded)
        return got

    def test_random_micro_instances_aware_and_unaware(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            instance, orders = random_micro_instance(rng, max_n=6, max_orders=4)
            self._same(instance, orders)
            for order in orders.orders:
                self._same(instance, FiniteOrderDistribution((order,), (1.0,)))

    def test_three_atom_values(self):
        # with three atoms or more, another summation order shows in the bits
        rng = np.random.default_rng(61)
        for _ in range(10):
            dists = tuple(ValueDistribution(tuple(zip(rng.uniform(0, 5, 3).tolist(),
                                                      (0.25, 0.35, 0.4))))
                          for _ in range(6))
            instance = Instance(name="ternary", dists=dists,
                                feasibility=KUniformOracle(n=6, k=2))
            orders = [tuple(int(e) for e in rng.permutation(6)) for _ in range(3)]
            self._same(instance, FiniteOrderDistribution.uniform(orders))

    def test_construction_instances(self):
        instance, orders = build_multiunit_instance(5)
        self._same(instance, orders)
        instance, orders = build_nested_scaled(2, 4, 12, u_size=3, q=0.25)
        self._same(instance, orders)
        self._same(instance, FiniteOrderDistribution((orders.orders[0],), (1.0,)))

    def test_pinned_benchmark_solves(self):
        # the exact-solve benchmark round's five solves and the k = 100
        # belief: a state numbered wrongly in a child changes a value's bits
        # or the state count
        mu, mu_orders = build_multiunit_instance(5)
        nested, orders = build_nested_scaled(3, 16, 32, u_size=4, q=0.1)
        mu100, mu100_orders = build_multiunit_instance(100)
        pinned = [
            (opt_aware_exact(mu, mu_orders.orders[0], limits=WIDE), "9.3671875", 105),
            (opt_aware_exact(mu, mu_orders.orders[1], limits=WIDE), "9.51171875", 105),
            (opt_unaware_exact(mu, mu_orders, limits=WIDE), "9.400390625", 189),
            (opt_unaware_exact(nested, orders, limits=WIDE), "0.18933724763935203", 28_641),
            (opt_aware_exact(nested, orders.orders[0], limits=WIDE),
             "0.814697981114816", 4_008),
            (opt_unaware_exact(mu100, mu100_orders, limits=WIDE),
             "197.35356466360798", 65_549),
        ]
        for res, value, states in pinned:
            assert (repr(res.value), res.states_expanded) == (value, states)

    def test_a_state_that_admits_no_action_is_refused(self):
        # a count of 1 admits neither action; the other counts step as usual
        class StuckAtOne(KUniformOracle):
            def successors(self, states, e):
                sel, dis = super().successors(states, e)
                return ([None if c == 1 else a for c, a in zip(states, sel)],
                        [None if c == 1 else b for c, b in zip(states, dis)])

        dists = (ValueDistribution.bernoulli(0.5),) * 3
        instance = Instance(name="stuck", dists=dists, feasibility=StuckAtOne(n=3, k=2))
        with pytest.raises(InconsistentState):
            opt_aware_exact(instance, (0, 1, 2))
        fine = Instance(name="fine", dists=dists, feasibility=KUniformOracle(n=3, k=2))
        # E[min(ones, 2)] over three fair coins: 3/8 + 2 * 4/8
        assert opt_aware_exact(fine, (0, 1, 2)).value == 1.375

    def test_forced_actions_and_a_zero_probability_atom(self):
        # not downward closed: every set holds element 1, so it must be
        # selected, and a selected 0 forces 3 out; element 2's atom 9.0 has
        # probability 0
        oracle = ExplicitFamilyOracle(n=4, sets=(frozenset({0, 1}), frozenset({0, 1, 2}),
                                                 frozenset({1, 3})))
        assert not oracle.downward_closed
        dists = (ValueDistribution.bernoulli(0.5, hi=2.0),
                 ValueDistribution.deterministic(1.0),
                 ValueDistribution(((9.0, 0.0), (1.0, 1.0))),
                 ValueDistribution.bernoulli(0.3, hi=4.0))
        instance = Instance(name="forced", dists=dists, feasibility=oracle)
        orders = FiniteOrderDistribution.uniform([(0, 1, 2, 3), (3, 2, 1, 0),
                                                  (2, 0, 3, 1)])
        one_order = FiniteOrderDistribution((orders.orders[1],), (1.0,))
        for belief, source in ((orders, orders), (one_order, orders.orders[1])):
            value = self._same(instance, belief).value
            assert math.isfinite(value)
            assert value == pytest.approx(exhaustive_policy_search(instance, source),
                                          abs=1e-12)


class TestProphet:
    def test_pairs_closed_form(self):
        instance, _ = build_pairs_instance(3)
        # max over three pairs, each worth Bernoulli(1/6): 1 - (5/6)^3
        assert prophet_exact(instance).value == pytest.approx(91.0 / 216.0, abs=1e-12)

    def test_independence_path_matches_enumeration(self):
        instance = build_partition_scaled(blocks=2, block_size=3, p=0.4)
        decomposed = prophet_exact(instance).value
        # same family via an explicit oracle forces the enumeration path
        explicit = _explicit_copy(instance)
        assert decomposed == pytest.approx(prophet_exact(explicit).value, abs=1e-12)

    def test_max_feasible_sum_matches_materialized_family(self):
        rng = np.random.default_rng(29)
        oracles = [KUniformOracle(n=6, k=2),
                   build_pairs_instance(3)[0].feasibility,
                   build_partition_scaled(blocks=2, block_size=3, p=0.5).feasibility,
                   TreePathOracle(k=2), nested_demo(), nested_overlapping(),
                   ExplicitFamilyOracle(n=5, sets=(frozenset(), frozenset({0, 3}),
                                                   frozenset({1, 2, 4}), frozenset({4}))),
                   _NoNeighbours(n=7)]
        for oracle in oracles:
            family = materialize(oracle)
            for _ in range(20):
                values = rng.random(oracle.n)
                brute = max(sum(values[e] for e in s) for s in family)
                assert max_feasible_sum(oracle, values) == pytest.approx(brute, abs=1e-12)

    # recorded on the per-kind optimizers the prophet had before it walked
    # the oracle's state; pairs and partition take the group-sum path
    @pytest.mark.parametrize("build,value,states", [
        (lambda: build_multiunit_instance(5)[0], 9.84619140625, 1024),
        (lambda: build_multiunit_instance(8)[0], 15.803619384765625, 65536),
        (lambda: build_nested_scaled(2, 8, 12, u_size=3, q=0.1)[0], 0.5695327899999997, 256),
        (lambda: build_nested_scaled(3, 16, 32, u_size=4, q=0.1)[0], 0.8146979811149215,
         65536),
        (lambda: build_tree_instance(2), 1.59375, 64),
        (lambda: build_pairs_instance(3)[0], 0.42129629629629617, 2),
        (lambda: build_partition_scaled(blocks=2, block_size=3, p=0.4), 1.6573440000000002, 4),
        (lambda: _explicit_copy(build_partition_scaled(blocks=2, block_size=3, p=0.4)),
         1.6573439999999997, 64)],
        ids=["multiunit-5", "multiunit-8", "nested-2-8-12", "nested-3-16-32", "tree-2",
             "pairs-3", "partition", "partition-explicit"])
    def test_pinned_values(self, build, value, states):
        result = prophet_exact(build())
        assert (repr(result.value), result.states_expanded) == (repr(value), states)
        assert type(result.value) is float

    def test_blocks_keep_the_bits(self, monkeypatch):
        # realizations are added in the same order whatever the block size
        instances = [build_multiunit_instance(3)[0],
                     build_nested_scaled(2, 8, 12, u_size=3, q=0.1)[0],
                     _explicit_copy(build_partition_scaled(blocks=2, block_size=3, p=0.4))]
        whole = [prophet_exact(i) for i in instances]
        monkeypatch.setattr(solvers, "PROPHET_ROWS", 5)
        assert [prophet_exact(i) for i in instances] == whole

    def test_blocks_list_the_product_support(self, monkeypatch):
        # a 3-atom element and 2-atom elements between deterministic ones;
        # the reference is one realization at a time, a running product of
        # the probabilities in id order
        dists = (ValueDistribution.deterministic(2.0),
                 ValueDistribution(((0.0, 0.1), (1.5, 0.3), (4.0, 0.6))),
                 ValueDistribution(((0.5, 0.7), (3.0, 0.3))),
                 ValueDistribution.deterministic(1.25),
                 ValueDistribution(((0.0, 0.45), (2.5, 0.55))),
                 ValueDistribution.deterministic(0.0),
                 ValueDistribution(((0.2, 0.9), (0.7, 0.1))))
        instance = Instance(name="mixed", dists=dists,
                            feasibility=KUniformOracle(n=len(dists), k=2))
        stochastic = [i for i, d in enumerate(dists) if not d.is_deterministic]
        expected = []
        for combo in itertools.product(*(dists[i].atoms for i in stochastic)):
            values = [d.atoms[0][0] for d in dists]
            prob = 1.0
            for i, (v, p) in zip(stochastic, combo):
                values[i] = v
                prob *= p
            expected.append((values, prob))
        monkeypatch.setattr(solvers, "PROPHET_ROWS", 5)
        blocks = list(_realization_blocks(instance))
        assert [len(probs) for _, probs in blocks] == [5, 5, 5, 5, 4]
        assert [(row.tolist(), prob) for row, prob in _realizations(instance)] == expected

    def test_a_block_matches_row_by_row(self):
        rng = np.random.default_rng(31)
        for oracle in [KUniformOracle(n=6, k=2), TreePathOracle(k=2), nested_demo(),
                       build_pairs_instance(3)[0].feasibility, _NoNeighbours(n=7)]:
            block = rng.random((9, oracle.n))
            rows = [max_feasible_sum(oracle, row) for row in block]
            assert all(type(r) is float for r in rows)
            assert max_feasible_sum(oracle, block).tolist() == rows
        with pytest.raises(ValueError, match="5 values for 6 elements"):
            max_feasible_sum(KUniformOracle(n=6, k=2), np.zeros(5))

    def test_an_oracle_of_another_kind(self):
        # the per-kind optimizers raised TooLarge on any kind but the six
        oracle = _NoNeighbours(n=6)
        dists = tuple(ValueDistribution(((0.5 * e, 0.25), (1.0 + e / 7, 0.75)))
                      for e in range(oracle.n))
        instance = Instance(name="no-neighbours", dists=dists, feasibility=oracle)
        family = materialize(oracle)
        brute = sum(prob * max(sum(values[e] for e in s) for s in family)
                    for values, prob in _realizations(instance))
        result = prophet_exact(instance)
        assert result.states_expanded == 2 ** oracle.n
        assert result.value == pytest.approx(brute, abs=1e-12)


def _realizations(instance):
    """Every value realization and its probability, row by row from the
    prophet's blocks."""
    for values, probs in _realization_blocks(instance):
        yield from zip(values, probs.tolist())


def _explicit_copy(instance):
    """The same family through an explicit oracle, which takes the
    enumeration path."""
    return Instance(name=f"{instance.name}-explicit", dists=instance.dists,
                    feasibility=ExplicitFamilyOracle(
                        n=instance.n, sets=materialize(instance.feasibility)))


@dataclasses.dataclass(frozen=True)
class _NoNeighbours:
    """An oracle of none of the package's kinds: the sets with no two
    consecutive ids, as the frozenset of selected ids."""

    n: int

    def start(self):
        return frozenset()

    def step(self, selected, e):
        clash = e - 1 in selected or e + 1 in selected
        return None if clash else selected | {e}, selected

    def successors(self, states, e):
        steps = [self.step(s, e) for s in states]
        return [a for a, _ in steps], [b for _, b in steps]

    def is_feasible(self, s):
        return all(e + 1 not in s for e in s)


def _enumerated(policy, instance, knowledge) -> float:
    """The forward pass's reference: every value realization, weighted by
    its probability, run step by step through ``run_policy``."""
    pstate = policy.start(instance, knowledge if policy.aware else Knowledge())
    return sum(prob * run_policy(policy, instance, knowledge.order, values, pstate).total
               for values, prob in _realizations(instance))


class TestPolicyEvaluation:
    def test_forward_pass_matches_enumeration(self):
        cases = []
        rng = np.random.default_rng(7)  # criterion 7's micro-instances
        for _ in range(50):
            instance, orders = random_micro_instance(rng)
            cases += [(GreedyPolicy(), instance, o) for o in orders.orders]
        # criterion 4's nested orders, with the aware policy and every guess
        nested, nested_orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        for order in nested_orders.orders:
            cases += [(p, nested, order) for p in
                      [NestedAwarePolicy()] + [NestedGuessPolicy(i=i) for i in range(4)]]
        tree = build_tree_instance(2)
        for trial in range(8):
            order = sample_tree_order(tree, 2026, trial).order
            cases += [(p, tree, order) for p in
                      (GreedyPolicy(), AlwaysDiscardPolicy(), TreeGamblePolicy(0),
                       TreeGamblePolicy(1), TreeGamblePolicy(2))]
        multi, multi_orders = build_multiunit_instance(3)
        for order in multi_orders.orders:
            cases += [(MultiunitThresholdPolicy(d, v), multi, order)
                      for d in (0.913, 1.152) for v in ("pi1", "pi2", "unaware")]
        for policy, instance, order in cases:
            kn = Knowledge(order)
            assert eval_policy_exact(policy, instance, kn) == pytest.approx(
                _enumerated(policy, instance, kn), rel=1e-12, abs=0), (policy.name, order)

    def test_tree_aware_is_told_the_labels(self):
        # the aware reference policy reads the good/bad labels of the trial
        # its order source realizes
        tree = build_tree_instance(2)
        for trial in range(8):
            kn = TreeOrders().realize(tree, 2026, trial)
            assert eval_policy_exact(TreeAwarePolicy(), tree, kn) == pytest.approx(
                _enumerated(TreeAwarePolicy(), tree, kn), rel=1e-12, abs=0), trial
        tree, orders = _criterion3_orders(5)
        for trial, order in enumerate(orders):
            kn = TreeOrders().realize(tree, 2026, trial)
            assert kn.order == order
            assert 0.0 < eval_policy_exact(TreeAwarePolicy(), tree, kn) <= \
                opt_aware_exact(tree, order).value

    def test_needs_the_trial_order(self):
        # an unaware policy's Knowledge() carries no order to walk; this
        # raised "order ids must be integers" from inside check_order
        instance = build_pairs_instance(2)[0]
        with pytest.raises(ValueError, match="needs the trial's order"):
            eval_policy_exact(GreedyPolicy(), instance, Knowledge())

    def test_forward_pass_errors_match_run_policy(self):
        inst = build_pairs_instance(2)[0]
        for action in ("neither", "select", None):
            class Bad(GreedyPolicy):
                def decide(self, pstate, e, v):
                    return action, pstate

            with pytest.raises(PolicyViolation, match="returned disallowed"):
                eval_policy_exact(Bad(), inst, Knowledge(tuple(range(inst.n))))

        class Stuck(KUniformOracle):
            def step(self, count, e):
                return None, None

        stuck = Instance(name="stuck", dists=inst.dists, feasibility=Stuck(n=inst.n, k=1))
        with pytest.raises(InconsistentState):
            eval_policy_exact(GreedyPolicy(), stuck, Knowledge(tuple(range(inst.n))))

    def test_values_are_pinned_by_repr(self):
        # criterion 3's k = 4 tree at seed 2026, and criterion 4's nested orders
        tree = build_tree_instance(4)
        pinned = {(0, "greedy"): "2.35259324199866",
                  (0, "tree_gamble:l=1"): "1.9974866512670038",
                  (1, "greedy"): "2.5327160698366806",
                  (1, "tree_gamble:l=1"): "1.9328717031278906",
                  (2, "greedy"): "2.5711659216206337",
                  (2, "tree_gamble:l=1"): "2.080121473564706"}
        for (fixed, spec), value in pinned.items():
            kn = TreeOrders(fixed=fixed).realize(tree, 2026, 0)
            assert repr(eval_policy_exact(parse_policy_spec(spec), tree, kn)) == value
        nested, orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        assert len(orders.orders) == 4
        for order in orders.orders:
            assert repr(eval_policy_exact(NestedAwarePolicy(), nested, Knowledge(order))) == \
                "0.5695327900000001"

    def test_greedy_on_capacity_one(self):
        dists = (ValueDistribution.bernoulli(0.5, hi=2.0),
                 ValueDistribution.deterministic(1.0))
        inst = Instance(name="cap1", dists=dists, feasibility=KUniformOracle(n=2, k=1))
        # greedy takes the first positive value: 2 w.p. 1/2, else the unit
        val = eval_policy_exact(GreedyPolicy(), inst, Knowledge((0, 1)))
        assert val == pytest.approx(1.5, abs=1e-12)

    def test_ratio_exact_report(self):
        rng = np.random.default_rng(31)
        instance, orders = random_micro_instance(rng, max_orders=2)
        report = ratio_exact(instance, orders, GreedyPolicy())
        assert len(report.rows) == len(orders.orders)
        assert report.prophet >= max(r.opt_aware for r in report.rows) - 1e-9
        for row in report.rows:
            assert row.ratio == pytest.approx(row.alg_value / row.opt_aware)
        assert report.min_ratio == min(r.ratio for r in report.rows)
        assert report.competitive_ratio <= report.min_ratio + 1e-9

    def test_ratio_exact_flags_zero_optimum(self):
        dists = (ValueDistribution.deterministic(0.0),)
        inst = Instance(name="null", dists=dists, feasibility=KUniformOracle(n=1, k=1))
        orders = FiniteOrderDistribution.uniform([(0,)])
        with pytest.warns(UserWarning):
            report = ratio_exact(inst, orders, GreedyPolicy())
        assert report.rows[0].ratio is None
        assert report.min_ratio is None and report.warnings

    def test_ratio_exact_rows_stand_when_the_prophet_is_too_large(self):
        # the k = 4 tree's 2^340 value support is beyond any prophet budget
        tree = build_tree_instance(4)
        order = sample_tree_order(tree, 2026, 0).order
        with pytest.warns(UserWarning, match="prophet"):
            report = ratio_exact(tree, FiniteOrderDistribution.uniform([order]),
                                 GreedyPolicy())
        assert report.prophet is None and report.competitive_ratio is None
        assert report.warnings
        alg = eval_policy_exact(GreedyPolicy(), tree, Knowledge(order))
        assert report.min_ratio == alg / opt_aware_exact(tree, order).value


class TestGuards:
    def test_limit_validation(self):
        assert SolverLimits().max_elements is None
        for bad in ({"max_elements": 0}, {"max_states": 0}):
            with pytest.raises(ValueError):
                SolverLimits(**bad)

    def test_element_and_order_limits(self):
        rng = np.random.default_rng(37)
        instance, orders = random_micro_instance(rng, max_orders=1)
        order = orders.orders[0]
        two_orders = FiniteOrderDistribution.uniform([order, order[::-1]])
        with pytest.raises(TooLarge, match="elements over the limit 1"):
            opt_aware_exact(instance, order, limits=SolverLimits(max_elements=1))
        # orders that part at once make a trie of 2n + 1 nodes
        with pytest.raises(TooLarge, match="state budget"):
            opt_unaware_exact(instance, two_orders,
                              limits=SolverLimits(max_states=2 * instance.n))
        with pytest.raises(TooLarge):
            opt_aware_exact(instance, orders.orders[0],
                            limits=SolverLimits(max_states=1))

    def test_orders_of_another_length_are_refused(self):
        # they once raised IndexError from inside the expectimax
        instance, _ = build_multiunit_instance(2)
        assert instance.n == 8
        for n in (6, 10):
            orders = FiniteOrderDistribution.uniform([tuple(range(n)), tuple(range(n))[::-1]])
            with pytest.raises(ValueError, match="permutation of all element ids"):
                opt_unaware_exact(instance, orders)
            with pytest.raises(ValueError, match="permutation of all element ids"):
                opt_aware_exact(instance, orders.orders[0])

    def test_order_trie_counts_its_nodes_against_the_budget(self):
        orders = FiniteOrderDistribution.uniform([(0, 1, 2), (2, 1, 0)])
        assert len(_order_trie(orders, 3, max_states=7)) == 7
        with pytest.raises(TooLarge, match="state budget 6 exceeded"):
            _order_trie(orders, 3, max_states=6)

    def test_many_orders_fit_the_default_limits(self):
        # the trie of one order repeated 100 times is that order's chain
        instance, orders = build_multiunit_instance(5)
        order = orders.orders[0]
        res = opt_unaware_exact(instance, FiniteOrderDistribution.uniform([order] * 100))
        aware = opt_aware_exact(instance, order)
        assert repr(res.value) == repr(aware.value) == "9.3671875"
        assert res.states_expanded == aware.states_expanded

    def test_twelve_elements_fit_the_default_limits(self):
        instance, orders = build_multiunit_instance(3)
        assert instance.n == 12
        res = opt_unaware_exact(instance, orders)
        assert (repr(res.value), res.states_expanded) == ("5.5625", 74)

    def test_long_order_solves(self):
        # no depth limit: 3.5·k(k+1) states under the default budget, and
        # (2k - OPT)/sqrt(k) lies between the independent induction's
        # 0.2906 at k = 100 and 0.2911 at k = 1,000
        instance, orders = build_multiunit_instance(300)
        res = opt_aware_exact(instance, orders.orders[0])
        assert res.states_expanded == 316_050
        assert round((600 - res.value) / np.sqrt(300), 4) == 0.2910

    def test_longer_order_exceeds_the_default_state_budget(self):
        instance, orders = build_multiunit_instance(1000)
        with pytest.raises(TooLarge, match="state budget 2000000"):
            opt_aware_exact(instance, orders.orders[0])

    def test_exhaustive_guards(self):
        instance = build_partition_scaled(blocks=3, block_size=3, p=0.5)
        with pytest.raises(TooLarge):
            exhaustive_policy_search(instance, tuple(range(instance.n)))
        dists = (ValueDistribution(((0.0, 0.3), (1.0, 0.3), (2.0, 0.4))),)
        ternary = Instance(name="t", dists=dists, feasibility=KUniformOracle(n=1, k=1))
        with pytest.raises(TooLarge):
            exhaustive_policy_search(ternary, (0,))

    def test_realization_budget(self):
        # the tree has no independent groups, so the prophet value would
        # enumerate the k = 4 tree's 2^340 realizations, over MAX_REALIZATIONS
        instance = build_tree_instance(4)
        assert 2 ** instance.n > MAX_REALIZATIONS
        with pytest.raises(TooLarge, match="support product"):
            prophet_exact(instance)

    def test_policy_evaluation_state_budget(self):
        # greedy on the k = 2 tree in id order: the pairs are (deepest
        # selection or none, None), 1, 2, ..., 6 of them at the six positions
        instance = build_tree_instance(2)
        kn = Knowledge(tuple(range(instance.n)))
        eval_policy_exact(GreedyPolicy(), instance, kn, limits=SolverLimits(max_states=21))
        with pytest.raises(TooLarge, match="state budget 20"):
            eval_policy_exact(GreedyPolicy(), instance, kn, limits=SolverLimits(max_states=20))
