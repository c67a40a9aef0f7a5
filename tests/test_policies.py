"""Reference policies: spec parsing, knowledge handling, threshold rules, and
bit-exact agreement between the fast simulation paths and the step-by-step
generic path."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from ocrlab.constructions import build_multiunit_instance, build_nested_scaled, \
    build_tree_instance
from ocrlab.core import (STREAM_POLICY, Action, Instance, ValueDistribution,
                         run_policy, sample_values, trial_rng)
from ocrlab.errors import BadThreshold, DecodeFailure, MissingLabels
from ocrlab.feasibility import KUniformOracle, NestedPhaseOracle, PairMatchOracle
from ocrlab.montecarlo import CHUNK_SIZE, TREE_BLOCK_CELLS, FixedOrder, TreeOrders, \
    simulate_many
from ocrlab.policies import (AlwaysDiscardPolicy, GreedyPolicy, Knowledge,
                             MultiunitThresholdPolicy, NestedAwarePolicy,
                             NestedGuessPolicy, TreeAwarePolicy, TreeGamblePolicy,
                             decode_nested_index, parse_policy_spec)
from ocrlab.solvers import eval_policy_exact


class TestKnowledge:
    def test_labels_need_the_order(self):
        # unaware knowledge is Knowledge(): neither an order nor labels
        assert [f.name for f in dataclasses.fields(Knowledge)] == ["order", "good"]
        assert Knowledge().order is None and Knowledge().good is None
        with pytest.raises(ValueError):
            Knowledge(good=np.ones(6, dtype=bool))

    def test_aware_policy_requires_aware_knowledge(self):
        inst = build_tree_instance(2)
        with pytest.raises(MissingLabels):
            TreeAwarePolicy().start(inst, Knowledge())

    def test_tree_aware_requires_labels(self):
        inst = build_tree_instance(2)
        with pytest.raises(MissingLabels):
            TreeAwarePolicy().start(inst, Knowledge((0, 1, 2, 3, 4, 5)))

    def test_start_refuses_an_oracle_it_does_not_read(self):
        # these starts once failed with AttributeError on a foreign oracle
        tree = build_tree_instance(2)
        multi, _ = build_multiunit_instance(2)
        nested, _ = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        for policy, inst in ((TreeAwarePolicy(), multi), (TreeGamblePolicy(1), nested),
                             (NestedAwarePolicy(), tree), (NestedGuessPolicy(), multi),
                             (MultiunitThresholdPolicy(0.5, "pi1"), tree)):
            with pytest.raises(ValueError, match=f"needs a .* oracle, not a "
                                                 f"{inst.feasibility.kind.replace('_', '-')}"):
                policy.start(inst, Knowledge(tuple(range(inst.n))))
        for policy in (GreedyPolicy(), AlwaysDiscardPolicy()):
            assert policy.oracle_class is None
            for inst in (tree, multi, nested):
                policy.start(inst, Knowledge())


class TestStateMachines:
    def test_runs_leave_the_policy_as_start_left_it(self):
        # decide and notify are pure: after start, runs from the one initial
        # state change nothing on the policy and match runs after a fresh start
        tree = build_tree_instance(4)
        tree_kn = TreeOrders().realize(tree, 3, 0)
        tree_order = tree_kn.order
        multi, multi_orders = build_multiunit_instance(5)
        nested, nested_orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.5)
        unaware = Knowledge()
        cases = [
            (TreeAwarePolicy(), tree, tree_order, tree_kn),
            (TreeGamblePolicy(2), tree, tree_order, unaware),
            (GreedyPolicy(), tree, tree_order, unaware),
            (MultiunitThresholdPolicy(0.913, "unaware"), multi, multi_orders.orders[1],
             unaware),
            (NestedAwarePolicy(), nested, nested_orders.orders[1],
             Knowledge(nested_orders.orders[1])),
            (NestedGuessPolicy(rule="uniform"), nested, nested_orders.orders[1], unaware),
        ]
        for policy, inst, order, kn in cases:
            def start():
                return policy.start(inst, kn, rng=trial_rng(5, 0, STREAM_POLICY))

            pstate = start()
            before = pickle.dumps(vars(policy))
            for trial in range(10):
                values = sample_values(inst, 5, trial)
                trace = run_policy(policy, inst, order, values, pstate)
                assert pickle.dumps(vars(policy)) == before, policy.name
                assert trace == run_policy(policy, inst, order, values, start())


class TestPolicySpecs:
    def test_round_trips(self):
        p = parse_policy_spec("multiunit_threshold:d=1.152,variant=pi1")
        assert isinstance(p, MultiunitThresholdPolicy)
        assert p.d == 1.152 and p.variant == "pi1" and p.aware
        assert parse_policy_spec("tree_gamble:l=3").l == 3
        assert parse_policy_spec("nested_guess:rule=fixed,i=2").i == 2
        assert parse_policy_spec("greedy").name == "greedy"
        assert not parse_policy_spec("multiunit_threshold:d=0,variant=unaware").aware

    def test_left_out_arguments_take_the_class_defaults(self):
        for spec, policy in (("tree_gamble", TreeGamblePolicy()),
                             ("nested_guess", NestedGuessPolicy()),
                             ("nested_guess:rule=uniform", NestedGuessPolicy(rule="uniform"))):
            parsed = parse_policy_spec(spec)
            assert type(parsed) is type(policy) and vars(parsed) == vars(policy)
        assert TreeGamblePolicy().name == "tree_gamble_l0"

    def test_rejects_malformed_specs(self):
        for spec in ("mystery", "greedy:x=1", "multiunit_threshold:d=1",
                     "multiunit_threshold:d=1,variant=pi1,extra=2",
                     "tree_gamble:l", "tree_gamble:l=2,bogus=7", "tree_gamble:L=2"):
            with pytest.raises(ValueError):
                parse_policy_spec(spec)


class TestMultiunitThreshold:
    def test_threshold_validation(self):
        with pytest.raises(BadThreshold):
            MultiunitThresholdPolicy(-0.1, "pi1")
        with pytest.raises(ValueError):
            MultiunitThresholdPolicy(1.0, "pi3")
        inst, orders = build_multiunit_instance(2)
        big = MultiunitThresholdPolicy(10.0, "pi1")  # m = 10 > k = 2
        with pytest.raises(BadThreshold):
            big.start(inst, Knowledge(orders.orders[0]))

    def test_fast_path_matches_generic_bit_exactly(self):
        # odd k leaves 2k mod 4 = 2 words of a Philox step before the random block
        policies = [MultiunitThresholdPolicy(d, variant)
                    for d in (0.0, 0.674, 0.913, 1.152)
                    for variant in ("pi1", "pi2", "unaware")]
        for k in (1, 3, 5, 6):
            inst, orders = build_multiunit_instance(k)
            for order in orders.orders:
                src = FixedOrder(order)
                fast = simulate_many(policies, inst, src, trials=500, seed=4, fast=True)
                slow = simulate_many(policies, inst, src, trials=500, seed=4, fast=False)
                for f, s in zip(fast, slow):
                    assert f.mean == s.mean and f.stderr == s.stderr, (k, order)

    def test_unaware_commit_is_order_consistent(self):
        # an unaware rule must act identically on identical (element, value)
        # history prefixes; the two canonical orders share the length-k prefix
        inst, orders = build_multiunit_instance(5)
        policy = MultiunitThresholdPolicy(0.913, "unaware")
        k = 5
        for trial in range(20):
            values = sample_values(inst, 8, trial)
            prefixes = []
            for order in orders.orders:
                pstate = policy.start(inst, Knowledge())
                trace = run_policy(policy, inst, order, values, pstate)
                prefixes.append(trace.steps[:k])
            assert prefixes[0] == prefixes[1]

    def test_commit_waits_for_the_whole_random_block(self):
        # on a-then-c-then-b, the committed rule may buy units once all 2k
        # c-values are seen; on a-then-b-then-c it must refuse every unit
        inst, orders = build_multiunit_instance(4)
        policy = MultiunitThresholdPolicy(0.0, "unaware")
        values = np.array([1.75] * 4 + [1.0] * 4 + [0.0] * 8)  # every c worth 0
        pstate = policy.start(inst, Knowledge())
        pi2_total = run_policy(policy, inst, orders.orders[1], values, pstate).total
        assert pi2_total == 4.0  # all four units bought after C passes
        pi1_total = run_policy(policy, inst, orders.orders[0], values, pstate).total
        assert pi1_total == 0.0

    def test_requires_the_k_uniform_oracle(self):
        # decide assumes capacity is left, which only the k-uniform oracle
        # with the instance's k guarantees
        inst, orders = build_multiunit_instance(3)
        policy = MultiunitThresholdPolicy(0.913, "unaware")
        policy.start(inst, Knowledge())
        for oracle in (KUniformOracle(n=12, k=2), PairMatchOracle(k=6)):
            bad = dataclasses.replace(inst, feasibility=oracle)
            with pytest.raises(ValueError, match="k-uniform"):
                policy.start(bad, Knowledge())


class TestTreePolicies:
    def test_gamble_validation(self):
        with pytest.raises(ValueError):
            TreeGamblePolicy(-1)

    @pytest.mark.parametrize("k", [2, 4])
    def test_fast_walkers_match_generic_bit_exactly(self, k):
        inst = build_tree_instance(k)
        # k = 2 spans two chunks; k = 4 spans several of the fast path's trial blocks
        trials = CHUNK_SIZE + 10 if k == 2 else 300
        assert trials > min(CHUNK_SIZE, TREE_BLOCK_CELLS // inst.n)
        policies = ([TreeAwarePolicy(), GreedyPolicy(), AlwaysDiscardPolicy()]
                    + [TreeGamblePolicy(l) for l in range(k + 1)])
        for src in (TreeOrders(), TreeOrders(fixed=5)):
            fast = simulate_many(policies, inst, src, trials=trials, seed=6, fast=True)
            slow = simulate_many(policies, inst, src, trials=trials, seed=6, fast=False)
            for f, s in zip(fast, slow):
                assert f.mean == s.mean and f.stderr == s.stderr, src


    def test_block_without_value_one_elements(self):
        # seed 16 draws no value-1 element in trial CHUNK_SIZE, so the second
        # chunk's only block has nothing to rank
        inst = build_tree_instance(2)
        assert not sample_values(inst, 16, CHUNK_SIZE).any()
        policies = [TreeAwarePolicy(), GreedyPolicy(), TreeGamblePolicy(1)]
        fast = simulate_many(policies, inst, TreeOrders(), trials=CHUNK_SIZE + 1, seed=16)
        slow = simulate_many(policies, inst, TreeOrders(), trials=CHUNK_SIZE + 1, seed=16,
                             fast=False)
        assert [f.mean for f in fast] == [s.mean for s in slow]


class TestNestedPolicies:
    def test_aware_value_is_exact(self):
        inst, orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        target = 1.0 - 0.9 ** 8
        for order in orders.orders:
            val = eval_policy_exact(NestedAwarePolicy(), inst, Knowledge(order))
            assert val == pytest.approx(target, abs=1e-12)

    def test_aware_completes_the_b_it_holds_whether_decided_or_forced(self):
        # U_0 = {c0, c1} and U_1 = {c1, c2} overlap, so once b2 is held both
        # (0, b2) and (1, b2) are alive and c2 is a live choice; only the
        # policy state says which b is held, also when b2 came forced
        a0, (b0, b1, b2, b3), (c0, c1, c2) = 0, (1, 2, 3, 4), (5, 6, 7)
        oracle = NestedPhaseOracle(a_ids=(a0,), b_ids=(b0, b1, b2, b3), c_ids=(c0, c1, c2),
                                   u_sets=(frozenset({c0, c1}), frozenset({c1, c2})))
        inst = Instance("overlap", (ValueDistribution.deterministic(0.0),) * 8, oracle)
        values = np.zeros(8)
        values[b2] = 1.0
        # c0 before the B block decodes index 1; b2 is decided as worth 1,
        # or forced as the last B after the others are declined
        for order in ((c0, b2, b0, b1, b3, c2, c1, a0), (c0, b0, b1, b3, b2, c2, c1, a0)):
            policy = NestedAwarePolicy()
            pstate = policy.start(inst, Knowledge(order))
            trace = run_policy(policy, inst, order, values, pstate)
            assert {e for e, _, a in trace.steps if a is Action.SELECT} == {a0, b2, c2}, order

    def test_guess_value_depends_on_match(self):
        inst, orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        # guessing the realized index recovers the aware value; any other
        # guess only ever gets the single surviving unit element
        right = eval_policy_exact(NestedGuessPolicy(i=2), inst, Knowledge(orders.orders[2]))
        wrong = eval_policy_exact(NestedGuessPolicy(i=2), inst, Knowledge(orders.orders[0]))
        assert right == pytest.approx(1.0 - 0.9 ** 8, abs=1e-12)
        assert wrong == pytest.approx(0.1, abs=1e-12)

    def test_uniform_guess_needs_rng(self):
        inst, _ = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        with pytest.raises(ValueError):
            NestedGuessPolicy(rule="uniform").start(inst, Knowledge())
        policy = NestedGuessPolicy(rule="uniform")
        policy.start(inst, Knowledge(), rng=trial_rng(0, 0, 2))

    def test_uniform_guess_draws_a_fresh_stream_per_policy(self):
        # only the uniform guess draws; each copy gets the trial's policy
        # stream afresh, whatever runs beside it
        inst, orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        specs = ("nested_guess:rule=uniform", "nested_aware", "nested_guess:rule=uniform",
                 "greedy")
        reports = simulate_many([parse_policy_spec(s) for s in specs], inst,
                                FixedOrder(orders.orders[1]), trials=3001, seed=11)
        for i in (0, 2):
            assert repr(reports[i].mean) == "0.21726091302899034"
            assert repr(reports[i].stderr) == "0.007529024033671293"

    def test_decode_failure_on_ambiguous_order(self):
        inst, orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        # an order whose pre-B block covers all of C matches no U set
        oracle = inst.feasibility
        scrambled = tuple(oracle.a_ids) + tuple(oracle.c_ids) + tuple(oracle.b_ids)
        with pytest.raises(DecodeFailure):
            decode_nested_index(oracle, scrambled)
