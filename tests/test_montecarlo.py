"""Monte-Carlo harness: deterministic chunked aggregation, interval
calibration, order sources, and the ratio estimator."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from ocrlab.constructions import (build_multiunit_instance, build_tree_instance)
from ocrlab.core import (FiniteOrderDistribution, Instance, ValueDistribution,
                         dump_instance, load_instance, sample_values, trial_rng)
from ocrlab.feasibility import KUniformOracle
from ocrlab.montecarlo import (CHUNK_SIZE, TRACE_CAP, FixedOrder, SampledOrders,
                               TreeOrders, _pick_engine, _random_block_twos,
                               collect_traces, estimate_ratio, simulate,
                               simulate_many)
from ocrlab.policies import GreedyPolicy, MultiunitThresholdPolicy, TreeAwarePolicy


def bernoulli_instance(p=0.3):
    dists = (ValueDistribution.bernoulli(p),)
    return Instance(name="coin", dists=dists, feasibility=KUniformOracle(n=1, k=1))


class TestDeterminism:
    def test_worker_count_is_invisible_generic_path(self):
        inst, orders = build_multiunit_instance(3)
        policy = GreedyPolicy()
        trials = 3 * CHUNK_SIZE + 100  # force several chunks, one ragged
        serial = simulate(policy, inst, FixedOrder(orders.orders[0]),
                          trials=trials, seed=5, workers=1, fast=False)
        parallel = simulate(policy, inst, FixedOrder(orders.orders[0]),
                            trials=trials, seed=5, workers=4, fast=False)
        assert json.dumps(dataclasses.asdict(serial)) == json.dumps(dataclasses.asdict(parallel))

    def test_worker_count_is_invisible_tree_path(self):
        inst = build_tree_instance(2)
        serial = simulate(TreeAwarePolicy(), inst, TreeOrders(),
                          trials=2 * CHUNK_SIZE + 7, seed=9, workers=1)
        parallel = simulate(TreeAwarePolicy(), inst, TreeOrders(),
                            trials=2 * CHUNK_SIZE + 7, seed=9, workers=3)
        assert serial == parallel

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            simulate(GreedyPolicy(), bernoulli_instance(), (0,), trials=1, seed=0)


class TestEstimates:
    def test_mean_and_interval_calibration(self):
        # 1000 independent estimates of a Bernoulli(0.3) mean: the nominal
        # 95% interval must cover the truth in line with its confidence level
        inst = bernoulli_instance(0.3)
        policy = GreedyPolicy()
        covered = 0
        for meta in range(1000):
            rep = simulate(policy, inst, (0,), trials=200, seed=meta)
            covered += rep.ci95[0] <= 0.3 <= rep.ci95[1]
        assert covered >= 920  # > 3 sigma below the nominal 950

    def test_report_fields(self):
        rep = simulate(GreedyPolicy(), bernoulli_instance(), (0,),
                       trials=500, seed=3)
        doc = dataclasses.asdict(rep)
        assert doc["trials"] == 500 and doc["seed"] == 3
        assert doc["ci95"][0] <= doc["mean"] <= doc["ci95"][1]
        assert 0.0 < doc["mean"] < 1.0

    def test_shared_realizations_across_policies(self):
        # simulate_many evaluates all policies on the same trial draws, so a
        # duplicated policy reports exactly the same numbers
        inst, orders = build_multiunit_instance(4)
        a, b = (MultiunitThresholdPolicy(0.913, "unaware") for _ in range(2))
        rep_a, rep_b = simulate_many([a, b], inst, FixedOrder(orders.orders[0]),
                                     trials=400, seed=1)
        assert rep_a == rep_b


class TestOrderSources:
    def test_sampled_orders_cover_the_support(self):
        inst, orders = build_multiunit_instance(2)
        src = SampledOrders(orders)
        seen = {src.realize(inst, 7, t).order for t in range(200)}
        assert seen == set(orders.orders)
        assert src.realize(inst, 7, 3) == src.realize(inst, 7, 3)

    def test_tree_orders_pinned(self):
        inst = build_tree_instance(4)
        assert [TreeOrders().order_trial(t) for t in (0, 5)] == [0, 5]
        assert TreeOrders(fixed=0).order_trial(7) == 0
        pinned = TreeOrders(fixed=11)
        assert pinned.order_trial(0) == pinned.order_trial(999) == 11
        kn = pinned.realize(inst, 2, 123)
        again = pinned.realize(inst, 2, 456)
        assert kn.order == again.order and (kn.good == again.good).all()

    @pytest.mark.parametrize("kwargs", [
        {"fixed": 1.5}, {"fixed": 2 ** 62}, {"fixed": -1}, {"fixed": True}])
    def test_tree_orders_reject_bad_settings(self, kwargs):
        # a negative index gave negative order trials; a float or oversized
        # one failed only at the first realization; True realized order 1
        with pytest.raises(ValueError):
            TreeOrders(**kwargs)

    def test_a_bool_seed_is_refused(self):
        # seed=True ran seed 1's cells and reported "seed": true
        inst = build_tree_instance(2)
        for run in (simulate, collect_traces):
            with pytest.raises(ValueError, match="must be integers"):
                run(GreedyPolicy(), inst, TreeOrders(), trials=10, seed=True)

    def test_tree_orders_need_the_tree_oracle(self):
        # a multi-unit instance once drew a 6-element tree order from its
        # metadata's k = 2 and reported a mean over 6 of its 8 elements
        inst, _ = build_multiunit_instance(2)
        for run in (simulate, collect_traces):
            with pytest.raises(ValueError, match="tree"):
                run(GreedyPolicy(), inst, TreeOrders(), trials=2, seed=0)

    def test_fixed_order_must_cover_every_element(self):
        # a short fixed or sampled order would otherwise walk 2 of the 3
        # elements and report a mean
        dists = tuple(ValueDistribution.bernoulli(0.5) for _ in range(3))
        inst = Instance(name="three", dists=dists, feasibility=KUniformOracle(n=3, k=1))
        short = SampledOrders(FiniteOrderDistribution.uniform([(0, 1), (1, 0)]))
        for source in (FixedOrder((0, 1)), (0, 1), short):
            with pytest.raises(ValueError):
                simulate(GreedyPolicy(), inst, source, trials=2, seed=0)
            with pytest.raises(ValueError):
                collect_traces(GreedyPolicy(), inst, source, trials=2, seed=0)


def _edited(instance, first, stop, dist):
    """A fresh copy of ``instance`` whose elements first..stop-1 follow
    ``dist``; metadata and oracle are unchanged."""
    dists = list(instance.dists)
    dists[first:stop] = [dist] * (stop - first)
    return Instance(instance.name, tuple(dists), instance.feasibility,
                    dict(instance.metadata))


class TestFastPaths:
    def test_random_block_twos_match_the_uniform_draw(self):
        # pins NumPy's word-to-double mapping: u >= 0.5 iff the top bit is set
        for k in (1, 2, 3, 5, 7, 10):
            for seed, trial in ((0, 0), (1, 7), (42, 1000), (2026, 31)):
                u = trial_rng(seed, trial).random(4 * k)
                expected = np.count_nonzero(u[2 * k:] >= 0.5)
                assert _random_block_twos(k, seed, trial, 1)[0] == expected, (k, seed, trial)

    def test_fast_paths_survive_the_instance_file_round_trip(self, tmp_path):
        inst, orders = build_multiunit_instance(3)
        tree = build_tree_instance(2)
        for built, policy, source in (
                (inst, MultiunitThresholdPolicy(0.913, "pi2"), FixedOrder(orders.orders[1])),
                (tree, GreedyPolicy(), TreeOrders())):
            path = tmp_path / f"{built.name}.json"
            dump_instance(built, path)
            loaded, _ = load_instance(path)
            assert _pick_engine(built, [policy], source, True)[0] != "generic"
            assert _pick_engine(loaded, [policy], source, True)[0] != "generic"

    def test_edited_instances_take_the_generic_engine(self):
        # the construction tag alone must not pick a fast path whose closed
        # form or walkers assume the construction's values
        k = 4
        inst, orders = build_multiunit_instance(k)
        tree = build_tree_instance(2)
        cases = [
            (_edited(inst, 2 * k, 4 * k, ValueDistribution(((0.0, 0.5), (3.0, 0.5)))),
             MultiunitThresholdPolicy(0.913, "pi2"), FixedOrder(orders.orders[1])),
            (_edited(tree, 0, 1, ValueDistribution.bernoulli(0.9)),
             GreedyPolicy(), TreeOrders()),
        ]
        for edited, policy, source in cases:
            assert _pick_engine(edited, [policy], source, True)[0] == "generic"
            fast = simulate(policy, edited, source, trials=400, seed=1)
            slow = simulate(policy, edited, source, trials=400, seed=1, fast=False)
            assert fast.mean == slow.mean

    def test_a_replaced_copy_regroups_its_own_values(self):
        # dataclasses.replace once copied the value-group cache: after one
        # simulate of the built instance, a copy worth 5.0 everywhere still
        # drew the built values and took the multi-unit fast path (mean 3.06)
        inst, orders = build_multiunit_instance(2)
        policy = MultiunitThresholdPolicy(0.913, "pi1")
        source = FixedOrder(orders.orders[0])
        simulate(policy, inst, source, trials=100, seed=1)
        five = dataclasses.replace(inst, dists=(ValueDistribution.deterministic(5.0),) * inst.n)
        np.testing.assert_array_equal(sample_values(five, 1, 0), np.full(inst.n, 5.0))
        assert _pick_engine(five, [policy], source, True)[0] == "generic"
        assert simulate(policy, five, source, trials=100, seed=1).mean == 10.0

    @pytest.mark.parametrize("edit", ["no-metadata", "wrong-k"])
    def test_engines_read_the_oracle_not_the_metadata(self, edit):
        # metadata is a label: without it, or with a wrong k, every engine
        # runs as on the built instance (the generic multi-unit run without
        # it once raised KeyError: 'k' in the policy's start)
        inst, orders = build_multiunit_instance(3)
        tree = build_tree_instance(4)
        for built, policies, source, trials in (
                (inst, [MultiunitThresholdPolicy(0.913, v) for v in ("pi1", "unaware")],
                 FixedOrder(orders.orders[1]), 400),
                (tree, [GreedyPolicy(), TreeAwarePolicy()], TreeOrders(), 100)):
            metadata = {} if edit == "no-metadata" else {**built.metadata, "k": "2"}
            relabelled = dataclasses.replace(built, metadata=metadata)
            engine = _pick_engine(built, policies, source, True)
            assert engine[0] != "generic"
            assert _pick_engine(relabelled, policies, source, True) == engine
            for fast in (True, False):
                assert (simulate_many(policies, relabelled, source, trials, 1, fast=fast)
                        == simulate_many(policies, built, source, trials, 1, fast=fast))

    def test_non_canonical_multiunit_order_takes_the_generic_engine(self):
        # the closed form holds on the construction's two orders only
        inst, orders = build_multiunit_instance(4)
        policies = [MultiunitThresholdPolicy(0.913, v) for v in ("pi1", "pi2", "unaware")]
        source = FixedOrder(orders.orders[0][::-1])
        assert _pick_engine(inst, policies, source, True) == ("generic", None)
        fast = simulate_many(policies, inst, source, trials=300, seed=2)
        slow = simulate_many(policies, inst, source, trials=300, seed=2, fast=False)
        assert [r.mean for r in fast] == [r.mean for r in slow]
        for tag, order in zip(("pi1", "pi2"), orders.orders):
            assert _pick_engine(inst, policies, FixedOrder(order), True) == ("multiunit", tag)


class TestTraces:
    def test_collect_traces_is_capped(self):
        inst = bernoulli_instance()
        traces = collect_traces(GreedyPolicy(), inst, (0,),
                                trials=TRACE_CAP + 50, seed=0)
        assert len(traces) == TRACE_CAP
        assert all(len(t.steps) == 1 for t in traces)


def multiunit_sources(k: int):
    inst, orders = build_multiunit_instance(k)
    return inst, [FixedOrder(o) for o in orders.orders]


class TestRatioEstimation:
    def test_exact_reference_denominators(self):
        inst, sources = multiunit_sources(4)
        policy = MultiunitThresholdPolicy(0.913, "unaware")
        est = estimate_ratio(policy, inst, sources, trials=2000, seed=2,
                             references=[7.0, 8.0])
        assert not est.denominator_is_lower_bound
        assert [r.denominator for r in est.rows] == [7.0, 8.0]
        for row in est.rows:
            assert row.ratio == row.numerator.mean / row.denominator
        assert est.min_ratio == min(r.ratio for r in est.rows)

    def test_policy_reference_is_flagged_and_paired(self):
        inst, sources = multiunit_sources(4)
        policy = MultiunitThresholdPolicy(0.913, "pi1")
        est = estimate_ratio(policy, inst, sources, trials=2000, seed=2,
                             references=[policy, policy])
        assert est.denominator_is_lower_bound
        # numerator and denominator share realizations: identical policies
        # give ratio exactly 1, inside (num_lo / den_hi, num_hi / den_lo)
        for row in est.rows:
            assert row.ratio == 1.0
            assert row.ratio_ci[0] <= 1.0 <= row.ratio_ci[1]

    def test_mixed_references_run_each_order_as_one_call(self):
        # an exact reference runs the policy alone; a policy reference runs
        # beside it on the same trials, and flags the whole estimate
        inst, sources = multiunit_sources(4)
        policy, ref = GreedyPolicy(), MultiunitThresholdPolicy(1.152, "pi1")
        est = estimate_ratio(policy, inst, sources, trials=600, seed=4,
                             references=[7.0, ref])
        assert est.denominator_is_lower_bound
        assert est.rows[0].numerator == simulate(policy, inst, sources[0], 300, 4)
        assert est.rows[0].denominator == 7.0
        num, den = simulate_many([policy, ref], inst, sources[1], 300, 4)
        assert (est.rows[1].numerator, est.rows[1].denominator) == (num, den)

    def test_reference_count_must_match_orders(self):
        inst, sources = multiunit_sources(4)
        with pytest.raises(ValueError):
            estimate_ratio(GreedyPolicy(), inst, sources, trials=100, seed=0,
                           references=[1.0])

    def test_no_orders_is_refused(self):
        # no orders gave "integer modulo by zero" when splitting the trials
        inst, _ = multiunit_sources(4)
        with pytest.raises(ValueError, match="at least one order"):
            estimate_ratio(GreedyPolicy(), inst, [], trials=10, seed=0, references=[])

    def test_zero_reference_is_excluded_with_warning(self):
        inst, sources = multiunit_sources(4)
        est = estimate_ratio(GreedyPolicy(), inst, sources, trials=100, seed=0,
                             references=[0.0, 5.0])
        assert est.rows[0].ratio is None and est.warnings
        assert est.min_ratio == est.rows[1].ratio
