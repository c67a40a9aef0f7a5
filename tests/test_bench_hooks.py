"""The benchmark's traced run wraps ocrlab's layer entry points by name
(``perfbench/tracing.py``). Installing its hooks here makes a renamed or
removed entry point fail the test suite, not only a traced benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from ocrlab.constructions import build_multiunit_instance, build_tree_instance
from ocrlab.montecarlo import (CHUNK_SIZE, FixedOrder, TreeOrders, collect_traces,
                               simulate_many)
from ocrlab.policies import (GreedyPolicy, MultiunitThresholdPolicy, TreeAwarePolicy,
                             TreeGamblePolicy)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_install_run_one_generic_trial_and_uninstall():
    tracing = _tracing()
    instance = build_tree_instance(2)
    plain = collect_traces(GreedyPolicy(), instance, TreeOrders(), trials=1, seed=3)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        for owner, attr, original in saved:
            assert vars(owner)[attr] is not original, (owner, attr)
        traced = collect_traces(GreedyPolicy(), instance, TreeOrders(), trials=1, seed=3)
    finally:
        tracing.uninstall(saved)
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, (owner, attr)
    assert traced == plain
    for span in ("core.run_policy", "core.trial_rng", "core.value_sampling",
                 "constructions.tree_order", "policies.decide"):
        assert tracer.layer_totals()[span]["calls"] > 0, span


def test_hooks_see_the_multiunit_fast_path():
    # the fast path draws its values with ``core.cell_draws``, which
    # re-keys one Philox per chunk and builds no ``trial_rng`` generator
    tracing = _tracing()
    instance, orders = build_multiunit_instance(5)
    policies = [MultiunitThresholdPolicy(0.913, v) for v in ("pi1", "pi2", "unaware")]
    source = FixedOrder(orders.orders[1])
    trials = CHUNK_SIZE + 10
    plain = simulate_many(policies, instance, source, trials=trials, seed=6)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = simulate_many(policies, instance, source, trials=trials, seed=6)
    finally:
        tracing.uninstall(saved)
    assert [r.mean for r in traced] == [r.mean for r in plain]
    totals = tracer.layer_totals()
    assert totals["montecarlo.chunk.fast"]["calls"] == 2
    assert "core.trial_rng" not in totals
    assert tracer.value_uniforms == 0


def test_hooks_see_the_batched_tree_path():
    # the order and value draws go through ``core.cell_draws``, which
    # builds no ``trial_rng`` generator
    tracing = _tracing()
    instance = build_tree_instance(2)
    policies = [TreeAwarePolicy(), TreeGamblePolicy(0), GreedyPolicy()]
    trials = CHUNK_SIZE + 10
    for source in (TreeOrders(), TreeOrders(fixed=3)):
        plain = simulate_many(policies, instance, source, trials=trials, seed=4)
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            traced = simulate_many(policies, instance, source, trials=trials, seed=4)
        finally:
            tracing.uninstall(saved)
        assert [r.mean for r in traced] == [r.mean for r in plain]
        totals = tracer.layer_totals()
        assert totals["montecarlo.chunk.fast"]["calls"] == 2
        assert "core.trial_rng" not in totals
        assert tracer.value_uniforms == 0


def test_generic_tree_run_draws_no_unused_policy_streams():
    # the 7 criterion 3 policies never draw, so a generic trial builds only
    # its value generator (its order is drawn by ``core.cell_draws``)
    tracing = _tracing()
    instance = build_tree_instance(2)
    policies = ([TreeAwarePolicy(), GreedyPolicy()]
                + [TreeGamblePolicy(l) for l in range(5)])
    trials = 5
    plain = simulate_many(policies, instance, TreeOrders(), trials=trials, seed=4, fast=False)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = simulate_many(policies, instance, TreeOrders(), trials=trials, seed=4,
                               fast=False)
    finally:
        tracing.uninstall(saved)
    assert [r.mean for r in traced] == [r.mean for r in plain]
    totals = tracer.layer_totals()
    assert totals["montecarlo.chunk.generic"]["calls"] == 1
    assert totals["core.trial_rng"]["calls"] == trials
