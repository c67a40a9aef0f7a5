"""The benchmark's traced run wraps ocrlab's layer entry points by name
(``perfbench/tracing.py``). Installing its hooks here makes a renamed or
removed entry point fail the test suite, not only a traced benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from ocrlab.constructions import build_tree_instance
from ocrlab.montecarlo import TreeOrders, collect_traces
from ocrlab.policies import greedy_policy

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_install_run_one_generic_trial_and_uninstall():
    tracing = _tracing()
    instance = build_tree_instance(2)
    plain = collect_traces(greedy_policy(), instance, TreeOrders(), trials=1, seed=3)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        for owner, attr, original in saved:
            assert vars(owner)[attr] is not original, (owner, attr)
        traced = collect_traces(greedy_policy(), instance, TreeOrders(), trials=1, seed=3)
    finally:
        tracing.uninstall(saved)
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, (owner, attr)
    assert traced == plain
    for span in ("core.run_policy", "core.trial_rng", "core.value_sampling",
                 "constructions.tree_order", "policies.decide"):
        assert tracer.layer_totals()[span]["calls"] > 0, span
