"""Core types: RNG streams, value distributions, forced-decision semantics,
and the instance JSON schema."""

from __future__ import annotations

import itertools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocrlab.constructions import (build_multiunit_instance, build_nested_scaled,
                                  build_pairs_instance, build_partition_scaled,
                                  build_tree_instance)
from ocrlab.core import (STREAM_ORDER, STREAM_POLICY, STREAM_VALUES, Action,
                         FiniteOrderDistribution, Instance, cell_draws,
                         ValueDistribution, allowed_actions, check_order,
                         dump_instance, instance_from_json_dict,
                         instance_text, instance_to_json_dict, load_instance,
                         run_policy, sample_values, trial_rng)
from ocrlab.errors import InconsistentState, PolicyViolation, UnknownElement
from ocrlab.feasibility import KUniformOracle, PairMatchOracle
from ocrlab.policies import GreedyPolicy, Knowledge, Policy


class TestTrialRng:
    def test_same_cell_same_stream(self):
        a = trial_rng(7, 3, STREAM_VALUES).random(8)
        b = trial_rng(7, 3, STREAM_VALUES).random(8)
        np.testing.assert_array_equal(a, b)

    def test_cells_are_independent(self):
        base = trial_rng(7, 3, STREAM_VALUES).random(8)
        for seed, trial, stream in ((8, 3, STREAM_VALUES), (7, 4, STREAM_VALUES),
                                    (7, 3, STREAM_ORDER), (7, 3, STREAM_POLICY)):
            assert not np.array_equal(base, trial_rng(seed, trial, stream).random(8))

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            trial_rng(-1, 0)
        with pytest.raises(ValueError):
            trial_rng(0, -1)

    def test_rejects_indices_that_would_wrap_the_key(self):
        # trial << 2 wraps at 2**62, which gave trial 2**62 + 5 the key of trial 5
        with pytest.raises(ValueError):
            trial_rng(7, 2 ** 62 + 5)
        with pytest.raises(ValueError):
            trial_rng(2 ** 64, 0)
        top = trial_rng(2 ** 64 - 1, 2 ** 62 - 1, STREAM_POLICY).random(8)
        assert not np.array_equal(top, trial_rng(2 ** 64 - 1, 0, STREAM_POLICY).random(8))

    def test_rejects_stream_tags_that_would_carry_into_the_trial(self):
        # trial << 2 | 4 is the key of trial + 1, stream 0
        for stream in (-1, 4, 7):
            with pytest.raises(ValueError):
                trial_rng(7, 2, stream)

    @pytest.mark.parametrize("seed", [0, 17, 2 ** 64 - 1])
    def test_streams_equal_philox_keyed_directly(self, seed):
        for trial in (0, 1, 12345, 2 ** 62 - 1, np.int64(2 ** 62 - 1)):
            for stream in range(4):
                ours = trial_rng(seed, trial, stream)
                key = np.array([seed, int(trial) << 2 | stream], dtype=np.uint64)
                ref = np.random.Generator(np.random.Philox(key=key))
                np.testing.assert_array_equal(ours.random(64), ref.random(64))
                np.testing.assert_array_equal(ours.bit_generator.random_raw(16),
                                              ref.bit_generator.random_raw(16))

    def test_generators_are_independent_and_reproducible(self):
        a, b = trial_rng(3, 4, 0), trial_rng(3, 4, 0)
        first = a.random(16)
        np.testing.assert_array_equal(b.random(16), first)  # drawing from a left b unmoved
        a.random(5)
        clone = pickle.loads(pickle.dumps(a))
        np.testing.assert_array_equal(clone.random(8), a.random(8))

    def test_generators_cannot_spawn(self):
        # children would be seeded from OS entropy, which breaks
        # reproducibility; NumPy before 1.25 has no ``spawn`` at all
        with pytest.raises((TypeError, AttributeError)):
            trial_rng(3, 4, 0).spawn(1)


class TestCellDraws:
    @staticmethod
    def _expected(seed, trials, stream, start, width, dtype):
        def cell(t):
            rng = trial_rng(seed, t, stream)
            if dtype == np.uint64:
                return rng.bit_generator.random_raw(start + width)[start:]
            return rng.random(start + width)[start:]
        return np.array([cell(t) for t in trials], dtype=dtype).reshape(len(trials), width)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64])
    @pytest.mark.parametrize("start", range(8))
    def test_rows_equal_the_cell_generator_from_any_start(self, start, dtype):
        # start % 4 leading words of the counter step are dropped
        trials = [0, 1, 5, 12345, 3]
        for stream in range(4):
            for width in (0, 1, 6, 37):
                rows = np.zeros((len(trials), width), dtype=dtype)
                assert len(list(cell_draws(9, trials, stream, rows, start))) == len(trials)
                np.testing.assert_array_equal(
                    rows, self._expected(9, trials, stream, start, width, dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64])
    def test_keys_at_the_edges(self, dtype):
        top = 2 ** 64 - 1
        trials = [2 ** 62 - 1, np.int64(2 ** 62 - 1), 0, 2 ** 62 - 2]
        for stream in range(4):
            rows = np.empty((len(trials), 16), dtype=dtype)
            list(cell_draws(top, trials, stream, rows, 3))
            np.testing.assert_array_equal(
                rows, self._expected(top, trials, stream, 3, 16, dtype))

    def test_an_empty_trial_list_draws_nothing(self):
        rows = np.full((2, 4), -1.0)
        assert list(cell_draws(1, [], STREAM_VALUES, rows)) == []
        assert (rows == -1.0).all()

    def test_one_row_passed_again_is_redrawn_per_trial(self):
        row = np.empty(10, dtype=np.uint64)
        got = [r.copy() for r in cell_draws(4, range(6), STREAM_ORDER,
                                            itertools.repeat(row), 6)]
        np.testing.assert_array_equal(
            got, self._expected(4, range(6), STREAM_ORDER, 6, 10, np.uint64))

    @pytest.mark.parametrize("seed, trial, stream", [
        (-1, 0, 0), (2 ** 64, 0, 0), (0, -1, 0), (0, 2 ** 62, 0), (0, 0, -1), (0, 0, 4),
        # float keys: int() once mapped (3.9, 2.5, 1.2) silently onto cell (3, 2, 1)
        (3.9, 2.5, 1.2), (3, 2.5, 1), (3, 2, 1.2), (np.float64(3.0), 2, 1), ("3", 2, 1),
        # bool keys: (0, False, True) once drew cell (0, 0, 1)
        (True, 0, 0), (0, False, 1), (0, 0, True)])
    def test_rejects_the_keys_trial_rng_rejects(self, seed, trial, stream):
        with pytest.raises(ValueError) as cell:
            trial_rng(seed, trial, stream)
        with pytest.raises(ValueError) as block:
            list(cell_draws(seed, [trial], stream, np.empty((1, 4))))
        assert str(block.value) == str(cell.value)

    def test_numpy_integer_keys_draw_the_python_integer_cell(self):
        ref = trial_rng(3, 2, 1).random(8)
        keys = (np.uint64(3), np.int32(2), np.int8(1))
        np.testing.assert_array_equal(trial_rng(*keys).random(8), ref)
        row = next(cell_draws(keys[0], [keys[1]], keys[2], np.empty((1, 8))))
        np.testing.assert_array_equal(row, ref)

    def test_rejects_a_negative_start(self):
        with pytest.raises(ValueError):
            list(cell_draws(0, [0], 0, np.empty((1, 4)), -1))


class TestValueDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            ValueDistribution(())
        with pytest.raises(ValueError):
            ValueDistribution(((1.0, 0.5), (1.0, 0.5)))  # duplicate values
        with pytest.raises(ValueError):
            ValueDistribution(((-1.0, 1.0),))  # negative value
        with pytest.raises(ValueError):
            ValueDistribution(((1.0, 0.7), (0.0, 0.7)))  # sums past 1

    def test_non_finite_numbers_are_refused(self):
        # a NaN fails no "v < 0" or "p > 1" test, and makes the sum test false
        nan, inf = float("nan"), float("inf")
        for atoms in (((nan, 1.0),), ((inf, 1.0),), ((1.0, 0.5), (inf, 0.5)),
                      ((0.0, nan), (2.0, nan)), ((0.0, 0.5), (2.0, nan)),
                      ((0.0, inf), (2.0, -inf))):
            with pytest.raises(ValueError):
                ValueDistribution(atoms)
        with pytest.raises(ValueError):
            ValueDistribution.bernoulli(nan)

    def test_bernoulli_edges_collapse(self):
        assert ValueDistribution.bernoulli(0.0).is_deterministic
        assert ValueDistribution.bernoulli(1.0).support() == (1.0,)
        assert ValueDistribution.bernoulli(1, hi=3.0).atoms == ((3.0, 1.0),)
        d = ValueDistribution.bernoulli(0.25, hi=2.0)
        assert d.atoms == ((2.0, 0.25), (0.0, 0.75))
        # past the edges it gave the constant 0 or hi
        for p in (-1.0, -0.5, 1.5, 2):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got "):
                ValueDistribution.bernoulli(p)

    def test_from_uniform_boundaries(self):
        d = ValueDistribution(((2.0, 0.5), (0.0, 0.5)))
        assert d.from_uniform(0.49) == 2.0
        assert d.from_uniform(0.5) == 0.0  # right-closed cut at the cumulative
        assert d.from_uniform(1.0) == 0.0


class TestOrders:
    def test_check_order_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            check_order((0, 1, 1), 3)
        with pytest.raises(ValueError):
            check_order((0, 1), 3)
        assert check_order([2, 0, 1], 3) == (2, 0, 1)

    def test_check_order_rejects_non_integer_ids(self):
        # a float id would be truncated onto another element by int()
        # a bool is an int to ``operator.index``, and True == 1
        for order in ([0.5, 1, 2.9], [0.0, 1, 2], np.array([0.0, 1.0, 2.0]), ["0", 1, 2],
                      [0, True, 2], [False, 1, 2]):
            with pytest.raises(ValueError, match="integers"):
                check_order(order, 3)

    def test_check_order_accepts_numpy_integers(self):
        for dtype in (np.int8, np.int32, np.int64, np.uint16):
            order = check_order(np.array([2, 0, 1], dtype=dtype), 3)
            assert order == (2, 0, 1) and all(type(e) is int for e in order)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            FiniteOrderDistribution(((0, 1),), (0.5,))  # weights must sum to 1
        with pytest.raises(ValueError):
            FiniteOrderDistribution(((0, 1), (1, 0)), (1.5, -0.5))
        for weights in ((float("nan"), 1.0), (float("inf"), 0.5), (float("nan"),) * 2):
            with pytest.raises(ValueError, match="positive and finite"):
                FiniteOrderDistribution(((0, 1), (1, 0)), weights)

    def test_sample_index_is_deterministic(self):
        dist = FiniteOrderDistribution.uniform([(0, 1), (1, 0)])
        idx = [dist.sample_index(trial_rng(1, t, STREAM_ORDER)) for t in range(64)]
        assert idx == [dist.sample_index(trial_rng(1, t, STREAM_ORDER)) for t in range(64)]
        assert set(idx) == {0, 1}


class _Recorder(Policy):
    """Selects when asked, counts its steps in its state, and logs each call
    with the state it was given."""

    name = "recorder"

    def __init__(self):
        self.calls = []

    def decide(self, pstate, e, v):
        self.calls.append(("decide", pstate, e))
        return Action.SELECT, pstate + 1

    def notify(self, pstate, e, v, action):
        self.calls.append(("notify", pstate, e, action))
        return pstate + 1


def _pairs_instance():
    dists = tuple(ValueDistribution.deterministic(float(i)) for i in range(4))
    return Instance(name="pairs2", dists=dists, feasibility=PairMatchOracle(k=2))


class TestForcedSemantics:
    def test_allowed_actions_shrink_with_commitments(self):
        oracle = PairMatchOracle(k=2)
        # {0,1} is not inside any pair, so selecting 1 is impossible
        assert allowed_actions(oracle, {0}, set(), 1) == frozenset({Action.DISCARD})
        assert allowed_actions(oracle, {0}, set(), 2) == frozenset({Action.SELECT})

    def test_already_decided_raises(self):
        with pytest.raises(InconsistentState):
            allowed_actions(PairMatchOracle(k=2), {0}, set(), 0)

    def test_forced_steps_bypass_decide(self):
        oracle = PairMatchOracle(k=2)
        # with 0 discarded, pair {0,2} is dead: discarding 2 is forced
        assert allowed_actions(oracle, set(), {0}, 2) == frozenset({Action.DISCARD})
        # selecting 0 forces everything after: 1 out, 2 in, 3 out; the
        # policy state threads through decide and every notify
        policy = _Recorder()
        trace = run_policy(policy, _pairs_instance(), (0, 1, 2, 3), np.arange(4.0), 10)
        assert policy.calls == [("decide", 10, 0), ("notify", 11, 1, Action.DISCARD),
                                ("notify", 12, 2, Action.SELECT),
                                ("notify", 13, 3, Action.DISCARD)]
        assert trace.total == 2.0
        assert [e for e, _, a in trace.steps if a is Action.SELECT] == [0, 2]

    def test_run_policy_trace_and_totals(self):
        inst = _pairs_instance()
        trace = run_policy(GreedyPolicy(), inst, (0, 1, 2, 3), np.arange(4.0), None)
        # greedy cannot select 0 (worth 0 -> discard), then {1,3} is the pair
        assert trace.total == 4.0
        assert [e for e, _, a in trace.steps if a is Action.SELECT] == [1, 3]

    def test_policy_violation(self):
        # an action must be an Action member: not its value, nor None
        for action in ("neither", "select", None):
            class Bad(Policy):
                name = "bad"

                def decide(self, pstate, e, v):
                    return action, pstate

            with pytest.raises(PolicyViolation, match="returned disallowed"):
                run_policy(Bad(), _pairs_instance(), (0, 1, 2, 3), np.arange(4.0), None)

    def test_values_as_array_list_or_mapping_give_one_trace(self):
        inst, orders = build_multiunit_instance(3)
        values = sample_values(inst, 5, 0)
        policy = GreedyPolicy()
        pstate = policy.start(inst, Knowledge())
        order = orders.orders[1]
        trace = run_policy(policy, inst, order, values, pstate)
        assert trace == run_policy(policy, inst, order, values.tolist(), pstate)
        # the mapping holds np.float64, a float subclass; its steps hold floats
        mapped = run_policy(policy, inst, order, dict(enumerate(values)), pstate)
        assert trace == mapped
        assert all(type(v) is float for _, v, _ in trace.steps + mapped.steps)
        # NumPy integer ids index the value list and walk the same steps
        assert trace == run_policy(policy, inst, np.array(order), values, pstate)

    def test_run_policy_rejects_bad_steps(self):
        inst = _pairs_instance()
        with pytest.raises(InconsistentState):
            run_policy(GreedyPolicy(), inst, (0, 1, 1, 3), np.arange(4.0), None)
        for bad in (-1, 4):
            with pytest.raises(UnknownElement, match=rf"element {bad} outside \[0, 4\)"):
                run_policy(GreedyPolicy(), inst, (0, 1, 2, bad), np.arange(4.0), None)

        class Stuck:
            """An oracle whose every state admits no action."""

            n = 4

            def start(self):
                return 0

            def step(self, state, e):
                return None, None

            def can_extend(self, selected, discarded, pin=None):
                return False

        stuck = Instance(name="stuck", dists=inst.dists, feasibility=Stuck())
        with pytest.raises(InconsistentState):
            run_policy(GreedyPolicy(), stuck, (0, 1, 2, 3), np.arange(4.0), None)


class TestSampleValues:
    def test_element_draw_is_positional(self):
        # element i must consume the i-th uniform regardless of grouping
        dists = (ValueDistribution.bernoulli(0.3, hi=5.0),
                 ValueDistribution.deterministic(1.0),
                 ValueDistribution(((0.0, 0.5), (2.0, 0.5))))
        inst = Instance(name="mix", dists=dists, feasibility=KUniformOracle(n=3, k=3))
        for trial in range(50):
            u = trial_rng(11, trial, STREAM_VALUES).random(3)
            expected = np.array([dists[i].from_uniform(u[i]) for i in range(3)])
            np.testing.assert_array_equal(sample_values(inst, 11, trial), expected)

    def test_pickle_leaves_the_group_cache_behind(self):
        # pool jobs pickle the instance; the O(n) group arrays stay home
        inst = _pairs_instance()
        inst._value_groups()
        copy = pickle.loads(pickle.dumps(inst))
        assert copy._groups is None and copy == inst
        np.testing.assert_array_equal(sample_values(copy, 3, 1), sample_values(inst, 3, 1))


class TestJsonSchema:
    def test_round_trip_is_byte_identical(self, tmp_path):
        inst = _pairs_instance()
        orders = FiniteOrderDistribution.uniform([(0, 1, 2, 3), (3, 2, 1, 0)])
        path = tmp_path / "inst.json"
        dump_instance(inst, path, orders)
        first = path.read_bytes()
        loaded, loaded_orders = load_instance(path)
        assert loaded.name == inst.name
        assert loaded_orders.orders == orders.orders
        dump_instance(loaded, path, loaded_orders)
        assert path.read_bytes() == first

    def test_dict_round_trip_preserves_metadata(self):
        inst = _pairs_instance()
        inst.metadata["construction"] = "pairs"
        doc = instance_to_json_dict(inst)
        again, orders = instance_from_json_dict(json.loads(json.dumps(doc)))
        assert orders is None
        assert again.metadata == {"construction": "pairs"}
        assert again.dists == inst.dists

    def test_rejects_float_order_ids(self):
        doc = instance_to_json_dict(_pairs_instance())
        doc["orders"] = [{"sequence": [0.0, 1.9, 2, 3], "weight": 1.0}]
        with pytest.raises(ValueError, match="integers"):
            instance_from_json_dict(doc)

    @pytest.mark.parametrize("n", [4, 8])
    def test_rejects_element_count_other_than_the_oracles(self, n):
        # a tree k = 2 file (6 elements) cut to 4 or padded to 8 elements
        doc = instance_to_json_dict(build_tree_instance(2))
        doc["elements"] = [{"id": i, "dist": [[1.0, 0.5], [0.0, 0.5]]} for i in range(n)]
        with pytest.raises(ValueError, match=f"{n} elements, but the feasibility "
                                             "constraint has 6"):
            instance_from_json_dict(doc)

    def test_instance_checks_the_oracle_size(self):
        dists = (ValueDistribution.deterministic(1.0),) * 3
        with pytest.raises(ValueError, match="has 4"):
            Instance(name="short", dists=dists, feasibility=KUniformOracle(n=4, k=1))

    def test_rejects_sparse_ids(self):
        doc = instance_to_json_dict(_pairs_instance())
        doc["elements"][0]["id"] = 9
        with pytest.raises(ValueError):
            instance_from_json_dict(doc)

    def test_rejects_bad_orders(self):
        inst = _pairs_instance()
        for rows in ([{"sequence": [0, 1, 1, 2], "weight": 1.0}],  # not a permutation
                     [{"sequence": [0, 1, 2], "weight": 1.0}],  # too short
                     [{"sequence": [0, 1, 2, 3], "weight": 0.5},
                      {"sequence": [3, 2, 1, 0], "weight": 0.6}],  # weights sum to 1.1
                     [{"sequence": [0, 1, 2, 3], "weight": 1.5},
                      {"sequence": [3, 2, 1, 0], "weight": -0.5}]):
            doc = instance_to_json_dict(inst)
            doc["orders"] = rows
            with pytest.raises(ValueError):
                instance_from_json_dict(doc)

    def test_normalized_orders_round_trip_as_ints(self, tmp_path):
        inst = Instance(name="np", dists=(ValueDistribution.deterministic(1.0),) * 8,
                        feasibility=KUniformOracle(n=8, k=2))
        orders = FiniteOrderDistribution.uniform([np.arange(8)])
        assert all(type(e) is int for e in orders.orders[0])
        path = tmp_path / "np.json"
        dump_instance(inst, path, orders)
        _, loaded = load_instance(path)
        assert loaded.orders == ((0, 1, 2, 3, 4, 5, 6, 7),)
        assert all(type(e) is int for e in loaded.orders[0])

    def test_unencodable_instance_leaves_no_file(self, tmp_path):
        inst = _pairs_instance()
        inst.metadata["bad"] = object()
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            dump_instance(inst, path)
        assert not path.exists()

    def test_loaded_instance_shares_one_distribution_per_prior(self, tmp_path):
        built = build_tree_instance(4)
        path = tmp_path / "tree.json"
        dump_instance(built, path)
        loaded, _ = load_instance(path)
        assert loaded.dists == built.dists
        assert len({id(d) for d in loaded.dists}) == len(set(loaded.dists)) == 1
        assert len(pickle.dumps(loaded)) <= len(pickle.dumps(built))
        built, orders = build_multiunit_instance(3)
        dump_instance(built, path, orders)
        loaded, _ = load_instance(path)
        assert len({id(d) for d in loaded.dists}) == len(set(loaded.dists)) == 3

    @staticmethod
    def _one_order_doc():
        # element 1 is worth 1.0 for sure, and the one order weighs 1.0
        return instance_to_json_dict(_pairs_instance(),
                                     FiniteOrderDistribution.uniform([(0, 1, 2, 3)]))

    @pytest.mark.parametrize("key,value", [
        ("id", 1.0), ("id", True), ("atom", "1"), ("atom", True),
        ("probability", "1"), ("probability", True), ("weight", "1"), ("weight", True)])
    def test_rejects_an_id_or_number_of_another_type(self, key, value):
        # == on ids and float() on numbers read each of these as 1, so the
        # file loaded, and did not round-trip
        doc = self._one_order_doc()
        row = doc["elements"][1]
        if key == "id":
            row["id"] = value
        elif key == "atom":
            row["dist"] = [[value, 1.0]]
        elif key == "probability":
            row["dist"] = [[1.0, value]]
        else:
            doc["orders"][0]["weight"] = value
        with pytest.raises(ValueError, match="integers" if key == "id" else "numbers"):
            instance_from_json_dict(doc)

    def test_accepts_json_integers_as_numbers(self):
        doc = self._one_order_doc()
        doc["elements"][1]["dist"] = [[1, 0.5], [0, 0.5]]
        doc["orders"][0]["weight"] = 1
        inst, orders = instance_from_json_dict(doc)
        assert inst.dists[1] == ValueDistribution(((1.0, 0.5), (0.0, 0.5)))
        assert orders.weights == (1.0,)


def _schema_text(instance, orders=None) -> str:
    """The canonical text as the schema defines it."""
    return json.dumps(instance_to_json_dict(instance, orders), indent=2, sort_keys=True) + "\n"


# every ``ocrlab gen`` construction
GEN_BUILDS = {
    "tree": lambda: (build_tree_instance(2), None),
    "multiunit": lambda: build_multiunit_instance(3),
    "nested-scaled": lambda: build_nested_scaled(2, 8, 12, u_size=3, q=0.1),
    "partition-scaled": lambda: (build_partition_scaled(4, 4, 0.25), None),
    "pairs": lambda: build_pairs_instance(3),
}


class TestInstanceText:
    @pytest.mark.parametrize("construction", sorted(GEN_BUILDS))
    def test_matches_the_schema_on_every_construction(self, construction):
        inst, own = GEN_BUILDS[construction]()
        ids = list(range(inst.n))
        several = FiniteOrderDistribution.uniform([ids, ids[::-1], ids[1:] + ids[:1]])
        assert several.weights[0] == 1 / 3
        for orders in (None, own, FiniteOrderDistribution.uniform([ids]), several):
            assert instance_text(inst, orders) == _schema_text(inst, orders)

    def test_matches_the_schema_on_unusual_values(self):
        # 1 and 1.0, 0.0 and -0.0 are equal atoms that render differently
        dists = (ValueDistribution(((0.0, 0.25), (1.5, 0.5), (1e300, 0.25))),
                 ValueDistribution(((1, 1.0),)), ValueDistribution.deterministic(1.0),
                 ValueDistribution.deterministic(0.0), ValueDistribution.deterministic(-0.0))
        inst = Instance(name="prïor — 名前", dists=dists, feasibility=KUniformOracle(n=5, k=2),
                        metadata={"quote": 'say "hi"', "backslash": "a\\b",
                                  "newline": "one\ntwo", "tab": "\t"})
        orders = FiniteOrderDistribution.uniform([(4, 3, 2, 1, 0), (0, 1, 2, 3, 4)])
        for o in (None, orders):
            assert instance_text(inst, o) == _schema_text(inst, o)

    def test_dump_writes_the_text(self, tmp_path):
        inst, orders = build_multiunit_instance(3)
        path = tmp_path / "mu.json"
        dump_instance(inst, path, orders)
        assert path.read_text(encoding="utf-8") == _schema_text(inst, orders)


def test_an_exact_solve_does_not_import_numpy_random():
    # numpy.random costs ~6 MB of memory, which a program that draws nothing
    # need not pay; the RNG helpers import it on first use
    code = ("import sys\n"
            "from ocrlab.constructions import build_multiunit_instance\n"
            "from ocrlab.montecarlo import simulate\n"
            "from ocrlab.solvers import opt_aware_exact, opt_unaware_exact\n"
            "inst, orders = build_multiunit_instance(2)\n"
            "opt_aware_exact(inst, orders.orders[0])\n"
            "opt_unaware_exact(inst, orders)\n"
            "assert 'numpy.random' not in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
