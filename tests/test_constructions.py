"""Instance builders: tree order recursion, set-family construction, nested
and multi-unit layouts, and size guards."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from ocrlab import constructions
from ocrlab.constructions import (U_FAMILY_ATTEMPTS, UFamily, _sample_tree_raw,
                                  build_multiunit_instance, build_nested_scaled,
                                  build_pairs_instance, build_partition_scaled,
                                  build_tree_instance, build_u_family, sample_tree_order,
                                  tree_arrival_positions, verify_u_family)
from ocrlab.core import ValueDistribution
from ocrlab.errors import ExhaustedAttempts, TooLarge
from ocrlab.feasibility import ELEMENT_CAP, tree_layout
from ocrlab.policies import decode_nested_index


def r_subsets(inst, seed, trial):
    """The r-subsets of draw (seed, trial) keyed by node string: row 0 is
    the root's, row e + 1 is node e's."""
    string_of = inst.feasibility.string_of
    in_r = _sample_tree_raw(inst.feasibility.k, seed, [trial])[0]
    return {string_of(i - 1) if i else (): frozenset(np.flatnonzero(row).tolist())
            for i, row in enumerate(in_r)}


class TestTreeInstance:
    def test_rejects_odd_or_tiny_arity(self):
        for k in (0, 1, 3, 5):
            with pytest.raises(ValueError):
                build_tree_instance(k)

    def test_k2_order_is_the_hand_example(self):
        # k=2 has no branching subsets: the root applies the terminal rule,
        # so every draw is the same order 1, 2, 11, 12, 21, 22
        inst = build_tree_instance(2)
        assert inst.n == 6
        for trial in range(5):
            real = sample_tree_order(inst, seed=trial, trial=trial)
            assert real.order == (0, 1, 2, 3, 4, 5)
            assert r_subsets(inst, trial, trial) == {}
            assert real.good.all()
        strings = [inst.feasibility.string_of(e) for e in real.order]
        assert strings == [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_k4_order_shape(self):
        inst = build_tree_instance(4)
        real = sample_tree_order(inst, seed=3, trial=11)
        assert sorted(real.order) == list(range(340))
        # the root's children always arrive first
        assert sorted(real.order[:4]) == [0, 1, 2, 3]
        # r-subsets: one for the root and one per layer-1 node, each of size 2
        r = r_subsets(inst, 3, 11)
        assert set(r) == {(), (1,), (2,), (3,), (4,)}
        assert all(len(s) == 2 for s in r.values())

    @pytest.mark.parametrize("k", [4, 6])
    def test_good_labels_match_r(self, k):
        inst = build_tree_instance(k)
        oracle = inst.feasibility
        real = sample_tree_order(inst, seed=9, trial=2)
        r = r_subsets(inst, 9, 2)
        for e in range(inst.n):
            s = oracle.string_of(e)
            # good iff every branching step (the first min(k-2, len) chars)
            # lies in the r-subset of the node it leaves
            expect = all((s[d] - 1) in r[s[:d]] for d in range(min(k - 2, len(s))))
            assert bool(real.good[e]) == expect, (e, s)

    def test_k4_good_subtrees_top_down_bad_bottom_up(self):
        inst = build_tree_instance(4)
        oracle = inst.feasibility
        offs = tree_layout(4).offsets
        real = sample_tree_order(inst, seed=5, trial=7)
        pos = {e: i for i, e in enumerate(real.order)}

        def descendants(e, depth):
            layer, m = oracle.layer_index(e)
            width = 4 ** (depth - layer)
            start = offs[depth - 1] + m * width
            return range(start, start + width)

        for e in range(offs[0], offs[1]):  # layer-1 nodes
            deep = [pos[d] for d in descendants(e, 4)]
            mid = [pos[d] for d in descendants(e, 3)]
            kids = [pos[d] for d in descendants(e, 2)]
            if real.good[e]:
                # top-down: children precede everything deeper
                assert max(kids) < min(mid + deep)
            else:
                # bottom-up: the deepest layer arrives first
                assert max(deep) < min(mid)
                assert max(mid) < min(kids)

    @pytest.mark.parametrize("k, trials", [(2, 20), (4, 40), (6, 20)])
    def test_arrival_positions_invert_the_expanded_order(self, k, trials):
        # POS[e, D] with D = layer of e's deepest good strict ancestor (at
        # most k-2) must be e's place in the recursively expanded order
        inst = build_tree_instance(k)
        offs = tree_layout(k).offsets
        pos = tree_arrival_positions(k)
        assert pos.shape == (inst.n, k - 1)
        for trial in range(trials):
            real = sample_tree_order(inst, seed=13, trial=trial)
            at = np.empty(inst.n, dtype=np.int64)
            at[np.asarray(real.order)] = np.arange(inst.n)
            for layer in range(1, k + 1):
                m = np.arange(k ** layer)
                depth = np.zeros(len(m), dtype=np.int64)
                for i in range(1, min(layer - 1, k - 2) + 1):
                    ancestor = offs[i - 1] + m // k ** (layer - i)
                    depth = np.where(real.good[ancestor], i, depth)
                ids = offs[layer - 1] + m
                np.testing.assert_array_equal(pos[ids, depth], at[ids])

    def test_draws_are_deterministic_per_cell(self):
        inst = build_tree_instance(4)
        a = sample_tree_order(inst, seed=1, trial=4)
        b = sample_tree_order(inst, seed=1, trial=4)
        assert a.order == b.order and (a.good == b.good).all()
        assert r_subsets(inst, 1, 4) == r_subsets(inst, 1, 4)
        c = sample_tree_order(inst, seed=1, trial=5)
        assert c.order != a.order or r_subsets(inst, 1, 5) != r_subsets(inst, 1, 4)


class TestUFamily:
    def test_verify_flags_each_violation(self):
        bad_size = UFamily(n=16, alpha=1, sets=(frozenset({0}),
                                                frozenset({1, 2, 3, 4})))
        report = verify_u_family(bad_size, k3=8)
        assert not report.size_ok and report.witnesses["size"] == (0, 1)

        bad_member = UFamily(n=16, alpha=1, sets=(
            frozenset({0, 1, 2, 3}), frozenset({0, 4, 5, 6}),
            frozenset({0, 7, 8, 9}), frozenset({0, 10, 11, 12})))
        report = verify_u_family(bad_member, k3=64)
        assert not report.membership_ok and report.witnesses["membership"] == (0, 4)

        bad_inter = UFamily(n=16, alpha=1, sets=(
            frozenset({0, 1, 2, 3}), frozenset({0, 1, 4, 5})))
        report = verify_u_family(bad_inter, k3=8)
        assert not report.intersection_ok
        assert report.witnesses["intersection"] == (0, 1, 2)
        assert not report.all_ok

    def test_build_is_deterministic_and_valid(self):
        a = build_u_family(n=2 ** 16, alpha=10, k1=4, k3=64, seed=3)
        b = build_u_family(n=2 ** 16, alpha=10, k1=4, k3=64, seed=3)
        assert a.sets == b.sets
        assert len(a.sets) == 16 and len(set(a.sets)) == 16
        assert verify_u_family(a, k3=64).all_ok

    def test_pigeonhole_rejection(self):
        with pytest.raises(ExhaustedAttempts):
            build_u_family(n=16, alpha=10, k1=8, k3=4, seed=0)
        # fixed-size sets: 2**16 sets of size 8 over 16 elements, but only
        # C(16, 8) = 12,870 exist; checked against 2**16, this took 100
        # draws (92.8 s) to fail
        t0 = time.perf_counter()
        with pytest.raises(ExhaustedAttempts, match="distinct 8-subsets"):
            build_u_family(n=256, alpha=10, k1=16, k3=16, seed=0)
        assert time.perf_counter() - t0 < 1.0

    def test_gives_up_after_the_fixed_budget(self, monkeypatch):
        # sizes must be exactly log2(16) = 4 and intersections empty, but four
        # disjoint 4-sets of 8 elements do not exist: every attempt fails
        drawn = []
        real_rng = constructions.trial_rng
        monkeypatch.setattr(constructions, "trial_rng",
                            lambda *key: drawn.append(key) or real_rng(*key))
        with pytest.raises(ExhaustedAttempts, match="^no valid family after 100 attempts "):
            build_u_family(n=16, alpha=0, k1=2, k3=8, seed=0)
        assert len(drawn) == U_FAMILY_ATTEMPTS == 100

    def test_bernoulli_membership(self):
        # p = (alpha + 1) log2(n) / k3 = 0.25 lies in (0, 1], so each
        # element joins each set independently: the sizes differ
        family = build_u_family(n=16, alpha=1, k1=2, k3=32, seed=0)
        assert family.attempts == 1
        assert sorted(len(u) for u in family.sets) == [4, 6, 8, 10]
        assert verify_u_family(family, k3=32).all_ok


class TestNestedBuilders:
    def test_scaled_layout_and_decoding(self):
        inst, orders = build_nested_scaled(2, 8, 12, u_size=3, q=0.1)
        oracle = inst.feasibility
        assert inst.n == 22
        assert len(orders.orders) == 4
        for i, order in enumerate(orders.orders):
            k1, k2 = 2, 8
            u = sorted(oracle.u_sets[i])
            phase2 = sorted(set(oracle.c_ids) - oracle.u_sets[i])
            expected = (tuple(range(k1)) + tuple(phase2)
                        + tuple(range(k1, k1 + k2)) + tuple(u))
            assert order == expected
            assert decode_nested_index(oracle, order) == i

    def test_scaled_disjoint_capacity_guard(self):
        with pytest.raises(TooLarge):
            build_nested_scaled(2, 8, 8, u_size=3, q=0.1)

    def test_scaled_checks_the_a_part_cap_first(self):
        # k1 = 24 > NESTED_MAX_K1: refused before 2**24 empty U sets are built
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="A-part of 24 elements"):
            build_nested_scaled(24, 4, 8, u_size=0, q=0.1)
        assert time.perf_counter() - t0 < 1.0


class TestMultiunit:
    def test_layout(self):
        inst, orders = build_multiunit_instance(3)
        assert inst.n == 12
        assert [d.support() for d in inst.dists[:3]] == [(1.75,)] * 3
        assert [d.support() for d in inst.dists[3:6]] == [(1.0,)] * 3
        assert all(d.support() == (0.0, 2.0) for d in inst.dists[6:])
        a, b, c = (0, 1, 2), (3, 4, 5), tuple(range(6, 12))
        assert orders.orders == (a + b + c, a + c + b)
        with pytest.raises(ValueError):
            build_multiunit_instance(0)


class TestCalibration:
    def test_partition_shapes(self):
        inst = build_partition_scaled(blocks=4, block_size=4, p=0.25)
        assert inst.n == 16 and inst.name == "partition-4x4"
        assert len(inst.feasibility.blocks) == 4
        scaled = build_partition_scaled(blocks=8, block_size=4, p=0.25)
        assert scaled.n == 32

    def test_pairs_shape(self):
        inst, orders = build_pairs_instance(3)
        assert inst.n == 6
        assert orders.orders == ((0, 1, 2, 3, 4, 5),)
        assert all(d.support() == (0.0,) for d in inst.dists[:3])
        assert all(d == ValueDistribution.bernoulli(1.0 / 6.0) for d in inst.dists[3:])


def test_one_element_cap():
    # checked before any element is built: 1,000,004 multi-unit elements
    # would take tens of MB, the refusal takes almost none
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="1000004"):
            build_multiunit_instance(ELEMENT_CAP // 4 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(TooLarge, match="19173960"):
        build_tree_instance(8)
    build_tree_instance(2)  # 6 elements fit


@pytest.mark.parametrize("parts", [(16, 8, 1_000_000), (21, 4, 2 ** 21)])
def test_nested_sizes_are_checked_before_the_u_sets(parts):
    # n = k1 + k2 + k3 is over the element cap: the 2**k1 U sets took
    # 17 MB (k1 = 16) and 537 MB (k1 = 21) before the refusal
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            build_nested_scaled(*parts, u_size=1, q=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
