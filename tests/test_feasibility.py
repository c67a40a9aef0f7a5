"""Feasibility oracles: every structured oracle's extension query is
cross-checked exhaustively against a brute-force search over its materialized
family, including pins and inconsistent states, and its per-element state is
walked along random online runs against the same search."""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest

from ocrlab.errors import (EncodingOverflow, TooLarge, UnknownElement, WrongKind)
from ocrlab.feasibility import (ExplicitFamilyOracle, KUniformOracle,
                                NestedPhaseOracle, PairMatchOracle,
                                PartitionOneBlockOracle, TreePathOracle,
                                materialize, oracle_from_json, oracle_to_json,
                                tree_layout)


def brute_can_extend(family, n, sel, dis, pin):
    if pin is not None:
        e, inside = pin
        sel, dis = (sel | {e}, dis) if inside else (sel, dis | {e})
    return any(sel <= s and not (dis & s) for s in family)


def assert_matches_brute_force(oracle):
    n = oracle.n
    family = materialize(oracle)
    elements = range(n)
    for sel_tuple in itertools.chain.from_iterable(
            itertools.combinations(elements, r) for r in range(n + 1)):
        sel = frozenset(sel_tuple)
        rest = [e for e in elements if e not in sel]
        for dis_tuple in itertools.chain.from_iterable(
                itertools.combinations(rest, r) for r in range(len(rest) + 1)):
            dis = frozenset(dis_tuple)
            undecided = [e for e in elements if e not in sel and e not in dis]
            pins = [None] + [(e, b) for e in undecided for b in (True, False)]
            for pin in pins:
                assert oracle.can_extend(sel, dis, pin) == \
                    brute_can_extend(family, n, sel, dis, pin), (sel, dis, pin)


def nested_demo():
    return NestedPhaseOracle(a_ids=(0,), b_ids=(1, 2), c_ids=(3, 4),
                             u_sets=(frozenset({3}), frozenset({4})))


def nested_overlapping():
    # k2 = 3 is no power of two, so the third element of a size-3 U set is
    # in no completion; U sets share C elements, and the parts interleave
    return NestedPhaseOracle(a_ids=(4, 0), b_ids=(1, 7, 3), c_ids=(2, 5, 6, 8),
                             u_sets=(frozenset({2, 5}), frozenset({5, 6, 8}),
                                     frozenset({2, 6}), frozenset({2, 5, 8})))


ORACLES = [
    KUniformOracle(n=5, k=2),
    TreePathOracle(k=2),
    PartitionOneBlockOracle(blocks=((0, 1, 2), (3, 4, 5))),
    PairMatchOracle(k=2),
    nested_demo(),
    pytest.param(nested_overlapping(), id="nested_phase_overlapping"),
    ExplicitFamilyOracle(n=4, sets=(frozenset(), frozenset({0}),
                                    frozenset({0, 2}), frozenset({1, 3}))),
]


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.kind)
def test_can_extend_matches_brute_force(oracle):
    assert_matches_brute_force(oracle)


def _walk_states(oracle):
    """Online runs on random orders with a random legal action at every
    step, checked against the brute-force search; yields each step's state,
    its element, and the pair ``step`` gave."""
    n = oracle.n
    family = materialize(oracle)
    rng = np.random.default_rng(5)
    for _ in range(100):
        state, sel, dis = oracle.start(), frozenset(), frozenset()
        for e in rng.permutation(n).tolist():
            after = oracle.step(state, e)
            assert (after[0] is not None, after[1] is not None) == (
                brute_can_extend(family, n, sel, dis, (e, True)),
                brute_can_extend(family, n, sel, dis, (e, False)))
            yield state, e, after
            select = bool(rng.integers(2)) if None not in after else after[1] is None
            state = after[0 if select else 1]
            hash(state)  # a state is a memo key
            sel, dis = (sel | {e}, dis) if select else (sel, dis | {e})
        assert sel in family


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.kind)
def test_state_walk_matches_brute_force(oracle):
    for _ in _walk_states(oracle):
        pass


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.kind)
def test_successors_agree_with_step(oracle):
    # per element, every state the walks reach, batched in one call
    reached: dict[int, dict] = {e: {} for e in range(oracle.n)}
    for state, e, after in _walk_states(oracle):
        reached[e][state] = after
    forbidden = set()
    for e, steps in reached.items():
        states = list(steps)
        after_sel, after_dis = oracle.successors(states, e)
        assert list(zip(after_sel, after_dis)) == list(steps.values())
        forbidden |= {side for after in steps.values()
                      for side in (0, 1) if after[side] is None}
    # the walks reach a forbidden select on every kind, and a forbidden
    # discard on the kinds that are not downward-closed
    assert forbidden == ({0} if oracle.downward_closed else {0, 1})
    assert oracle.successors([], 0) == ([], [])


def test_forbidden_steps():
    full = KUniformOracle(n=5, k=2)
    assert full.step(2, 0) == (None, 2)
    assert full.successors([0, 1, 2], 3) == ([1, 2, None], [0, 1, 2])
    tree = TreePathOracle(k=2)
    assert tree.step(tree.start(), 4) == (4, -1)
    assert tree.step(0, 3) == (3, 0)     # 1 then 12
    assert tree.step(0, 4) == (None, 0)  # 21 is not comparable with 1
    assert tree.successors([-1, 0, 1], 4) == ([4, None, 4], [-1, 0, 1])
    part = PartitionOneBlockOracle(blocks=((0, 1, 2), (3, 4, 5)))
    assert part.successors([-1, 0, 1], 4) == ([1, None, 1], [-1, 0, 1])
    # members {0, 2} and {1, 3}: after selecting 0, only 2 completes the
    # pair, which must then be selected; after discarding 0 and 1, nothing
    pair = PairMatchOracle(k=2)
    after_0 = pair.step(pair.start(), 0)[0]
    assert pair.step(after_0, 2) == (after_0, None)   # only select
    assert pair.step(after_0, 1) == (None, after_0)   # only discard
    assert pair.successors([pair.start(), after_0], 1) == ([0b10, None], [0b01, after_0])
    dead = pair.step(pair.step(pair.start(), 0)[1], 1)[1]
    assert dead is None  # no member left is no state


class TestTreeLayout:
    def test_counts(self):
        assert tree_layout(2).offsets[-1] == 6
        assert tree_layout(4).offsets[-1] == 340
        assert tree_layout(2).offsets == (0, 2, 6)

    def test_strings_and_parents_k2(self):
        oracle = TreePathOracle(k=2)
        assert [oracle.string_of(e) for e in range(6)] == [
            (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        assert oracle.parent(0) is None
        assert oracle.parent(3) == 0
        assert oracle.parent(5) == 1
        assert oracle.layer_index(4) == (2, 2)
        assert tree_layout(2).offsets[2 - 1] + 2 == 4  # layer 2, index 2

    def test_tree_over_the_element_cap(self):
        # k = 8 has 19,173,960 elements: refused before its layout is built
        layouts = tree_layout.cache_info().currsize
        with pytest.raises(TooLarge, match="19173960"):
            TreePathOracle(k=8)
        with pytest.raises(TooLarge):
            oracle_from_json({"kind": "tree_path", "params": {"k": 8}})
        assert tree_layout.cache_info().currsize == layouts

    def test_comparability(self):
        oracle = TreePathOracle(k=2)
        assert oracle.comparable(0, 3)       # 1 is a prefix of 12
        assert not oracle.comparable(0, 4)   # 1 vs 21
        assert not oracle.comparable(2, 3)   # siblings
        assert oracle.is_feasible({0, 2})
        assert not oracle.is_feasible({0, 5})

    def test_layout_matches_digit_strings_k4(self):
        k = 4
        oracle = TreePathOracle(k=k)
        offs = tree_layout(k).offsets
        # every id's base-k digits, from its layer and index within the layer
        digits = {}
        for layer in range(1, k + 1):
            for m in range(k ** layer):
                e = offs[layer - 1] + m
                digits[e] = tuple(m // k ** (layer - 1 - i) % k for i in range(layer))
                assert oracle.layer_index(e) == (layer, m)
        for e, s in digits.items():
            assert oracle.string_of(e) == tuple(c + 1 for c in s)
            parent = oracle.parent(e)
            assert (parent is None) if len(s) == 1 else digits[parent] == s[:-1]
        rng = np.random.default_rng(5)
        for a, b in rng.integers(0, oracle.n, size=(2000, 2)).tolist():
            short = min(len(digits[a]), len(digits[b]))
            assert oracle.comparable(a, b) == (digits[a][:short] == digits[b][:short])

    def test_pickles_as_its_arity(self):
        oracle = TreePathOracle(k=4)
        assert len(pickle.dumps(oracle)) <= 98
        assert pickle.loads(pickle.dumps(oracle)) == oracle

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            TreePathOracle(k=3)


class TestNestedPhase:
    def test_completion_encoding(self):
        oracle = NestedPhaseOracle(a_ids=(0,), b_ids=(1, 2, 3), c_ids=(4, 5, 6),
                                   u_sets=(frozenset({4, 5}), frozenset({5, 6})))
        # f_i(j) encodes j in binary over U_i's elements in ascending order
        assert oracle.completion(0, 0) == frozenset()
        assert oracle.completion(0, 1) == frozenset({4})
        assert oracle.completion(0, 2) == frozenset({5})
        assert oracle.completion(1, 3) == frozenset({5, 6})
        assert oracle.v_set(1) == frozenset({0})
        assert oracle.is_feasible({0, 2, 5})  # V_1 + b_1 + f_1(1) = {5}
        assert not oracle.is_feasible({0, 1, 2})  # two B elements

    def test_encoding_overflow(self):
        with pytest.raises(EncodingOverflow):
            NestedPhaseOracle(a_ids=(0,), b_ids=(1, 2, 3), c_ids=(4, 5),
                              u_sets=(frozenset({4}), frozenset({5})))

    @staticmethod
    def _inc_by_loop(oracle):
        """The member bitmasks as one OR per (U set, A bit) and per
        (U set, C element): the reference the spelled masks must equal."""
        k2 = len(oracle.b_ids)
        u_sorted = [tuple(sorted(u)) for u in oracle.u_sets]
        row = (1 << k2) - 1
        first_of_rows = sum(1 << (i * k2) for i in range(len(u_sorted)))
        pattern = [sum(1 << j for j in range(k2) if j >> t & 1)
                   for t in range(max(map(len, u_sorted)))]
        inc = [0] * oracle.n
        for j, b in enumerate(oracle.b_ids):
            inc[b] = first_of_rows << j
        for i, u in enumerate(u_sorted):
            for t, a in enumerate(oracle.a_ids):
                if i >> t & 1:
                    inc[a] |= row << (i * k2)
            for t, c in enumerate(u):
                inc[c] |= pattern[t] << (i * k2)
        return tuple(inc)

    @pytest.mark.parametrize("k1", range(7))
    def test_member_masks_equal_the_loop_construction(self, k1):
        rng = np.random.default_rng(k1)
        for k2, k3 in ((1, 1), (3, 5), (8, 12), (5, 9)):
            ids = [int(e) for e in rng.permutation(k1 + k2 + k3)]
            a_ids, b_ids, c_ids = ids[:k1], ids[k1:k1 + k2], ids[k1 + k2:]
            low = max(0, (k2 - 1).bit_length())  # 2**|U| >= k2
            u_sets = tuple(
                frozenset(int(c) for c in rng.choice(
                    c_ids, size=int(rng.integers(low, k3 + 1)), replace=False))
                for _ in range(2 ** k1))
            oracle = NestedPhaseOracle(a_ids=tuple(a_ids), b_ids=tuple(b_ids),
                                       c_ids=tuple(c_ids), u_sets=u_sets)
            assert oracle._inc == self._inc_by_loop(oracle), (k1, k2, k3)
            assert oracle._all == (1 << (2 ** k1 * k2)) - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            NestedPhaseOracle(a_ids=(0,), b_ids=(1,), c_ids=(2,),
                              u_sets=(frozenset({2}),))  # need 2**k1 U sets
        with pytest.raises(ValueError):
            NestedPhaseOracle(a_ids=(0,), b_ids=(0,), c_ids=(1,),
                              u_sets=(frozenset(), frozenset({1})))  # overlap
        with pytest.raises(ValueError):
            NestedPhaseOracle(a_ids=(0,), b_ids=(1,), c_ids=(2,),
                              u_sets=(frozenset({0}), frozenset({2})))  # U not in C
        with pytest.raises(ValueError, match="B-part needs at least one element"):
            # no set is feasible; a solve found no action at the first state
            NestedPhaseOracle(a_ids=(0,), b_ids=(), c_ids=(1, 2),
                              u_sets=(frozenset({1}), frozenset({2})))


class TestGuards:
    def test_explicit_family_caps(self):
        with pytest.raises(TooLarge):
            ExplicitFamilyOracle(n=25, sets=(frozenset(),))
        with pytest.raises(ValueError):
            ExplicitFamilyOracle(n=3, sets=())
        with pytest.raises(UnknownElement):
            ExplicitFamilyOracle(n=3, sets=(frozenset({5}),))

    def test_materialize_cap(self):
        with pytest.raises(TooLarge):
            materialize(KUniformOracle(n=17, k=1))

    def test_kuniform_validation(self):
        with pytest.raises(ValueError):
            KUniformOracle(n=3, k=-1)
        with pytest.raises(UnknownElement):
            KUniformOracle(n=3, k=1).can_extend(frozenset({7}), frozenset())

    def test_partition_requires_dense_ids(self):
        with pytest.raises(ValueError):
            PartitionOneBlockOracle(blocks=((0, 1), (3,)))


class TestDownwardClosure:
    def test_explicit_family_inspection(self):
        closed = ExplicitFamilyOracle(n=2, sets=(frozenset(), frozenset({0}),
                                                 frozenset({1}), frozenset({0, 1})))
        assert closed.downward_closed
        gap = ExplicitFamilyOracle(n=2, sets=(frozenset(), frozenset({0, 1})))
        assert not gap.downward_closed

    def test_structured_kinds_answer_by_construction(self):
        assert KUniformOracle(n=3, k=1).downward_closed
        assert not PairMatchOracle(k=2).downward_closed
        assert not nested_demo().downward_closed


@pytest.mark.parametrize("oracle", [
    KUniformOracle(n=5, k=2),
    TreePathOracle(k=2),
    PartitionOneBlockOracle(blocks=((0, 1, 2), (3, 4, 5))),
    PairMatchOracle(k=3),
    nested_demo(),
    ExplicitFamilyOracle(n=4, sets=(frozenset(), frozenset({1, 3}))),
], ids=lambda o: o.kind)
def test_json_round_trip(oracle):
    doc = oracle_to_json(oracle)
    again = oracle_from_json(doc)
    assert oracle_to_json(again) == doc
    if oracle.n <= 8:
        assert materialize(again) == materialize(oracle)


def test_unknown_kind_rejected():
    with pytest.raises(WrongKind):
        oracle_from_json({"kind": "mystery", "params": {}})
