"""Reference policies: what an order-aware decision-maker plays on each
construction, and the unaware baselines they are measured against.

A policy object is reusable: ``start`` re-initializes all per-trial state.
``decide`` is only called when both actions are allowed; forced actions are
reported through ``notify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Action, ArrivalOrder, DecisionState, Instance
from .errors import BadThreshold, DecodeFailure, MissingLabels

SELECT, DISCARD = Action.SELECT, Action.DISCARD


@dataclass
class Knowledge:
    """What the policy is told before the trial starts.

    Aware knowledge carries the realized order plus realization-dependent
    side information (the tree's good/bad labels). Unaware knowledge
    carries neither.
    """

    variant: str  # "aware" | "unaware"
    order: ArrivalOrder | None = None
    side_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in ("aware", "unaware"):
            raise ValueError("variant must be 'aware' or 'unaware'")
        if self.variant == "unaware" and (self.order is not None or self.side_info):
            raise ValueError("unaware knowledge cannot carry a realized order or labels")

    @staticmethod
    def aware(order: ArrivalOrder, **side_info) -> "Knowledge":
        return Knowledge(variant="aware", order=order, side_info=side_info)

    @staticmethod
    def unaware() -> "Knowledge":
        return Knowledge(variant="unaware")


class Policy:
    """Base class; subclasses override ``start`` and ``decide``."""

    name = "policy"
    aware = False
    draws = False  # whether ``start`` draws from its random stream

    def start(self, instance: Instance, knowledge: Knowledge,
              rng: np.random.Generator | None = None) -> None:
        if self.aware and knowledge.variant != "aware":
            raise MissingLabels(f"{self.name} needs aware knowledge")

    def decide(self, e: int, v: float, state: DecisionState,
               acts: frozenset[Action]) -> Action:
        raise NotImplementedError

    def notify(self, e: int, v: float, state: DecisionState, action: Action) -> None:
        pass


class AlwaysDiscardPolicy(Policy):
    name = "always_discard"

    def decide(self, e, v, state, acts):
        return DISCARD


class GreedyPolicy(Policy):
    """Select any positive-value element whenever selection is allowed."""

    name = "greedy"

    def decide(self, e, v, state, acts):
        return SELECT if v > 0 else DISCARD


def always_discard_policy() -> Policy:
    return AlwaysDiscardPolicy()


def greedy_policy() -> Policy:
    return GreedyPolicy()


# --- tree policies ------------------------------------------------------------


class TreeAwarePolicy(Policy):
    """Selects a good element per layer: the first good candidate worth 1,
    or failing that the last good sibling to arrive."""

    name = "tree_aware"
    aware = True

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        good = knowledge.side_info.get("good")
        if good is None:
            raise MissingLabels("tree_aware needs good/bad labels in side_info")
        self._good = np.asarray(good, dtype=bool)
        self._oracle = instance.feasibility
        self._k = self._oracle.k

    def _is_last_good_sibling(self, e: int) -> bool:
        _, m = self._oracle.layer_index(e)  # siblings have consecutive ids
        return not any(self._good[e + 1: e + self._k - m % self._k])

    def decide(self, e, v, state, acts):
        if not self._good[e]:
            return DISCARD
        if v > 0 or self._is_last_good_sibling(e):
            return SELECT
        return DISCARD


class TreeGamblePolicy(Policy):
    """Unaware: gambles on up to l value-1 selections while walking down from
    the root through the first k-2 layers, then takes any feasible value-1
    element in the last two layers."""

    name = "tree_gamble"

    def __init__(self, l: int):
        if l < 0:
            raise ValueError("l must be nonnegative")
        self.l = l
        self.name = f"tree_gamble_l{l}"

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        self._oracle = instance.feasibility
        self._k = self._oracle.k
        self._count = 0
        self._tip = None  # deepest selection within the first k-2 layers

    def decide(self, e, v, state, acts):
        layer, _ = self._oracle.layer_index(e)
        if layer <= self._k - 2:
            candidate = (self._oracle.parent(e) == self._tip)
            if candidate and v > 0 and self._count < self.l:
                self._count += 1
                self._tip = e
                return SELECT
            return DISCARD
        return SELECT if v > 0 else DISCARD


def tree_aware_policy() -> Policy:
    return TreeAwarePolicy()


def tree_gamble_policy(l: int) -> Policy:
    return TreeGamblePolicy(l)


# --- nested-phase policies -----------------------------------------------------


def decode_nested_index(oracle, order: ArrivalOrder) -> int:
    """The unique i whose completion set equals C minus the pre-B block of C."""
    c_set = set(oracle.c_ids)
    b_set = set(oracle.b_ids)
    phase2 = set()
    for e in order:
        if e in b_set:
            break
        if e in c_set:
            phase2.add(e)
    u = frozenset(c_set - phase2)
    matches = [i for i, us in enumerate(oracle.u_sets) if us == u]
    if len(matches) != 1:
        raise DecodeFailure(f"order identifies {len(matches)} phase indices, need 1")
    return matches[0]


class NestedAwarePolicy(Policy):
    """Selects the index set V_i encoded by the realized order, then the
    first unit-value B element; the completion is forced."""

    name = "nested_aware"
    aware = True

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        oracle = instance.feasibility
        self._oracle = oracle
        if knowledge.order is None:
            raise MissingLabels("nested_aware needs the realized order")
        self._i = decode_nested_index(oracle, knowledge.order)
        self._v_set = oracle.v_set(self._i)
        self._a_set = set(oracle.a_ids)
        self._b_set = set(oracle.b_ids)
        self._b_pos = {e: j for j, e in enumerate(oracle.b_ids)}

    def decide(self, e, v, state, acts):
        if e in self._v_set:
            return SELECT
        if e in self._b_set:
            return SELECT if v > 0 else DISCARD
        if e in self._a_set:
            return DISCARD
        # C element with a live choice: keep it iff it completes the chosen b
        sel_b = [self._b_pos[x] for x in state.selected if x in self._b_pos]
        if sel_b and e in self._oracle.completion(self._i, sel_b[0]):
            return SELECT
        return DISCARD


class NestedGuessPolicy(Policy):
    """Unaware: commits to a fixed or uniformly random index guess, then
    plays greedily while never losing completability."""

    name = "nested_guess"

    def __init__(self, rule: str = "fixed", i: int = 0):
        if rule not in ("fixed", "uniform"):
            raise ValueError("rule must be 'fixed' or 'uniform'")
        self.rule = rule
        self.i = i
        self.draws = rule == "uniform"
        self.name = f"nested_guess_{rule}" + (f"_i{i}" if rule == "fixed" else "")

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        oracle = instance.feasibility
        k1 = len(oracle.a_ids)
        if self.rule == "uniform":
            if rng is None:
                raise ValueError("uniform rule needs a random stream")
            guess = int(rng.integers(2 ** k1))
        else:
            guess = self.i % (2 ** k1)
        self._v_set = oracle.v_set(guess)
        self._a_set = set(oracle.a_ids)
        self._b_set = set(oracle.b_ids)

    def decide(self, e, v, state, acts):
        if e in self._a_set:
            return SELECT if e in self._v_set else DISCARD
        if e in self._b_set:
            return SELECT if v > 0 else DISCARD
        return DISCARD


def nested_aware_policy() -> Policy:
    return NestedAwarePolicy()


def nested_guess_policy(rule: str = "fixed", i: int = 0) -> Policy:
    return NestedGuessPolicy(rule=rule, i=i)


# --- multi-unit threshold policies ---------------------------------------------

PI1, PI2, UNAWARE_COMMIT = "pi1", "pi2", "unaware"


class MultiunitThresholdPolicy(Policy):
    """Selects floor(d*sqrt(k/2)) of the 7/4-valued elements, then rations
    the remaining capacity between value-2 elements and the unit-valued
    block according to the variant."""

    def __init__(self, d: float, variant: str):
        if variant not in (PI1, PI2, UNAWARE_COMMIT):
            raise ValueError(f"unknown variant {variant!r}")
        if d < 0:
            raise BadThreshold("threshold must be nonnegative")
        self.d = d
        self.variant = variant
        self.name = f"multiunit_threshold_d{d}_{variant}"
        self.aware = variant in (PI1, PI2)

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        self._k = int(instance.metadata["k"])
        self._m = math.floor(self.d * math.sqrt(self._k / 2))
        if self._m > self._k:
            raise BadThreshold(
                f"d={self.d} asks for {self._m} > k={self._k} threshold selections")
        self._a_taken = 0
        self._c_seen = 0

    def _classify(self, e: int) -> str:
        if e < self._k:
            return "a"
        if e < 2 * self._k:
            return "b"
        return "c"

    def _observe(self, e: int) -> None:
        if self._classify(e) == "c":
            self._c_seen += 1

    def notify(self, e, v, state, action):
        self._observe(e)

    def decide(self, e, v, state, acts):
        self._observe(e)
        capacity_left = len(state.selected) < self._k
        cls = self._classify(e)
        if cls == "a":
            if self._a_taken < self._m and capacity_left:
                self._a_taken += 1
                return SELECT
            return DISCARD
        if cls == "b":
            if not capacity_left:
                return DISCARD
            if self.variant == PI1:
                return DISCARD
            if self.variant == PI2:
                return SELECT
            # unaware: commit the leftover capacity to b only once no
            # value-2 surprise can still arrive
            return SELECT if self._c_seen == 2 * self._k else DISCARD
        return SELECT if (v >= 2 and capacity_left) else DISCARD


def multiunit_threshold_policy(d: float, variant: str) -> Policy:
    return MultiunitThresholdPolicy(d, variant)


# --- policy specs ---------------------------------------------------------------


def parse_policy_spec(spec: str) -> Policy:
    """Build a policy from a CLI spec like
    ``multiunit_threshold:d=1.152,variant=pi1``."""
    name, _, arg_str = spec.partition(":")
    args: dict[str, str] = {}
    if arg_str:
        for piece in arg_str.split(","):
            k, _, v = piece.partition("=")
            if not v:
                raise ValueError(f"malformed policy argument {piece!r}")
            args[k.strip()] = v.strip()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(_REGISTRY)}") from None
    return factory(args)


def _no_args(make: Callable[[], Policy]):
    def build(args: dict[str, str]) -> Policy:
        if args:
            raise ValueError(f"policy takes no arguments, got {args}")
        return make()
    return build


def _build_gamble(args):
    l = int(args.pop("l", "0"))
    if args:
        raise ValueError(f"unexpected arguments {args}")
    return tree_gamble_policy(l)


def _build_guess(args):
    rule = args.pop("rule", "fixed")
    i = int(args.pop("i", "0"))
    if args:
        raise ValueError(f"unexpected arguments {args}")
    return nested_guess_policy(rule=rule, i=i)


def _build_threshold(args):
    try:
        d = float(args.pop("d"))
        variant = args.pop("variant")
    except KeyError as missing:
        raise ValueError(f"multiunit_threshold needs argument {missing}") from None
    if args:
        raise ValueError(f"unexpected arguments {args}")
    return multiunit_threshold_policy(d, variant)


_REGISTRY: dict[str, Callable[[dict], Policy]] = {
    "always_discard": _no_args(always_discard_policy),
    "greedy": _no_args(greedy_policy),
    "tree_aware": _no_args(tree_aware_policy),
    "tree_gamble": _build_gamble,
    "nested_aware": _no_args(nested_aware_policy),
    "nested_guess": _build_guess,
    "multiunit_threshold": _build_threshold,
}
