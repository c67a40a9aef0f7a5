"""Reference policies: what an order-aware decision-maker plays on each
construction, and the unaware baselines they are measured against.

A policy is a pure state machine, like the feasibility oracles: ``start``
validates the trial, sets its constants on the policy and returns the
initial policy state, a small hashable value. ``decide(pstate, e, v) ->
(action, pstate)`` is called only when both actions are allowed; forced
actions go through ``notify(pstate, e, v, action) -> pstate``. Neither
mutates the policy, which lets ``eval_policy_exact`` merge equal states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DISCARD, SELECT, Action, ArrivalOrder, Instance
from .errors import BadThreshold, DecodeFailure, MissingLabels
from .feasibility import KUniformOracle, NestedPhaseOracle, TreePathOracle


@dataclass
class Knowledge:
    """What the policy is told before the trial starts: nothing for an
    unaware policy; for an aware one, the realized order and, on the tree,
    the good/bad label of every element."""

    order: ArrivalOrder | None = None
    good: np.ndarray | None = None  # bool per element id

    def __post_init__(self):
        if self.good is not None and self.order is None:
            raise ValueError("good/bad labels come only with the realized order")


class Policy:
    """Base class; subclasses override ``start`` and ``decide``."""

    name = "policy"
    aware = False
    draws = False  # whether ``start`` draws from its random stream
    oracle_class: type | None = None  # the oracle ``start`` reads, if any

    def start(self, instance: Instance, knowledge: Knowledge,
              rng: np.random.Generator | None = None):
        """Validate the trial, set its constants, return the initial state."""
        oracle = instance.feasibility
        if self.oracle_class is not None and not isinstance(oracle, self.oracle_class):
            want, got = (c.kind.replace("_", "-") for c in (self.oracle_class, type(oracle)))
            raise ValueError(f"{self.name} needs a {want} oracle, not a {got} one")
        if self.aware and knowledge.order is None:
            raise MissingLabels(f"{self.name} needs the realized order")
        return None

    def decide(self, pstate, e: int, v: float) -> tuple[Action, object]:
        raise NotImplementedError

    def notify(self, pstate, e: int, v: float, action: Action):
        return pstate


class AlwaysDiscardPolicy(Policy):
    name = "always_discard"

    def decide(self, pstate, e, v):
        return DISCARD, pstate


class GreedyPolicy(Policy):
    """Select any positive-value element whenever selection is allowed."""

    name = "greedy"

    def decide(self, pstate, e, v):
        return (SELECT if v > 0 else DISCARD), pstate


# --- tree policies ------------------------------------------------------------


class TreeAwarePolicy(Policy):
    """Selects a good element per layer: the first good candidate worth 1,
    or failing that the last good sibling to arrive."""

    name = "tree_aware"
    aware = True
    oracle_class = TreePathOracle

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        if knowledge.good is None:
            raise MissingLabels("tree_aware needs the good/bad labels")
        self._good = np.asarray(knowledge.good, dtype=bool)
        self._oracle = instance.feasibility
        self._k = self._oracle.k
        return None

    def _is_last_good_sibling(self, e: int) -> bool:
        _, m = self._oracle.layer_index(e)  # siblings have consecutive ids
        return not any(self._good[e + 1: e + self._k - m % self._k])

    def decide(self, pstate, e, v):
        if self._good[e] and (v > 0 or self._is_last_good_sibling(e)):
            return SELECT, pstate
        return DISCARD, pstate


class TreeGamblePolicy(Policy):
    """Unaware: gambles on up to l value-1 selections while walking down from
    the root through the first k-2 layers, then takes any feasible value-1
    element in the last two layers. The state is (gambles made, deepest
    selection within the first k-2 layers or None)."""

    name = "tree_gamble"
    oracle_class = TreePathOracle

    def __init__(self, l: int = 0):
        if l < 0:
            raise ValueError("l must be nonnegative")
        self.l = l
        self.name = f"tree_gamble_l{l}"

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        self._oracle = instance.feasibility
        self._k = self._oracle.k
        return 0, None

    def decide(self, pstate, e, v):
        layer, _ = self._oracle.layer_index(e)
        if layer <= self._k - 2:
            count, tip = pstate
            if v > 0 and count < self.l and self._oracle.parent(e) == tip:
                return SELECT, (count + 1, e)
            return DISCARD, pstate
        return (SELECT if v > 0 else DISCARD), pstate


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
    first unit-value B element; the completion is forced. The state is the
    position in B of the selected B element, or None."""

    name = "nested_aware"
    aware = True
    oracle_class = NestedPhaseOracle

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        oracle = instance.feasibility
        self._oracle = oracle
        self._i = decode_nested_index(oracle, knowledge.order)
        self._v_set = oracle.v_set(self._i)
        self._a_set = set(oracle.a_ids)
        self._b_pos = {e: j for j, e in enumerate(oracle.b_ids)}
        return None

    def decide(self, pstate, e, v):
        if e in self._v_set:
            return SELECT, pstate
        if e in self._b_pos:
            return (SELECT, self._b_pos[e]) if v > 0 else (DISCARD, pstate)
        if e in self._a_set:
            return DISCARD, pstate
        # C element with a live choice: keep it iff it completes the chosen b
        if pstate is not None and e in self._oracle.completion(self._i, pstate):
            return SELECT, pstate
        return DISCARD, pstate

    def notify(self, pstate, e, v, action):
        if action is SELECT and e in self._b_pos:
            return self._b_pos[e]
        return pstate


class NestedGuessPolicy(Policy):
    """Unaware: commits to a fixed or uniformly random index guess, then
    plays greedily while never losing completability."""

    name = "nested_guess"
    oracle_class = NestedPhaseOracle

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
        return None

    def decide(self, pstate, e, v):
        if e in self._a_set:
            return (SELECT if e in self._v_set else DISCARD), pstate
        if e in self._b_set:
            return (SELECT if v > 0 else DISCARD), pstate
        return DISCARD, pstate


# --- multi-unit threshold policies ---------------------------------------------

PI1, PI2, UNAWARE_COMMIT = "pi1", "pi2", "unaware"


class MultiunitThresholdPolicy(Policy):
    """Selects ``threshold_count(k)`` of the 7/4-valued elements, then rations
    the remaining capacity between value-2 elements and the unit-valued
    block according to the variant. The state is (7/4-valued elements
    taken, random-block elements seen). Under the k-uniform oracle with n = 4k
    that ``start`` requires, every step after the first forced one is forced
    too: ``decide`` always has capacity left, and forced steps keep the state."""

    oracle_class = KUniformOracle

    def __init__(self, d: float, variant: str):
        if variant not in (PI1, PI2, UNAWARE_COMMIT):
            raise ValueError(f"unknown variant {variant!r}")
        if not 0 <= d < math.inf:  # a NaN fails both comparisons
            raise BadThreshold(f"threshold must be finite and nonnegative, got {d}")
        self.d = d
        self.variant = variant
        self.name = f"multiunit_threshold_d{d}_{variant}"
        self.aware = variant in (PI1, PI2)

    def start(self, instance, knowledge, rng=None):
        super().start(instance, knowledge, rng)
        oracle = instance.feasibility
        self._k = oracle.k
        if oracle.n != 4 * self._k:
            raise ValueError(f"{self.name} needs a k-uniform oracle with n = 4k, "
                             f"not n={oracle.n}, k={self._k}")
        self._m = self.threshold_count(self._k)
        return 0, 0

    def threshold_count(self, k: int) -> int:
        """floor(d*sqrt(k/2)): how many 7/4-valued elements to select at
        capacity k; above k is refused before flooring, which fails on inf."""
        count = self.d * math.sqrt(k / 2)
        if not count < k + 1:
            raise BadThreshold(f"d={self.d} asks for more than k={k} threshold selections")
        return math.floor(count)

    def decide(self, pstate, e, v):
        a_taken, c_seen = pstate
        if e < self._k:
            if a_taken < self._m:
                return SELECT, (a_taken + 1, c_seen)
            return DISCARD, pstate
        if e < 2 * self._k:
            if self.variant == PI1:
                return DISCARD, pstate
            if self.variant == PI2:
                return SELECT, pstate
            # unaware: commit the leftover capacity to b only once no
            # value-2 surprise can still arrive
            return (SELECT if c_seen == 2 * self._k else DISCARD), pstate
        return (SELECT if v >= 2 else DISCARD), (a_taken, c_seen + 1)


# --- policy specs ---------------------------------------------------------------


# spec name -> (policy class, its spec arguments with their parsers); an
# argument the spec leaves out takes the default of the class's __init__
POLICY_SPECS: dict[str, tuple[type[Policy], dict[str, Callable[[str], object]]]] = {
    "always_discard": (AlwaysDiscardPolicy, {}),
    "greedy": (GreedyPolicy, {}),
    "tree_aware": (TreeAwarePolicy, {}),
    "tree_gamble": (TreeGamblePolicy, {"l": int}),
    "nested_aware": (NestedAwarePolicy, {}),
    "nested_guess": (NestedGuessPolicy, {"rule": str, "i": int}),
    "multiunit_threshold": (MultiunitThresholdPolicy, {"d": float, "variant": str}),
}


def parse_policy_spec(spec: str) -> Policy:
    """Build a policy from a CLI spec like
    ``multiunit_threshold:d=1.152,variant=pi1``."""
    name, _, arg_str = spec.partition(":")
    try:
        cls, parsers = POLICY_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; "
                         f"known: {sorted(POLICY_SPECS)}") from None
    args = {}
    for piece in arg_str.split(",") if arg_str else ():
        k, _, v = piece.partition("=")
        if not v:
            raise ValueError(f"malformed policy argument {piece!r}")
        k = k.strip()
        if k not in parsers:
            raise ValueError(f"unexpected argument {k!r} for {name}, "
                             f"which takes {sorted(parsers)}")
        args[k] = parsers[k](v.strip())
    try:
        return cls(**args)
    except TypeError as exc:  # every name is known, so a required one is missing
        raise ValueError(f"{name} needs more arguments: {exc}") from None
