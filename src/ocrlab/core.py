"""Domain types for instances, arrival orders, decision traces, and the
forced-decision semantics of sequential selection under a feasibility
constraint.

Element ids are dense integers in [0, n). Values and probabilities are
64-bit floats compared with tolerance ``TOL``.
"""

from __future__ import annotations

import enum
import functools
import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InconsistentState, PolicyViolation, UnknownElement

TOL = 1e-9

# Sub-stream tags for the counter-based RNG. Every random draw in a trial is
# keyed by (global seed, trial index, stream), so results never depend on
# evaluation order or worker count.
STREAM_VALUES = 0
STREAM_ORDER = 1
STREAM_POLICY = 2


class _CellKey:
    """Hands Philox one cell's key as is. ``Philox(key=...)`` would first
    seed a ``SeedSequence`` from OS entropy and then discard it; this key
    gathers none. It cannot spawn, so neither can a ``trial_rng`` generator."""

    __slots__ = ("words",)

    def __init__(self, words: tuple[int, int]):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its key: two 64-bit words
        return np.array(self.words, dtype=np.uint64)


@functools.cache
def _cell_key_type() -> type:
    """``_CellKey``, registered as a NumPy ``ISeedSequence`` on first use:
    importing ``numpy.random`` takes ~6 MB, which a program that draws
    nothing (an exact solve) need not pay."""
    from numpy.random.bit_generator import ISeedSequence
    return ISeedSequence.register(_CellKey)


def _cell_key(seed: int, trial: int, stream: int) -> tuple[int, int]:
    """The Philox key of one (seed, trial, stream) cell."""
    try:
        # ``operator.index`` takes ints and NumPy integers, but no float,
        # which ``int`` would truncate onto another cell, and no bool, which
        # it takes as 0 or 1
        if type(seed) is bool or type(trial) is bool or type(stream) is bool:
            raise TypeError
        seed, trial, stream = (operator.index(seed), operator.index(trial),
                               operator.index(stream))
    except TypeError:
        raise ValueError("seed, trial index and stream tag must be integers") from None
    if seed < 0 or trial < 0:
        raise ValueError("seed and trial index must be nonnegative")
    # the key is (seed, trial << 2 | stream) in two 64-bit words; larger
    # values would wrap or carry onto another cell's key
    if seed >= 2 ** 64 or trial >= 2 ** 62:
        raise ValueError("seed must be below 2**64 and trial index below 2**62")
    if not 0 <= stream < 4:
        raise ValueError("stream tag must lie in 0..3")
    return seed, trial << 2 | stream


def trial_rng(seed: int, trial: int, stream: int = STREAM_VALUES) -> np.random.Generator:
    """Counter-based generator for one (seed, trial, stream) cell."""
    key = _cell_key_type()(_cell_key(seed, trial, stream))
    return np.random.Generator(np.random.Philox(key))


def cell_draws(seed: int, trials: Iterable[int], stream: int,
               rows: Iterable[np.ndarray], start: int = 0) -> Iterator[np.ndarray]:
    """Fills the next of ``rows`` with draws ``start``, ``start + 1``, ...
    of each trial's cell and yields it, trial by trial. A float64 row gets
    the uniforms ``trial_rng(seed, trial, stream).random(start + len(row))``
    from ``start`` on, a uint64 row the raw words that ``random_raw`` gives
    there (uniform i is word i >> 11 times 2**-53), bit for bit. Passing
    one row again and again draws a long cell without holding a block.

    One Philox serves every cell: a Philox stream is its key and counter
    alone, so each cell only assigns its key to the state (plain Python
    values, the cheapest form the setter reads). Philox makes 4 words a
    counter step, so ``start`` sets the counter to ``start // 4`` and the
    first ``start % 4`` words are dropped."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    skip, lead = divmod(start, 4)
    bits = np.random.Philox(_cell_key_type()((0, 0)))  # keyed per cell below
    draw = np.random.Generator(bits).random
    cell = {"counter": (skip, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": cell, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for trial, row in zip(trials, rows):
        cell["key"] = _cell_key(seed, trial, stream)
        bits.state = state
        if lead:
            bits.random_raw(lead, output=False)
        if row.dtype == np.uint64:
            # converting a word to a uniform costs more than drawing it
            row[:] = bits.random_raw(len(row))
        else:
            draw(out=row)
        yield row


class Action(enum.Enum):
    SELECT = "select"
    DISCARD = "discard"


# module aliases: on Python 3.10 and 3.11 reading a member off the class, or
# hashing one, runs Python code, which costs more than a step's own work
SELECT, DISCARD = Action.SELECT, Action.DISCARD


@dataclass(frozen=True)
class ValueDistribution:
    """Finite value distribution given as (value, probability) atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        values = [v for v, _ in self.atoms]
        if len(set(values)) != len(values):
            raise ValueError("atom values must be pairwise distinct")
        # written so that a NaN fails each test
        if not all(0 <= v < np.inf for v in values):
            raise ValueError("values must be finite and nonnegative")
        if not all(0 <= p <= 1 for _, p in self.atoms):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(p for _, p in self.atoms) - 1.0) > TOL:
            raise ValueError("probabilities must sum to 1")

    @staticmethod
    def deterministic(value: float) -> "ValueDistribution":
        return ValueDistribution(((float(value), 1.0),))

    @staticmethod
    def bernoulli(p: float, hi: float = 1.0) -> "ValueDistribution":
        """``hi`` with probability p, else 0; deterministic at p = 0 or 1."""
        if not 0.0 <= p <= 1.0:  # written so that a NaN fails it
            raise ValueError(f"Bernoulli probability must lie in [0, 1], got {p!r}")
        if p == 1.0:
            return ValueDistribution.deterministic(hi)
        if p == 0.0:
            return ValueDistribution.deterministic(0.0)
        return ValueDistribution(((float(hi), float(p)), (0.0, 1.0 - float(p))))

    @property
    def is_deterministic(self) -> bool:
        return len(self.atoms) == 1

    def support(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.atoms)

    def cumulative(self) -> np.ndarray:
        return np.cumsum([p for _, p in self.atoms])

    def from_uniform(self, u: float) -> float:
        idx = int(np.searchsorted(self.cumulative(), u, side="right"))
        return self.atoms[min(idx, len(self.atoms) - 1)][0]


@dataclass
class Instance:
    """An instance: elements with value distributions plus a feasibility
    oracle, the one statement of its structure. ``metadata`` labels it with
    construction parameters as strings, which are only written and printed."""

    name: str
    dists: tuple[ValueDistribution, ...]
    feasibility: "object"
    metadata: dict[str, str] = field(default_factory=dict)
    # a cache of ``sample_values``' groups: not an argument, so that a copy
    # made by ``dataclasses.replace`` regroups its own dists
    _groups: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.dists) < 1:
            raise ValueError("instance needs at least one element")
        if len(self.dists) != self.feasibility.n:
            raise ValueError(f"{len(self.dists)} elements, but the feasibility "
                             f"constraint has {self.feasibility.n}")

    @property
    def n(self) -> int:
        return len(self.dists)

    def __getstate__(self):
        # the value groups are a cache of O(n) arrays; a pool worker that
        # needs them rebuilds them rather than receiving them with every job
        return {**self.__dict__, "_groups": None}

    def _value_groups(self):
        """Group elements by identical distribution for vectorized sampling."""
        if self._groups is None:
            by_dist: dict[tuple, list[int]] = {}
            for i, d in enumerate(self.dists):
                by_dist.setdefault(d.atoms, []).append(i)
            groups = []
            for atoms, ids in by_dist.items():
                dist = ValueDistribution(atoms)
                groups.append((np.asarray(ids, dtype=np.int64),
                               np.asarray([v for v, _ in atoms]),
                               dist.cumulative()))
            self._groups = groups
        return self._groups


ArrivalOrder = tuple[int, ...]


def check_order(order: Sequence[int], n: int) -> ArrivalOrder:
    try:
        # ``operator.index`` takes ints and NumPy integers, but no float
        ids = tuple(map(operator.index, order))
    except TypeError:
        raise ValueError("order ids must be integers") from None
    ranked = sorted(order)  # as given: only the ids 0 and 1 can be bools, and they sort first
    if ranked != list(range(n)):
        raise ValueError("order must be a permutation of all element ids")
    if bool in map(type, ranked[:2]):
        raise ValueError("order ids must be integers")
    return ids


@dataclass(frozen=True)
class FiniteOrderDistribution:
    """A finite weighted set of arrival orders."""

    orders: tuple[ArrivalOrder, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.orders) != len(self.weights) or not self.orders:
            raise ValueError("orders and weights must be nonempty and aligned")
        if not all(0 < w < np.inf for w in self.weights):
            raise ValueError("weights must be positive and finite")
        if abs(sum(self.weights) - 1.0) > TOL:
            raise ValueError("weights must sum to 1")
        # keep the checked tuples: their ids are plain ints, whatever the caller passed
        n = len(self.orders[0])
        object.__setattr__(self, "orders", tuple(check_order(o, n) for o in self.orders))

    @staticmethod
    def uniform(orders: Iterable[Sequence[int]]) -> "FiniteOrderDistribution":
        orders = tuple(orders)
        w = 1.0 / len(orders)
        return FiniteOrderDistribution(orders, tuple(w for _ in orders))

    def sample_index(self, rng: np.random.Generator) -> int:
        u = rng.random()
        return int(np.searchsorted(np.cumsum(self.weights), u, side="right").clip(0, len(self.orders) - 1))


@dataclass
class Trace:
    steps: list[tuple[int, float, Action]]
    total: float


def sample_values(instance: Instance, seed: int, trial: int) -> np.ndarray:
    """Realized values for all elements, one vector per (seed, trial).

    Element i consumes the i-th uniform of the trial's value stream, so the
    draw for any element is reproducible independently of which elements a
    caller ends up inspecting.
    """
    rng = trial_rng(seed, trial, STREAM_VALUES)
    u = rng.random(instance.n)
    out = np.empty(instance.n, dtype=np.float64)
    for ids, values, cum in instance._value_groups():
        if len(values) == 1:
            out[ids] = values[0]
        else:
            idx = np.searchsorted(cum, u[ids], side="right")
            out[ids] = values[np.minimum(idx, len(values) - 1)]
    return out


def allowed_actions(oracle, selected, discarded, element: int) -> frozenset[Action]:
    """The nonempty subset of {Select, Discard} consistent with the decisions."""
    if element in selected or element in discarded:
        raise InconsistentState(f"element {element} already decided")
    acts = frozenset(a for a in Action if oracle.can_extend(
        selected, discarded, pin=(element, a is Action.SELECT)))
    if not acts:
        raise InconsistentState("state admits no action; it violates its invariant")
    return acts


def run_policy(policy, instance: Instance, order: Sequence[int],
               values: Mapping[int, float] | np.ndarray, pstate) -> Trace:
    """Run one realization from ``pstate``, the state ``policy.start``
    returned: forced actions are applied and passed to ``notify``, and
    ``decide`` is asked only when both actions are allowed. The oracle and
    policy states are threaded along the order, so every step costs alike."""
    oracle = instance.feasibility
    n = instance.n
    if isinstance(values, np.ndarray):
        values = values.tolist()  # a list item reads faster than an array's
    feas = oracle.start()
    decided: set[int] = set()
    steps: list[tuple[int, float, Action]] = []
    total = 0.0
    for e in order:
        if not (0 <= e < n):
            raise UnknownElement(f"element {e} outside [0, {n})")
        v = float(values[e])
        if e in decided:
            raise InconsistentState(f"element {e} already decided")
        decided.add(e)
        after_sel, after_dis = oracle.step(feas, e)
        if after_sel is not None and after_dis is not None:
            action, pstate = policy.decide(pstate, e, v)
            if action is not SELECT and action is not DISCARD:
                raise PolicyViolation(f"policy {policy.name!r} returned disallowed {action}")
        elif after_sel is not None or after_dis is not None:
            action = SELECT if after_dis is None else DISCARD
            pstate = policy.notify(pstate, e, v, action)
        else:
            raise InconsistentState("state admits no action; it violates its invariant")
        if action is SELECT:
            feas = after_sel
            total += v
        else:
            feas = after_dis
        steps.append((e, v, action))
    return Trace(steps=steps, total=total)


# --- instance JSON schema -------------------------------------------------

def instance_to_json_dict(instance: Instance,
                          orders: FiniteOrderDistribution | None = None) -> dict:
    from . import feasibility as feas

    order_rows = []
    if orders is not None:
        for o, w in zip(orders.orders, orders.weights):
            order_rows.append({"sequence": list(o), "weight": w})
    return {
        "name": instance.name,
        "elements": [
            {"id": i, "dist": [[v, p] for v, p in d.atoms]}
            for i, d in enumerate(instance.dists)
        ],
        "feasibility": feas.oracle_to_json(instance.feasibility),
        "orders": order_rows,
        "metadata": dict(instance.metadata),
    }


def _nested(obj, depth: int) -> str:
    """``obj`` as ``json.dumps(..., indent=2, sort_keys=True)`` lays it out
    at nesting ``depth``. JSON escapes newlines inside strings, so every
    newline in the text starts a line of the layout."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _list_text(items: list[str], depth: int) -> str:
    """A JSON list of already rendered items, laid out at ``depth``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def instance_text(instance: Instance,
                  orders: FiniteOrderDistribution | None = None) -> str:
    """The canonical file text, ``json.dumps(instance_to_json_dict(instance,
    orders), indent=2, sort_keys=True) + "\n"``, built in linear passes:
    each distinct distribution's element row is rendered once and cut just
    before its id, and each order is one join of its ids."""
    from . import feasibility as feas

    by_object: dict[int, str] = {}
    by_repr: dict[str, str] = {}
    rows = []
    for i, d in enumerate(instance.dists):
        head = by_object.get(id(d))
        if head is None:
            # equal atoms may render differently (1 and 1.0, 0.0 and -0.0),
            # so rows are shared by the atoms' repr, not by equality
            key = repr(d.atoms)
            head = by_repr.get(key)
            if head is None:
                row = _nested({"dist": [[v, p] for v, p in d.atoms], "id": 0}, 2)
                head = by_repr[key] = row[:row.rindex('"id": ') + len('"id": ')]
            by_object[id(d)] = head
        rows.append(head + str(i) + "\n    }")
    order_rows = []
    if orders is not None:
        for o, w in zip(orders.orders, orders.weights):
            order_rows.append('{\n      "sequence": ' + _list_text(list(map(str, o)), 3)
                              + ',\n      "weight": ' + json.dumps(w) + "\n    }")
    return ('{\n  "elements": ' + _list_text(rows, 1)
            + ',\n  "feasibility": ' + _nested(feas.oracle_to_json(instance.feasibility), 1)
            + ',\n  "metadata": ' + _nested(dict(instance.metadata), 1)
            + ',\n  "name": ' + json.dumps(instance.name)
            + ',\n  "orders": ' + _list_text(order_rows, 1) + "\n}\n")


def _number(x) -> float:
    """A value, probability or weight read from a file: a JSON number, never
    a string or a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError("values, probabilities and weights must be numbers")
    return float(x)


def instance_from_json_dict(doc: dict) -> tuple[Instance, FiniteOrderDistribution | None]:
    """Elements whose atoms are equal share one ``ValueDistribution``, so a
    loaded instance pickles as small as a built one. (A ``-0.0`` atom thus
    reads back as the ``0.0`` of an equal row before it.)"""
    from . import feasibility as feas

    try:
        elements = sorted(doc["elements"], key=lambda r: r["id"])
        if feas._ints(*(r["id"] for r in elements)) != tuple(range(len(elements))):
            raise ValueError("element ids must be dense integers from 0")
        interned: dict[tuple, ValueDistribution] = {}
        dists = []
        for r in elements:
            # keyed on the row as parsed; equal rows are converted and checked once
            row = tuple(map(tuple, r["dist"]))
            d = interned.get(row)
            if d is None:
                d = interned[row] = ValueDistribution(
                    tuple((_number(v), _number(p)) for v, p in row))
            dists.append(d)
        oracle = feas.oracle_from_json(doc["feasibility"])
        metadata = {str(k): str(v) for k, v in doc.get("metadata", {}).items()}
        inst = Instance(name=doc["name"], dists=tuple(dists), feasibility=oracle,
                        metadata=metadata)
        orders = None
        if doc.get("orders"):
            orders = FiniteOrderDistribution(
                tuple(r["sequence"] for r in doc["orders"]),
                tuple(_number(r["weight"]) for r in doc["orders"]),
            )
            if len(orders.orders[0]) != inst.n:
                raise ValueError("order must be a permutation of all element ids")
        return inst, orders
    except (KeyError, TypeError, AttributeError) as exc:
        # a key left out, a list where an object belongs, a number where a list does, ...
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed instance file: {what}") from exc


def dump_instance(instance: Instance, path,
                  orders: FiniteOrderDistribution | None = None) -> None:
    """Write ``instance_text``; the text is complete before the file opens,
    so an unencodable instance leaves no partial file."""
    text = instance_text(instance, orders)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_instance(path) -> tuple[Instance, FiniteOrderDistribution | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json_dict(json.load(fh))
