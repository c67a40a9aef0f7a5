"""Feasibility oracles and the per-element state behind allowed actions.

Every oracle summarizes the decisions of an online run in a small immutable,
hashable state: ``start()`` is the state before any decision, and
``step(state, e)`` is ``(after_select, after_discard)`` for an undecided
element ``e`` in range: the state after selecting ``e`` and the state after
discarding it, with ``None`` where the action is forbidden (where no
feasible set contains everything selected plus ``e``, or none avoids
everything discarded plus ``e``). ``successors(states, e)`` is the same pair
for a list of states, as two aligned lists, with the per-element work done
once. Equal states admit the same future decisions, so a state is its own
memo key, and no state is ``None``. Per kind it is the selected count
(k-uniform), the deepest selected node (tree path), the chosen block
(partition), -1 for the last two while nothing is selected, or, for the
kinds with a finite list of members (explicit family, pair match, nested
phase), the nonzero bitmask of the members still consistent with the
decisions; with one bitmask per element of the members containing it, each
successor is one AND.

``can_extend(selected, discarded, pin)`` asks whether some feasible set
contains everything selected, avoids everything discarded and respects an
optional pin forcing one more element in or out. Every oracle answers it by
one replay: step through the decisions in id order and fail at the first one
its state forbids. Oracles are immutable and all queries are pure.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import EncodingOverflow, TooLarge, UnknownElement, WrongKind

EXPLICIT_MAX_ELEMENTS = 24
MATERIALIZE_MAX_ELEMENTS = 16
NESTED_MAX_K1 = 20
ELEMENT_CAP = 1_000_000  # the most elements of any construction and of the tree oracle


def _check(e: int, n: int) -> None:
    if not (0 <= e < n):
        raise UnknownElement(f"element {e} outside [0, {n})")


def _replay_can_extend(oracle, selected, discarded,
                       pin: tuple[int, bool] | None = None) -> bool:
    """The extension query of every oracle, replayed through its state."""
    sel, dis = set(selected), set(discarded)
    if pin is not None:
        (sel if pin[1] else dis).add(pin[0])
    for e in sel | dis:
        _check(e, oracle.n)
    if sel & dis:
        return False
    state = oracle.start()
    for e in sorted(sel | dis):
        state = oracle.step(state, e)[0 if e in sel else 1]
        if state is None:
            return False
    return True


class _FamilyState:
    """State: the bitmask of family members still consistent with the
    decisions. Each class builds ``_all``, every member's bit, and ``_inc``,
    per element the bits of the members that contain it."""

    def start(self) -> int:
        return self._all

    def step(self, alive: int, e: int) -> tuple[int | None, int | None]:
        inc = self._inc[e]
        return alive & inc or None, alive & ~inc or None

    def successors(self, states: list[int], e: int
                   ) -> tuple[list[int | None], list[int | None]]:
        inc = self._inc[e]
        out = ~inc
        return [s & inc or None for s in states], [s & out or None for s in states]


@dataclass(frozen=True)
class ExplicitFamilyOracle(_FamilyState):
    kind = "explicit_family"
    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n > EXPLICIT_MAX_ELEMENTS:
            raise TooLarge(f"explicit families capped at {EXPLICIT_MAX_ELEMENTS} elements")
        if not self.sets:
            raise ValueError("family must be nonempty")
        for s in self.sets:
            for e in s:
                _check(e, self.n)
        # member m is sets[m]
        object.__setattr__(self, "_all", (1 << len(self.sets)) - 1)
        object.__setattr__(self, "_inc", tuple(
            sum(1 << m for m, s in enumerate(self.sets) if e in s) for e in range(self.n)))

    @property
    def downward_closed(self) -> bool:
        family = set(self.sets)
        return all(s - {e} in family for s in self.sets for e in s)

    can_extend = _replay_can_extend

    def is_feasible(self, s: Iterable[int]) -> bool:
        return frozenset(s) in set(self.sets)


@dataclass(frozen=True)
class KUniformOracle:
    kind = "k_uniform"
    n: int
    k: int
    downward_closed = True

    def __post_init__(self):
        if not (0 <= self.k):
            raise ValueError("capacity must be nonnegative")

    def start(self) -> int:
        return 0

    def step(self, count: int, e: int) -> tuple[int | None, int]:
        return count + 1 if count < self.k else None, count

    def successors(self, states: list[int], e: int) -> tuple[list[int | None], list[int]]:
        k = self.k
        return [c + 1 if c < k else None for c in states], list(states)

    can_extend = _replay_can_extend

    def is_feasible(self, s: Iterable[int]) -> bool:
        return len(frozenset(s)) <= self.k


# --- rooted-tree layout ----------------------------------------------------
#
# Elements are all strings of length 1..k over a k-letter alphabet, laid out
# layer-major then lexicographic: layer L holds k**L elements starting at
# offset(L) = sum_{i<L} k**i; within a layer, index m encodes the string in
# base k (characters 0-based).

@dataclass(frozen=True)
class TreeLayout:
    """Per element id of the k-ary tree: its layer (1-based) and its leaf
    interval [lo, hi), the leaves below it numbered 0..k**k-1. Two intervals
    are nested or disjoint, and they meet exactly when the nodes are
    comparable (one string is a prefix of the other)."""

    k: int
    offsets: tuple[int, ...]
    width: tuple[int, ...]  # [d-1]: leaves below a layer-d node
    layer: tuple[int, ...]
    span: tuple[tuple[int, int], ...]  # (lo, hi)

    def block(self, d: int, e: int) -> tuple[int, int]:
        """The id range [start, stop) of the layer-d nodes comparable with
        ``e``: its ancestor above e's layer, e itself at it, and its
        descendants below."""
        lo, hi = self.span[e]
        w, base = self.width[d - 1], self.offsets[d - 1]
        return base + lo // w, base + (hi - 1) // w + 1

    @functools.cached_property
    def ancestors(self) -> tuple[tuple[int, ...], ...]:
        """Per id, the ids of its ancestors from layer 1 down: a node's row
        is its parent's row and the parent."""
        rows: list[tuple[int, ...]] = [()] * self.k
        for e in range(self.k, self.offsets[-1]):
            parent = self.block(self.layer[e] - 1, e)[0]
            rows.append(rows[parent] + (parent,))
        return tuple(rows)


@functools.lru_cache(maxsize=None)
def tree_layout(k: int) -> TreeLayout:
    width = tuple(k ** (k - d) for d in range(1, k + 1))
    offsets, layer, span = [0], [], []
    for d, w in enumerate(width, 1):
        layer += [d] * k ** d
        span += [(m * w, m * w + w) for m in range(k ** d)]
        offsets.append(len(layer))
    return TreeLayout(k, tuple(offsets), width, tuple(layer), tuple(span))


@dataclass(frozen=True)
class TreePathOracle:
    """Feasible sets are subsets of a single root-to-leaf path: any two
    member strings must be prefix-comparable. The selected nodes form a
    chain, so a node extends it exactly when it is comparable with the
    deepest one. Every query reads the cached ``tree_layout(k)``, and the
    oracle pickles as its k."""

    kind = "tree_path"
    k: int
    downward_closed = True

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("tree arity must be even and at least 2")
        n = (self.k ** (self.k + 1) - self.k) // (self.k - 1)  # k + k**2 + ... + k**k
        if n > ELEMENT_CAP:
            raise TooLarge(f"tree k={self.k} has {n} elements, cap is {ELEMENT_CAP}")
        object.__setattr__(self, "_layout", tree_layout(self.k))
        object.__setattr__(self, "n", n)

    def __reduce__(self):
        return TreePathOracle, (self.k,)

    def layer_index(self, e: int) -> tuple[int, int]:
        """(layer, index-within-layer), layer 1-based."""
        _check(e, self.n)
        layer = self._layout.layer[e]
        return layer, e - self._layout.offsets[layer - 1]

    def string_of(self, e: int) -> tuple[int, ...]:
        """The element's string, characters 1-based as displayed."""
        layer, _ = self.layer_index(e)
        lo = self._layout.span[e][0]
        return tuple(lo // w % self.k + 1 for w in self._layout.width[:layer])

    def parent(self, e: int) -> int | None:
        layer, _ = self.layer_index(e)
        return None if layer == 1 else self._layout.block(layer - 1, e)[0]

    def comparable(self, e1: int, e2: int) -> bool:
        _check(e1, self.n)
        _check(e2, self.n)
        return self.step(e1, e2)[0] is not None

    def start(self) -> int:
        return -1  # nothing selected

    def step(self, deepest: int, e: int) -> tuple[int | None, int]:
        if deepest < 0:
            return e, deepest
        # comparable exactly when the leaf intervals meet; comparable nodes
        # lie in different layers, and ids are layer-major
        (lo1, hi1), (lo2, hi2) = self._layout.span[deepest], self._layout.span[e]
        return max(deepest, e) if lo1 < hi2 and lo2 < hi1 else None, deepest

    def successors(self, states: list[int], e: int) -> tuple[list[int | None], list[int]]:
        steps = [self.step(s, e) for s in states]
        return [a for a, _ in steps], [b for _, b in steps]

    can_extend = _replay_can_extend

    def is_feasible(self, s: Iterable[int]) -> bool:
        sel = frozenset(s)
        deepest = max(sel, default=0)  # ids are layer-major
        return all(self.comparable(e, deepest) for e in sel)


@dataclass(frozen=True)
class PartitionOneBlockOracle:
    """Downward-closed: any subset of a single partition block."""

    kind = "partition_one_block"
    blocks: tuple[tuple[int, ...], ...]
    downward_closed = True

    def __post_init__(self):
        ids = [e for b in self.blocks for e in b]
        n = len(ids)
        if sorted(ids) != list(range(n)):
            raise ValueError("blocks must partition a dense id range")
        block_of = {}
        for bi, b in enumerate(self.blocks):
            for e in b:
                block_of[e] = bi
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_block_of", block_of)

    def start(self) -> int:
        return -1  # no block chosen

    def step(self, block: int, e: int) -> tuple[int | None, int]:
        b = self._block_of[e]
        return b if block < 0 or b == block else None, block

    def successors(self, states: list[int], e: int) -> tuple[list[int | None], list[int]]:
        b = self._block_of[e]
        return [b if s < 0 or s == b else None for s in states], list(states)

    can_extend = _replay_can_extend

    def is_feasible(self, s: Iterable[int]) -> bool:
        return len({self._block_of[e] for e in frozenset(s)}) <= 1


@dataclass(frozen=True)
class PairMatchOracle(_FamilyState):
    """Feasible sets are exactly the pairs {i, i+k}; not downward-closed."""

    kind = "pair_match"
    k: int
    downward_closed = False

    def __post_init__(self):
        object.__setattr__(self, "n", 2 * self.k)
        # member i is {i, i+k}
        object.__setattr__(self, "_all", (1 << self.k) - 1)
        object.__setattr__(self, "_inc", tuple(1 << (e % self.k) for e in range(self.n)))

    can_extend = _replay_can_extend

    def is_feasible(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return any(s == {i, i + self.k} for i in range(self.k))


@dataclass(frozen=True)
class NestedPhaseOracle(_FamilyState):
    """Feasible sets are exactly V_i | {b_j} | f_i(j): a subset of A encoding
    the index i, exactly one B element, and the completion f_i(j) inside U_i.

    f_i encodes j in binary over U_i's elements in ascending id order, which
    requires 2**|U_i| >= |B| for injectivity.
    """

    kind = "nested_phase"
    a_ids: tuple[int, ...]
    b_ids: tuple[int, ...]
    c_ids: tuple[int, ...]
    u_sets: tuple[frozenset[int], ...]
    downward_closed = False

    def __post_init__(self):
        k1 = len(self.a_ids)
        if k1 > NESTED_MAX_K1:
            raise TooLarge(f"A-part capped at {NESTED_MAX_K1} elements")
        if len(self.u_sets) != 2 ** k1:
            raise ValueError("need one U set per subset of A")
        if not self.b_ids:
            raise ValueError("B-part needs at least one element")
        n = len(self.a_ids) + len(self.b_ids) + len(self.c_ids)
        if sorted([*self.a_ids, *self.b_ids, *self.c_ids]) != list(range(n)):
            raise ValueError("A, B, C must partition a dense id range")
        cset = set(self.c_ids)
        k2 = len(self.b_ids)
        for u in self.u_sets:
            if not u <= cset:
                raise ValueError("every U set must lie inside C")
            if 2 ** len(u) < k2:
                raise EncodingOverflow(
                    f"|U|={len(u)} cannot injectively encode {k2} completions")
        u_sorted = tuple(tuple(sorted(u)) for u in self.u_sets)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_u_sorted", u_sorted)
        # member (i, j) = V_i | {b_j} | f_i(j) is bit i*k2 + j, so row i of
        # the members is the k2-bit block at i*k2. Each element's mask is
        # spelled in binary, highest row first, and parsed once: parsing is
        # linear, where OR-ing row by row into a growing int is quadratic
        rows = len(u_sorted)
        zeros = "0" * k2
        inc = [0] * n
        first_of_rows = _from_bits(("0" * (k2 - 1) + "1") * rows)
        for j, b in enumerate(self.b_ids):
            inc[b] = first_of_rows << j
        for t, a in enumerate(self.a_ids):
            # the rows i with bit t set come in runs of 2**t
            run = 2 ** t
            inc[a] = _from_bits(("1" * k2 * run + zeros * run) * (rows // (2 * run)))
        # f_i(j) holds the t-th element of U_i exactly for the j with bit t set
        pattern = ["".join("01"[j >> t & 1] for j in reversed(range(k2)))
                   for t in range(max(map(len, u_sorted)))]
        spelled = {c: [zeros] * rows for c in self.c_ids}
        for i, u in enumerate(u_sorted):
            for t, c in enumerate(u):
                spelled[c][rows - 1 - i] = pattern[t]
        for c, row_bits in spelled.items():
            inc[c] = _from_bits("".join(row_bits))
        object.__setattr__(self, "_all", (1 << (len(u_sorted) * k2)) - 1)
        object.__setattr__(self, "_inc", tuple(inc))

    def v_set(self, i: int) -> frozenset[int]:
        return frozenset(self.a_ids[t] for t in range(len(self.a_ids)) if (i >> t) & 1)

    def completion(self, i: int, j: int) -> frozenset[int]:
        """f_i(j): binary encoding of j over U_i in ascending id order."""
        u = self._u_sorted[i]
        return frozenset(u[t] for t in range(len(u)) if (j >> t) & 1)

    can_extend = _replay_can_extend

    def is_feasible(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        i = 0
        for t, a in enumerate(self.a_ids):
            if a in s:
                i |= 1 << t
        bs = [j for j, b in enumerate(self.b_ids) if b in s]
        if len(bs) != 1:
            return False
        sc = s - set(self.a_ids) - set(self.b_ids)
        return sc == self.completion(i, bs[0])


def _from_bits(text: str) -> int:
    """The int spelled by a binary string, most significant bit first;
    ``int(text, 2)`` takes time linear in its length."""
    return int(text, 2) if text else 0


def materialize(oracle) -> tuple[frozenset[int], ...]:
    """Enumerate the full family by brute force; test-scale only."""
    n = oracle.n
    if n > MATERIALIZE_MAX_ELEMENTS:
        raise TooLarge(f"materialization capped at {MATERIALIZE_MAX_ELEMENTS} elements")
    out = []
    for mask in range(1 << n):
        s = frozenset(e for e in range(n) if (mask >> e) & 1)
        if oracle.is_feasible(s):
            out.append(s)
    return tuple(out)


# --- serialization ----------------------------------------------------------

def oracle_to_json(oracle) -> dict:
    if isinstance(oracle, ExplicitFamilyOracle):
        params = {"n": oracle.n, "sets": sorted(sorted(s) for s in oracle.sets)}
    elif isinstance(oracle, KUniformOracle):
        params = {"n": oracle.n, "k": oracle.k}
    elif isinstance(oracle, TreePathOracle):
        params = {"k": oracle.k}
    elif isinstance(oracle, PartitionOneBlockOracle):
        params = {"blocks": [list(b) for b in oracle.blocks]}
    elif isinstance(oracle, PairMatchOracle):
        params = {"k": oracle.k}
    elif isinstance(oracle, NestedPhaseOracle):
        params = {"a": list(oracle.a_ids), "b": list(oracle.b_ids),
                  "c": list(oracle.c_ids),
                  "u_sets": [sorted(u) for u in oracle.u_sets]}
    else:
        raise WrongKind(f"cannot serialize oracle {oracle!r}")
    return {"kind": oracle.kind, "params": params}


def _ints(*xs) -> tuple[int, ...]:
    """Counts and ids read from a file: ints, never floats or bools."""
    try:
        if bool in map(type, xs):
            raise TypeError
        return tuple(map(operator.index, xs))  # takes NumPy integers, but no float
    except TypeError:
        raise ValueError("counts and ids must be integers") from None


def oracle_from_json(doc: dict):
    kind, p = doc["kind"], doc["params"]
    if kind == "explicit_family":
        return ExplicitFamilyOracle(*_ints(p["n"]),
                                    sets=tuple(frozenset(_ints(*s)) for s in p["sets"]))
    if kind == "k_uniform":
        return KUniformOracle(*_ints(p["n"], p["k"]))
    if kind == "tree_path":
        return TreePathOracle(*_ints(p["k"]))
    if kind == "partition_one_block":
        return PartitionOneBlockOracle(blocks=tuple(_ints(*b) for b in p["blocks"]))
    if kind == "pair_match":
        return PairMatchOracle(*_ints(p["k"]))
    if kind == "nested_phase":
        return NestedPhaseOracle(a_ids=_ints(*p["a"]), b_ids=_ints(*p["b"]),
                                 c_ids=_ints(*p["c"]),
                                 u_sets=tuple(frozenset(_ints(*u)) for u in p["u_sets"]))
    raise WrongKind(f"unknown oracle kind {kind!r}")
