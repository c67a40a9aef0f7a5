"""Builders for every benchmark instance and arrival-order distribution.

Constructions are deterministic functions of (parameters, seed); randomized
ones draw from the counter-based stream in :mod:`ocrlab.core` so that each
(seed, trial) cell is reproducible in isolation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (STREAM_ORDER, ArrivalOrder, FiniteOrderDistribution, Instance,
                   ValueDistribution, cell_draws, trial_rng)
from .errors import ExhaustedAttempts, TooLarge
from .feasibility import (ELEMENT_CAP, NESTED_MAX_K1, KUniformOracle, NestedPhaseOracle,
                          PairMatchOracle, PartitionOneBlockOracle, TreePathOracle,
                          tree_layout)
from .policies import Knowledge


def _check_cap(n: int) -> None:
    if n > ELEMENT_CAP:
        raise TooLarge(f"construction needs {n} elements, cap is {ELEMENT_CAP}")


# --- rooted-tree instance ----------------------------------------------------

def tree_prior(k: int) -> ValueDistribution:
    """Every tree element's value: Bernoulli(1/k) on {0, 1}."""
    return ValueDistribution.bernoulli(1.0 / k)


def build_tree_instance(k: int) -> Instance:
    """One element per string of length 1..k over a k-letter alphabet, all
    values ``tree_prior(k)``, feasible sets = subsets of a root-leaf path."""
    oracle = TreePathOracle(k=k)  # checks k and the element cap before the layout
    n = oracle.n
    dist = tree_prior(k)
    return Instance(
        name=f"tree-k{k}",
        dists=tuple(dist for _ in range(n)),
        feasibility=oracle,
        metadata={"construction": "tree", "k": str(k), "n": str(n)},
    )


def tree_r_node_count(k: int) -> int:
    """Nodes with an r-subset, 1 + k + ... + k**(k-3): the root in row 0 and
    node e of layers 1..k-3 in row e + 1; entry [i, j] is child id i*k + j."""
    return (k ** (k - 2) - 1) // (k - 1)


def _sample_tree_raw(k: int, seed: int, trials: Sequence[int]) -> np.ndarray:
    """The random part of the order draw for each of ``trials``: entry
    [t, i] marks the size-k/2 subset r of the node in row i (see
    ``tree_r_node_count``), as a bool row over its k children."""
    nodes = tree_r_node_count(k)
    u = np.empty((len(trials), nodes * k))
    for _ in cell_draws(seed, trials, STREAM_ORDER, u):
        pass  # each trial's uniforms land in its row of u
    u = u.reshape(len(trials), nodes, k)
    # one uniform row per node; the first k/2 of its argsort form a uniform
    # subset, and a child's rank in that argsort tells whether it is in it
    first = np.argsort(u, axis=-1)
    return first.argsort(axis=-1) < k // 2


def tree_good_layers(k: int, in_r: np.ndarray) -> list[np.ndarray]:
    """Good labels of layers 1..k from r-subsets shaped (..., nodes, k), as
    arrays shaped (..., k**layer): a node is good when its parent is good
    (the root is) and, down to layer k-2, it lies in its parent's r-subset;
    the two deepest layers inherit their parent's label."""
    batch = in_r.shape[:-2]
    member = in_r.reshape(batch + (in_r.shape[-2] * k,))  # by element id
    offs = tree_layout(k).offsets
    good = np.ones(batch + (1,), dtype=bool)
    layers = []
    for layer in range(1, k + 1):
        good = np.repeat(good, k, axis=-1)
        if layer <= k - 2:
            good &= member[..., offs[layer - 1]: offs[layer]]
        layers.append(good)
    return layers


def _expand_tree_order(k: int, r_row) -> list[int]:
    """The arrival order of the tree whose node (layer, idx) has the
    r-subset ``r_row(layer, idx)``, a bool row over its k children (the
    root is (0, 0)). Good subtrees arrive top-down (children first, then
    each child's subtree); bad subtrees arrive bottom-up (deepest layer
    first). The two deepest layers use the terminal rule: children, then
    each child's remaining subtree bottom-up."""
    layout = tree_layout(k)
    offs = layout.offsets
    order: list[int] = []

    def bottom_up(layer: int, idx: int) -> None:
        # all strict descendants of (layer, idx), deepest first, lexicographic
        for depth in range(k, layer, -1):
            order.extend(range(*layout.block(depth, offs[layer - 1] + idx)))

    def top_down(layer: int, idx: int) -> None:
        child_start = offs[layer] + idx * k
        order.extend(range(child_start, child_start + k))
        if layer == k - 2:
            for j in range(k):
                bottom_up(layer + 1, idx * k + j)
            return
        r = r_row(layer, idx)
        for j in range(k):
            if r[j]:
                top_down(layer + 1, idx * k + j)
            else:
                bottom_up(layer + 1, idx * k + j)

    top_down(0, 0)
    return order


@functools.lru_cache(maxsize=None)
def tree_arrival_positions(k: int) -> np.ndarray:
    """Position table POS, shaped (n, k-1): element e arrives at POS[e, D],
    where D is the layer of e's deepest good strict ancestor, capped at k-2.

    Every subtree the expansion emits has a size fixed by its layer, so e's
    place depends on D only. Column D is the order expanded with every node
    down to layer D good and every node below it bad. Below layer k-2 both
    layouts are the same, hence the cap. Entries with D >= e's layer are -1.
    Read-only; cached per k.
    """
    layout = tree_layout(k)
    n = layout.offsets[-1]
    pos = np.empty((n, k - 1), dtype=np.int16 if n < 2 ** 15 else np.int32)
    good, bad = [True] * k, [False] * k
    for d in range(k - 1):
        order = _expand_tree_order(k, lambda layer, idx: good if layer < d else bad)
        pos[order, d] = np.arange(n)
    pos[np.array(layout.layer)[:, None] <= np.arange(k - 1)] = -1
    pos.setflags(write=False)
    return pos


def sample_tree_order(instance: Instance, seed: int, trial: int) -> Knowledge:
    """One draw of the tree order distribution, as the aware policies'
    ``Knowledge``: draw the r-subsets, label every element good or bad
    (``tree_good_layers``), and expand the arrival order
    (``_expand_tree_order``). The expansion reads the r-subsets of good
    nodes only, and there they equal the children's labels."""
    k = instance.feasibility.k
    layers = tree_good_layers(k, _sample_tree_raw(k, seed, [trial])[0])
    order = _expand_tree_order(k, lambda layer, idx: layers[layer][idx * k: idx * k + k])
    return Knowledge(tuple(order), np.concatenate(layers))


# --- random set family (nested-phase completion sets) ------------------------

# the draws ``build_u_family`` makes before it gives up
U_FAMILY_ATTEMPTS = 100


@dataclass(frozen=True)
class UFamily:
    n: int
    alpha: int
    sets: tuple[frozenset[int], ...]
    attempts: int = 1


@dataclass(frozen=True)
class UFamilyReport:
    size_ok: bool
    membership_ok: bool
    intersection_ok: bool
    witnesses: dict[str, tuple]

    @property
    def all_ok(self) -> bool:
        return self.size_ok and self.membership_ok and self.intersection_ok


def verify_u_family(family: UFamily, k3: int) -> UFamilyReport:
    """Check the three family properties over a k3-element ground set:
    per-set size in [log2 n, (2a+1) log2 n], per-element membership at most
    2(a+1) 2^k1 log2(n)/k3, and pairwise intersections at most a."""
    n, alpha, sets = family.n, family.alpha, family.sets
    log_n = math.log2(n)
    lo, hi = log_n, (2 * alpha + 1) * log_n
    witnesses: dict[str, tuple] = {}

    size_ok = True
    for i, u in enumerate(sets):
        if not (lo <= len(u) <= hi):
            size_ok = False
            witnesses["size"] = (i, len(u))
            break

    member_cap = 2 * (alpha + 1) * len(sets) * log_n / k3
    membership_ok = True
    counts = np.zeros(k3, dtype=np.int64)
    for u in sets:
        for e in u:
            counts[e] += 1
    bad = np.flatnonzero(counts > member_cap)
    if bad.size:
        membership_ok = False
        witnesses["membership"] = (int(bad[0]), int(counts[bad[0]]))

    intersection_ok = True
    for i1, i2 in itertools.combinations(range(len(sets)), 2):
        inter = len(sets[i1] & sets[i2])
        if inter > alpha:
            intersection_ok = False
            witnesses["intersection"] = (i1, i2, inter)
            break

    return UFamilyReport(size_ok, membership_ok, intersection_ok, witnesses)


def build_u_family(n: int, alpha: int, k1: int, k3: int, seed: int) -> UFamily:
    """Resample independent memberships until the three properties hold, for
    at most ``U_FAMILY_ATTEMPTS`` draws.

    The membership probability is (alpha+1)*log2(n)/k3. When that leaves
    [0, 1] (always at desk scale), each set is drawn instead as a uniform
    subset of size ceil(log2 n): the smallest size the lower bound admits,
    which keeps pairwise intersections in check. Sets must additionally be
    pairwise distinct so an arrival order identifies its index.
    """
    for name, size, least in (("n", n, 2), ("alpha", alpha, 0), ("k1", k1, 0),
                              ("k3", k3, 1)):
        if size < least:
            raise ValueError(f"{name} must be at least {least}, got {size}")
    num_sets = 2 ** k1
    if num_sets > 2 ** k3:
        raise ExhaustedAttempts(
            f"{num_sets} pairwise-distinct subsets of a {k3}-element ground set do not exist")
    p = (alpha + 1) * math.log2(n) / k3
    fixed_size = None
    if not (0.0 < p <= 1.0):
        fixed_size = min(k3, math.ceil(math.log2(n)))
        if num_sets > math.comb(k3, fixed_size):
            raise ExhaustedAttempts(
                f"{num_sets} pairwise-distinct {fixed_size}-subsets of a "
                f"{k3}-element ground set do not exist")
    for attempt in range(1, U_FAMILY_ATTEMPTS + 1):
        rng = trial_rng(seed, attempt, STREAM_ORDER)
        if fixed_size is None:
            member = rng.random((num_sets, k3)) < p
            sets = tuple(frozenset(np.flatnonzero(row).tolist()) for row in member)
        else:
            sets = tuple(
                frozenset(rng.choice(k3, size=fixed_size, replace=False).tolist())
                for _ in range(num_sets))
        family = UFamily(n=n, alpha=alpha, sets=sets, attempts=attempt)
        if len(set(sets)) == num_sets and verify_u_family(family, k3=k3).all_ok:
            return family
    raise ExhaustedAttempts(
        f"no valid family after {U_FAMILY_ATTEMPTS} attempts "
        f"(n={n}, k1={k1}, k3={k3}, alpha={alpha})")


# --- nested-phase instance ----------------------------------------------------

def build_nested_scaled(k1: int, k2: int, k3: int, u_size: int, q: float
                        ) -> tuple[Instance, FiniteOrderDistribution]:
    """The nested-phase instance at desk scale, with explicit part sizes: A
    (k1 elements worth 0), B (k2 worth Bernoulli(q)) and C (k3 worth 0).
    The 2**k1 U sets are consecutive size-``u_size`` slices of C, so a wrong
    Phase-1 guess leaves exactly one selectable B element; order i is A, C
    minus U_i, B, then U_i."""
    # refused before any of the 2**k1 U sets is built; the oracle checks the
    # sizes again, for loaded files
    for part, size, least in (("k1", k1, 0), ("k2", k2, 1), ("k3", k3, 0),
                              ("u_size", u_size, 0)):
        if size < least:
            raise ValueError(f"{part} must be at least {least}, got {size}")
    _check_cap(k1 + k2 + k3)
    if k1 > NESTED_MAX_K1:
        raise TooLarge(f"A-part of {k1} elements over the cap {NESTED_MAX_K1}")
    num_sets = 2 ** k1
    if num_sets * u_size > k3:
        raise TooLarge(f"{num_sets} disjoint size-{u_size} sets need "
                       f"k3 >= {num_sets * u_size}, got {k3}")
    if u_size < 1 < num_sets:
        raise ExhaustedAttempts("U sets must be pairwise distinct to make orders decodable")
    dists = tuple([ValueDistribution.deterministic(0.0)] * k1
                  + [ValueDistribution.bernoulli(q)] * k2
                  + [ValueDistribution.deterministic(0.0)] * k3)
    n = k1 + k2 + k3
    a_ids = tuple(range(k1))
    b_ids = tuple(range(k1, k1 + k2))
    c_ids = tuple(range(k1 + k2, n))
    u_sets = tuple(frozenset(c_ids[t] for t in range(i * u_size, (i + 1) * u_size))
                   for i in range(num_sets))
    oracle = NestedPhaseOracle(a_ids=a_ids, b_ids=b_ids, c_ids=c_ids, u_sets=u_sets)
    orders = [a_ids + tuple(sorted(set(c_ids) - u)) + b_ids + tuple(sorted(u))
              for u in u_sets]
    meta = {"construction": "nested", "k1": str(k1), "k2": str(k2), "k3": str(k3),
            "u_size": str(u_size), "q": repr(q), "scaled": "true",
            "non_asymptotic": "true"}
    inst = Instance(name=f"nested-scaled-{k1}-{k2}-{k3}", dists=dists,
                    feasibility=oracle, metadata=meta)
    return inst, FiniteOrderDistribution.uniform(orders)


# --- multi-unit (capacity k) instance ----------------------------------------

def multiunit_blocks(k: int) -> tuple[tuple[int, int, ValueDistribution], ...]:
    """The (first id, stop, prior) runs: k elements worth 7/4, k worth 1,
    and 2k worth 0 or 2 with equal odds."""
    return ((0, k, ValueDistribution.deterministic(1.75)),
            (k, 2 * k, ValueDistribution.deterministic(1.0)),
            (2 * k, 4 * k, ValueDistribution(((0.0, 0.5), (2.0, 0.5)))))


def multiunit_orders(k: int) -> tuple[ArrivalOrder, ArrivalOrder]:
    """(pi1, pi2): the 7/4 block first, then the unit block before (pi1) or
    after (pi2) the random block."""
    a, b, c = (tuple(range(first, stop)) for first, stop, _ in multiunit_blocks(k))
    return a + b + c, a + c + b


def build_multiunit_instance(k: int) -> tuple[Instance, FiniteOrderDistribution]:
    """The ``multiunit_blocks`` under a capacity-k constraint, with the two
    ``multiunit_orders`` equally likely."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 4 * k
    _check_cap(n)
    dists = tuple(d for first, stop, d in multiunit_blocks(k) for _ in range(first, stop))
    inst = Instance(
        name=f"multiunit-k{k}",
        dists=dists,
        feasibility=KUniformOracle(n=n, k=k),
        metadata={"construction": "multiunit", "k": str(k), "n": str(n)},
    )
    return inst, FiniteOrderDistribution.uniform(multiunit_orders(k))


# --- calibration examples -----------------------------------------------------

def build_partition_scaled(blocks: int, block_size: int, p: float) -> Instance:
    """``blocks`` blocks of ``block_size`` elements, each worth 1 with
    probability p; the feasible sets are the subsets of one block."""
    n = blocks * block_size
    _check_cap(n)
    dist = ValueDistribution.bernoulli(p)
    block_ids = tuple(tuple(range(b * block_size, (b + 1) * block_size))
                      for b in range(blocks))
    return Instance(
        name=f"partition-{blocks}x{block_size}",
        dists=tuple(dist for _ in range(n)),
        feasibility=PartitionOneBlockOracle(blocks=block_ids),
        metadata={"construction": "partition", "blocks": str(blocks),
                  "block_size": str(block_size), "p": repr(p)},
    )


def build_pairs_instance(k: int) -> tuple[Instance, FiniteOrderDistribution]:
    """n = 2k elements, feasible sets exactly {i, i+k}; the first k are worth
    0, the rest 1 with probability 1/n. Canonical order 0..n-1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 2 * k
    _check_cap(n)
    dists = tuple([ValueDistribution.deterministic(0.0)] * k
                  + [ValueDistribution.bernoulli(1.0 / n)] * k)
    inst = Instance(
        name=f"pairs-k{k}",
        dists=dists,
        feasibility=PairMatchOracle(k=k),
        metadata={"construction": "pairs", "k": str(k), "n": str(n)},
    )
    return inst, FiniteOrderDistribution.uniform([tuple(range(n))])
