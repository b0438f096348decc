"""GNAT-family index construction.

A tree node holds a set of pivot objects (centers), one child per center,
and a distance range table: entry (i, j) is the [min, max] of distances
from measuring pivot i to everything stored under child j, child center
included.  Queries later intersect the query ball with these intervals to
prune whole subtrees.

Construction offers two partitioning rules (nearest-center hyperplane
cells, or greedy balls of controlled capacity), constant or size-dependent
arities, optional fixed-point table compression, and optional reduced
tables that keep rows only for a random subset of the centers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, rng_stream
from .errors import ConfigError
from .fixedpoint import FixedPointParams, decoded_floats, encode_interval
from .metrics import DistanceCounter, MetricSpace


@dataclass(frozen=True)
class ConstantArity:
    """Every internal node gets min(m, node object count) centers."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"constant arity must be >= 2, got {self.m}")


@dataclass(frozen=True)
class PowerArity:
    """Node with n objects gets about n**alpha centers; alpha = 1 degenerates
    to a single flat node (every object a center), alpha near 0 to a binary
    hyperplane tree."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")


ArityPolicy = ConstantArity | PowerArity

PARTITIONS = ("hyperplane", "ball")


@dataclass(frozen=True)
class BuildConfig:
    arity: ArityPolicy
    partition: str = "hyperplane"  # "hyperplane" | "ball"
    gamma: float = 0.9             # ball capacity exponent, ball partition only
    bucket_size: int = 0           # 0 = build the whole way down
    reduce_factor: float = 1.0     # rows kept = ceil(centers / reduce_factor)
    fixed_point: FixedPointParams | None = None
    seed: int = 0

    def __post_init__(self):
        if self.partition not in PARTITIONS:
            raise ConfigError(f"unknown partition {self.partition!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not self.bucket_size >= 0:
            raise ConfigError(f"bucket_size must be >= 0, got {self.bucket_size}")
        if not self.reduce_factor >= 1.0:
            raise ConfigError(f"reduce_factor must be >= 1, got {self.reduce_factor}")


class RangeTable:
    """Interval matrix indexed (measuring pivot row, child column).

    Exact tables store float64 bounds; fixed-point tables store uint16
    codes plus the codec params.  An upper code of max_code decodes to
    +inf, which disables upper-bound pruning for that entry but keeps
    every query exact.
    """

    __slots__ = ("lo", "hi", "fixed_point", "_decoded")

    def __init__(self, lo: np.ndarray, hi: np.ndarray,
                 fixed_point: FixedPointParams | None = None):
        self.lo = lo
        self.hi = hi
        self.fixed_point = fixed_point
        self._decoded = None

    @property
    def entry_count(self) -> int:
        return self.lo.shape[0] * self.lo.shape[1]

    @property
    def value_bytes(self) -> float:
        """Accounting width of one stored bound: 4-byte floats, or b/8."""
        return 4.0 if self.fixed_point is None else self.fixed_point.value_bytes

    def decoded_bounds(self) -> tuple[list, list]:
        """Bounds as row lists of floats, decoding fixed-point codes once.

        The search records of gnatty.search hold these very lists."""
        if self._decoded is None:
            if self.fixed_point is None:
                self._decoded = (self.lo.tolist(), self.hi.tolist())
            else:
                # every entry is one of the 2**b shared floats of its code
                lo = decoded_floats(self.fixed_point)[self.lo]
                hi = decoded_floats(self.fixed_point, upper=True)[self.hi]
                self._decoded = (lo.tolist(), hi.tolist())
        return self._decoded

    def __eq__(self, other):
        if not isinstance(other, RangeTable):
            return NotImplemented
        return (
            self.fixed_point == other.fixed_point
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )


@dataclass
class Bucket:
    """Leaf holding raw object ids, scanned linearly at query time.

    Nodes are not modified once built: a tree's search records share
    their lists (see ``GnatTree.search_root``), and its fixed-point twin
    shares the buckets themselves (see ``with_fixed_point``)."""

    object_ids: list[int]


@dataclass
class GnatNode:
    """Internal node; like ``Bucket``, not modified once built."""

    centers: list[int]          # object ids, ascending
    table: RangeTable
    children: list              # GnatNode | Bucket, one per center
    measuring_set: list[int]    # center positions with a table row, ascending


@dataclass
class GnatTree:
    root: GnatNode | Bucket
    config: BuildConfig
    dataset: Dataset
    build_distance_evals: int = 0
    # gnatty.search's per-node records, built on the first query; a tree
    # is not modified after it is built
    search_root: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.dataset)


def arity_for(node_size: int, policy: ArityPolicy) -> int:
    """Center count for a node with node_size objects.

    Power arities round n**alpha to nearest and clamp to [2, n].  Only
    nodes with at least 2 objects get centers; build turns smaller
    ones into buckets.
    """
    if isinstance(policy, ConstantArity):
        return min(policy.m, node_size)
    return max(2, min(node_size, int(node_size**policy.alpha + 0.5)))


def select_pivots(object_ids, m: int, rng: np.random.Generator) -> list[int]:
    """m distinct object ids sampled uniformly without replacement.

    The sampled set is returned sorted ascending, which makes the lowest
    center position coincide with the lowest object id everywhere
    tie-breaking matters.  m is at most len(object_ids).
    """
    picked = rng.choice(len(object_ids), size=m, replace=False)
    return sorted(object_ids[i] for i in picked)


def node_distances(center_ids, positions, object_ids, dataset: Dataset,
                   metric: MetricSpace) -> np.ndarray:
    """The distances a node's range table is read from, one row per
    measuring center.

    Row i holds the distances from center positions[i] to every center,
    then to every object, in center_ids and object_ids order, measured in
    (pivot, object) argument order.  Its own entry is d(x, x) = 0, taken
    uncharged, so each row costs len(center_ids) - 1 + len(object_ids)
    evaluations.  The rows are one block, which, freed whole, leaves no
    holes in the heap.
    """
    objs = dataset.objects
    centers = list(map(objs.__getitem__, center_ids))
    points = list(map(objs.__getitem__, object_ids))
    block = np.empty((len(positions), len(centers) + len(points)))
    for row, pos in zip(block, positions):
        pivot = centers[pos]
        row[:pos] = metric.distances(pivot, centers[:pos])
        row[pos] = 0.0
        row[pos + 1:] = metric.distances(pivot, centers[pos + 1:] + points)
    return block


def hyperplane_partition(object_ids, center_ids, known, dataset: Dataset,
                         metric: MetricSpace) -> np.ndarray:
    """Assign every object to its nearest center (nearest-center cells).

    Ties go to the lowest center position.  known[pos] is center pos's
    distances to every object, in object_ids order, or None; only the
    centers without them are measured, one batched call each.  Returns the
    labels: labels[k] is the center position of object_ids[k]'s cell.
    """
    if not center_ids:
        raise ConfigError("hyperplane partition needs at least one center")
    objs = dataset.objects
    points = list(map(objs.__getitem__, object_ids))
    measured = np.empty((len(center_ids), len(points)))
    for pos, (cid, row) in enumerate(zip(center_ids, known)):
        measured[pos] = metric.distances(objs[cid], points) if row is None else row
    return measured.argmin(axis=0)  # the first minimum: the lowest position


def ball_capacity(object_count: int, m: int, gamma: float) -> int:
    """Per-ball capacity: ceil(object_count**gamma / m), at least 1."""
    return max(1, math.ceil(object_count**gamma / m))


def nearest_first(d: np.ndarray, ids, take: int) -> np.ndarray:
    """Positions of the take smallest (d[i], ids[i]) pairs, ascending by
    (distance, id): distance ties go to the lower id."""
    if take < len(d):
        kth = np.partition(d, take - 1)[take - 1]
        candidates = np.flatnonzero(d <= kth)
    else:
        candidates = np.arange(len(d))
    order = np.lexsort(([ids[c] for c in candidates.tolist()], d[candidates]))
    return candidates[order[:take]]


def ball_partition(object_ids, center_ids, gamma: float, known, dataset: Dataset,
                   metric: MetricSpace) -> np.ndarray:
    """Greedy balls: each center but the last takes its nearest unclaimed
    objects up to a fixed capacity; the last center takes the leftovers.

    Capacities use the initial object count, so gamma < 1 starves the
    early balls and funnels mass into the last child (an unbalanced,
    right-deep tree).  Ties at the ball boundary go to the lower object id.
    known[pos] is center pos's distances to every object, in object_ids
    order, or None; a center without them measures just the objects still
    unclaimed at its turn, and the last center measures nothing.  Returns
    the labels: labels[k] is the position of the center whose ball holds
    object_ids[k].
    """
    m = len(center_ids)
    if m == 0:
        raise ConfigError("ball partition needs at least one center")
    capacity = ball_capacity(len(object_ids), m, gamma)
    objs = dataset.objects
    ids = np.array(object_ids, dtype=np.intp)
    labels = np.full(len(ids), m - 1)
    unclaimed = np.arange(len(ids))  # positions in object_ids
    for pos in range(m - 1):
        if not len(unclaimed):
            break
        row = known[pos]
        if row is None:
            points = list(map(objs.__getitem__, ids[unclaimed].tolist()))
            d = np.array(metric.distances(objs[center_ids[pos]], points))
        else:
            d = row[unclaimed]
        taken = nearest_first(d, ids[unclaimed], min(capacity, len(unclaimed)))
        labels[unclaimed[taken]] = pos
        unclaimed = unclaimed[labels[unclaimed] == m - 1]
    return labels


def child_layout(labels: np.ndarray, center_ids, object_ids):
    """(order, starts, children) of one stable sort: order permutes the
    node_distances columns (centers, then objects) so that child j starts
    at starts[j] with its center, then its objects (labels[k] == j) in
    object_ids order; children[j] lists those objects' ids."""
    m = len(center_ids)
    order = np.argsort(np.concatenate((np.arange(m), labels)), kind="stable")
    starts = np.flatnonzero(order < m)
    laid = list(map((center_ids + object_ids).__getitem__, order.tolist()))
    ends = starts[1:].tolist() + [len(laid)]
    return order, starts, [laid[i + 1:e] for i, e in zip(starts.tolist(), ends)]


def compute_range_table(dist: np.ndarray, order: np.ndarray, starts: np.ndarray) -> RangeTable:
    """Exact [min, max] of distances from each measuring pivot to each
    child's objects, the child's center included.  Nothing is measured:
    each of the pivots' node_distances rows (dist) in turn is laid out by
    the node's child_layout (order, starts) and reduced per child."""
    lo = np.empty((len(dist), len(starts)))
    hi = np.empty_like(lo)
    for i, row in enumerate(dist):
        d = row[order]
        lo[i] = np.minimum.reduceat(d, starts)
        hi[i] = np.maximum.reduceat(d, starts)
    return RangeTable(lo, hi)


def encode_table(table: RangeTable, params: FixedPointParams) -> RangeTable:
    """Fixed-point twin of an exact table (lo rounded down, hi rounded up)."""
    if table.fixed_point is not None:
        raise ConfigError("table is already fixed-point encoded")
    lo_codes, hi_codes = encode_interval(table.lo, table.hi, params)
    return RangeTable(lo_codes.astype(np.uint16), hi_codes.astype(np.uint16), params)


def build(dataset: Dataset, metric: MetricSpace, config: BuildConfig) -> GnatTree:
    """Build a tree over the whole dataset.

    Splitting stops at a bucket once a node's object count drops to
    bucket_size (or to a single object when bucket_size is 0).  Every
    object ends up in exactly one place: a center of one internal node or
    a member of one bucket.  A fixed-point tree is the with_fixed_point
    twin of the exact tree of the same config.
    """
    if len(dataset) == 0:
        raise ConfigError("cannot build an index over an empty dataset")
    if config.fixed_point is not None:
        exact = build(dataset, metric, dataclasses.replace(config, fixed_point=None))
        return with_fixed_point(exact, config.fixed_point)
    counter = DistanceCounter(metric)
    pivot_rng = rng_stream(config.seed, "pivots")
    reduce_rng = rng_stream(config.seed, "reduce")
    root = _build_node(list(range(len(dataset))), dataset, counter, config,
                       pivot_rng, reduce_rng)
    return GnatTree(root, config, dataset, counter.count)


def _build_node(object_ids, dataset, metric, config, pivot_rng, reduce_rng):
    """The subtree over object_ids.

    An explicit stack visits nodes in the recursive pre-order (a node,
    then each child's subtree in turn), so the pivot and reduce draws
    come in the same sequence, and depth is not bounded by Python's
    recursion limit.
    """
    top = [None]
    stack = [(object_ids, top, 0)]
    while stack:
        object_ids, siblings, slot = stack.pop()
        if len(object_ids) <= max(1, config.bucket_size):
            siblings[slot] = Bucket(object_ids)
            continue
        m = arity_for(len(object_ids), config.arity)
        centers = select_pivots(object_ids, m, pivot_rng)
        center_set = set(centers)
        rest = [oid for oid in object_ids if oid not in center_set]
        if config.reduce_factor > 1.0:
            keep = math.ceil(m / config.reduce_factor)
            positions = sorted(reduce_rng.choice(m, size=keep, replace=False).tolist())
        else:
            positions = list(range(m))
        dist = node_distances(centers, positions, rest, dataset, metric)
        known = [None] * m
        for pos, row in zip(positions, dist):
            known[pos] = row[m:]
        if config.partition == "ball":
            labels = ball_partition(rest, centers, config.gamma, known, dataset, metric)
        else:
            labels = hyperplane_partition(rest, centers, known, dataset, metric)
        order, starts, children = child_layout(labels, centers, rest)
        table = compute_range_table(dist, order, starts)
        del dist, known  # the children need none of this node's distances
        node = GnatNode(centers, table, [None] * m, positions)
        siblings[slot] = node
        stack.extend((children[j], node.children, j) for j in reversed(range(m)))
    return top[0]


def with_fixed_point(tree: GnatTree, params: FixedPointParams) -> GnatTree:
    """Same tree shape with tables encoded in fixed point.

    Useful for paired comparisons: the twin differs only in table
    storage, never in structure.  Nodes are not modified once built, so
    the twin shares the tree's buckets, center lists and measuring sets;
    only the internal nodes and their tables are new.
    """
    if tree.config.fixed_point is not None:
        raise ConfigError("tree tables are already fixed-point encoded")
    twins = []
    # in reversed pre-order a node comes after its subtrees, and the twins
    # of its internal children are on top of twins, the first child's topmost
    for node in reversed(list(iter_nodes(tree.root))):
        children = [c if isinstance(c, Bucket) else twins.pop() for c in node.children]
        twins.append(GnatNode(node.centers, encode_table(node.table, params), children,
                              node.measuring_set))
    return GnatTree(twins.pop() if twins else tree.root,
                    dataclasses.replace(tree.config, fixed_point=params),
                    tree.dataset, tree.build_distance_evals)


def iter_nodes(root):
    """Pre-order iteration over internal nodes."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, GnatNode):
            yield node
            stack.extend(reversed(node.children))


def table_entry_count(tree: GnatTree) -> int:
    """Total range-table entries, the memory metric for all experiments."""
    return sum(node.table.entry_count for node in iter_nodes(tree.root))


def table_bytes(tree: GnatTree) -> float:
    """Table storage in bytes: entries x 2 bounds x codec value width."""
    return sum(node.table.entry_count * 2 * node.table.value_bytes
               for node in iter_nodes(tree.root))
