"""Range and k-nearest-neighbor queries over GNAT-family trees.

Two search disciplines share the same trees and tables:

* the multi-pivot discipline tries pivots one at a time inside a node,
  eliminating not-yet-tried centers whose table interval misses the query
  ball, until every surviving center has been tried;
* the nearest-pivot discipline measures every center of a node, then
  prunes children using only the table row of the center nearest to the
  query.  Cheaper bookkeeping, usually more distance evaluations.

k-NN is a range search with a shrinking radius: a size-k max-heap of the
best candidates supplies the current radius, and children are entered in
ascending order of their lower-bound distance so the radius shrinks fast.
Range queries use a fixed radius, so their node visits skip the radius
re-checks and child ordering (the visit order cannot change a range
result or any counter).  Both query kinds are exact for every tree
variant.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .metrics import MetricSpace
from .tree import Bucket, GnatTree


@dataclass(frozen=True)
class RangeQuery:
    obj: object
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")


@dataclass
class QueryStats:
    """Result set plus work counters for one query execution."""

    results: set[int] = field(default_factory=set)
    distance_evals: int = 0
    nodes_visited: int = 0
    entries_inspected: int = 0


def prune_check(e: float, r: float, lo: float, hi: float) -> bool:
    """True when a child with table interval [lo, hi] can be eliminated,
    i.e. the closed intervals [e - r, e + r] and [lo, hi] do not intersect."""
    return e - r > hi or e + r < lo


def _scan_bucket(bucket, q, objs, dist, r, results, stats) -> None:
    ids = bucket.object_ids
    if not ids:
        return
    stats.nodes_visited += 1
    stats.distance_evals += len(ids)
    for oid in ids:
        if dist(q, objs[oid]) <= r:
            results.add(oid)


def _gnat_range_visit(node, q, objs, dist, r, results, stats) -> None:
    """Multi-pivot node visit with a fixed radius.

    Each center is untried (status 0), tried (1) or eliminated (2); a
    center is tried at most once and never eliminated after being tried.
    lower[pos] is the best known lower bound on the distance from the
    query to anything stored under that center, accumulated from the
    tried pivots' rows.  Pivots come from the node's measuring set (every
    center, unless the tree was built with reduced tables).  The next
    pivot is the untried, uneliminated one with the smallest accumulated
    lower bound, lowest position first on ties.  Centers outside the
    measuring set cannot be tried as pivots; survivors among them are
    measured directly at the end.  Children of eliminated centers are
    skipped.
    """
    stats.nodes_visited += 1
    centers = node.centers
    m = len(centers)
    lo_rows, hi_rows = node.table.decoded_bounds()
    measuring = node.measuring_set
    status = [0] * m
    lower = [0.0] * m
    evals = 0
    inspected = 0

    while True:
        best_pos = -1
        best_row = -1
        best_lb = math.inf
        for row, pos in enumerate(measuring):
            if status[pos] == 0 and lower[pos] < best_lb:
                best_lb = lower[pos]
                best_pos = pos
                best_row = row
        if best_pos < 0:
            break
        evals += 1
        e = dist(q, objs[centers[best_pos]])
        status[best_pos] = 1
        if e <= r:
            results.add(centers[best_pos])
        lo_row = lo_rows[best_row]
        hi_row = hi_rows[best_row]
        e_hi = e - r                      # eliminate when e - r > hi
        e_lo = e + r                      # eliminate when e + r < lo
        for j in range(m):
            if status[j] != 0:
                continue
            inspected += 1
            hi = hi_row[j]
            lo = lo_row[j]
            if e_hi > hi or e_lo < lo:
                status[j] = 2
                continue
            gap = e - hi if e - hi > lo - e else lo - e
            if gap > lower[j]:
                lower[j] = gap

    if len(measuring) != m:
        # reduced tables: centers without a table row are never pivots;
        # survivors among them are reported by direct measurement
        for pos in range(m):
            if status[pos] == 0:
                evals += 1
                status[pos] = 1
                if dist(q, objs[centers[pos]]) <= r:
                    results.add(centers[pos])

    stats.distance_evals += evals
    stats.entries_inspected += inspected
    children = node.children
    for pos in range(m):
        if status[pos] == 1:
            child = children[pos]
            if type(child) is Bucket:
                _scan_bucket(child, q, objs, dist, r, results, stats)
            else:
                _gnat_range_visit(child, q, objs, dist, r, results, stats)


def _egnat_range_visit(node, q, objs, dist, r, results, stats) -> None:
    """Nearest-pivot node visit: measure every center, then prune children
    with the single table row of the nearest measured pivot (nearest among
    the measuring set when tables are reduced; ties to the lowest
    position)."""
    stats.nodes_visited += 1
    centers = node.centers
    m = len(centers)
    measured = [dist(q, objs[c]) for c in centers]
    stats.distance_evals += m
    for pos in range(m):
        if measured[pos] <= r:
            results.add(centers[pos])
    measuring = node.measuring_set
    best_row = 0
    best_e = measured[measuring[0]]
    for row, pos in enumerate(measuring):
        if measured[pos] < best_e:
            best_e = measured[pos]
            best_row = row
    lo_rows, hi_rows = node.table.decoded_bounds()
    lo_row = lo_rows[best_row]
    hi_row = hi_rows[best_row]
    e_hi = best_e - r
    e_lo = best_e + r
    stats.entries_inspected += m
    children = node.children
    for j in range(m):
        if e_hi > hi_row[j] or e_lo < lo_row[j]:
            continue
        child = children[j]
        if type(child) is Bucket:
            _scan_bucket(child, q, objs, dist, r, results, stats)
        else:
            _egnat_range_visit(child, q, objs, dist, r, results, stats)


def _range_search(tree: GnatTree, query: RangeQuery, metric: MetricSpace, visit) -> QueryStats:
    stats = QueryStats()
    if type(tree.root) is Bucket:
        visit = _scan_bucket
    visit(tree.root, query.obj, tree.dataset.objects, metric.distance, query.radius,
          stats.results, stats)
    return stats


def gnat_range_search(tree: GnatTree, query: RangeQuery, metric: MetricSpace) -> QueryStats:
    """Exact range query with multi-pivot pruning."""
    return _range_search(tree, query, metric, _gnat_range_visit)


def egnat_range_search(tree: GnatTree, query: RangeQuery, metric: MetricSpace) -> QueryStats:
    """Exact range query with nearest-pivot pruning."""
    return _range_search(tree, query, metric, _egnat_range_visit)


class _KnnHeap:
    """Size-k max-heap of the best (distance, id) pairs; the current k-th
    best distance is the effective search radius (infinite until full).
    Ties at equal distance keep the lower object id."""

    __slots__ = ("k", "heap")

    def __init__(self, k: int):
        self.k = k
        self.heap: list[tuple[float, int]] = []  # (-distance, -oid)

    def offer(self, oid: int, d: float) -> None:
        item = (-d, -oid)
        if len(self.heap) < self.k:
            heapq.heappush(self.heap, item)
        elif item > self.heap[0]:
            heapq.heapreplace(self.heap, item)

    def radius(self) -> float:
        return -self.heap[0][0] if len(self.heap) == self.k else math.inf

    def ranked(self) -> list[tuple[int, float]]:
        ordered = sorted((-d, -oid) for d, oid in self.heap)
        return [(oid, d) for d, oid in ordered]


def _knn_scan_bucket(bucket, q, objs, dist, best, stats) -> None:
    if not bucket.object_ids:
        return
    stats.nodes_visited += 1
    for oid in bucket.object_ids:
        stats.distance_evals += 1
        best.offer(oid, dist(q, objs[oid]))


def _gnat_knn_visit(node, q, objs, dist, best, stats) -> None:
    """Multi-pivot visit under a shrinking radius.

    Same pivot policy as the range visit, re-reading the heap radius at
    every decision point; children of surviving centers are entered in
    ascending order of their accumulated lower bound and re-checked
    against the radius on entry.
    """
    if type(node) is Bucket:
        _knn_scan_bucket(node, q, objs, dist, best, stats)
        return
    stats.nodes_visited += 1
    centers = node.centers
    m = len(centers)
    lo_rows, hi_rows = node.table.decoded_bounds()
    measuring = node.measuring_set
    status = [0] * m
    lower = [0.0] * m

    while True:
        r = best.radius()
        best_pos = -1
        best_row = -1
        best_lb = math.inf
        for row, pos in enumerate(measuring):
            if status[pos] != 0:
                continue
            lb = lower[pos]
            if lb > r:
                # the radius shrank since this bound was accumulated
                status[pos] = 2
                continue
            if lb < best_lb:
                best_lb = lb
                best_pos = pos
                best_row = row
        if best_pos < 0:
            break
        stats.distance_evals += 1
        e = dist(q, objs[centers[best_pos]])
        status[best_pos] = 1
        best.offer(centers[best_pos], e)
        r = best.radius()
        lo_row = lo_rows[best_row]
        hi_row = hi_rows[best_row]
        for j in range(m):
            if status[j] != 0:
                continue
            stats.entries_inspected += 1
            lo = lo_row[j]
            hi = hi_row[j]
            if e - r > hi or e + r < lo:
                status[j] = 2
                continue
            gap = e - hi if e - hi > lo - e else lo - e
            if gap > lower[j]:
                lower[j] = gap

    if len(measuring) != m:
        for pos in range(m):
            if status[pos] != 0:
                continue
            if lower[pos] > best.radius():
                status[pos] = 2
                continue
            stats.distance_evals += 1
            e = dist(q, objs[centers[pos]])
            status[pos] = 1
            best.offer(centers[pos], e)

    order = sorted((lower[pos], pos) for pos in range(m) if status[pos] == 1)
    for lb, pos in order:
        if lb > best.radius():
            continue
        _gnat_knn_visit(node.children[pos], q, objs, dist, best, stats)


def _egnat_knn_visit(node, q, objs, dist, best, stats) -> None:
    """Nearest-pivot visit under a shrinking radius."""
    if type(node) is Bucket:
        _knn_scan_bucket(node, q, objs, dist, best, stats)
        return
    stats.nodes_visited += 1
    centers = node.centers
    m = len(centers)
    measured = []
    for pos in range(m):
        stats.distance_evals += 1
        e = dist(q, objs[centers[pos]])
        best.offer(centers[pos], e)
        measured.append(e)
    measuring = node.measuring_set
    best_row = 0
    best_e = measured[measuring[0]]
    for row, pos in enumerate(measuring):
        if measured[pos] < best_e:
            best_e = measured[pos]
            best_row = row
    lo_rows, hi_rows = node.table.decoded_bounds()
    lo_row = lo_rows[best_row]
    hi_row = hi_rows[best_row]
    r = best.radius()
    survivors = []
    for j in range(m):
        stats.entries_inspected += 1
        lo = lo_row[j]
        hi = hi_row[j]
        if best_e - r > hi or best_e + r < lo:
            continue
        gap = best_e - hi if best_e - hi > lo - best_e else lo - best_e
        survivors.append((gap if gap > 0.0 else 0.0, j))
    survivors.sort()
    for lb, j in survivors:
        if lb > best.radius():
            continue
        _egnat_knn_visit(node.children[j], q, objs, dist, best, stats)


def knn_search(tree: GnatTree, obj, k: int, metric: MetricSpace,
               mode: str = "gnat") -> tuple[list[tuple[int, float]], QueryStats]:
    """The k nearest objects to obj, ascending by (distance, object id).

    Returns the ranked list and the stats of the underlying shrinking-
    radius range search.
    """
    if not 1 <= k <= tree.size:
        raise ConfigError(f"k must be in [1, {tree.size}], got {k}")
    if mode not in ("gnat", "egnat"):
        raise ConfigError(f"unknown search mode {mode!r}")
    stats = QueryStats()
    best = _KnnHeap(k)
    visit = _gnat_knn_visit if mode == "gnat" else _egnat_knn_visit
    visit(tree.root, obj, tree.dataset.objects, metric.distance, best, stats)
    ranked = best.ranked()
    stats.results = {oid for oid, _ in ranked}
    return ranked, stats
