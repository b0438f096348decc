"""Range and k-nearest-neighbor queries over GNAT-family trees.

Two search disciplines share the same trees and tables:

* the multi-pivot discipline tries pivots one at a time inside a node,
  eliminating not-yet-tried centers whose table interval misses the query
  ball, until every surviving center has been tried; a tried pivot's own
  child is entered only when its own column, [0, covering radius], meets
  the query ball;
* the nearest-pivot discipline measures every center of a node, prunes
  children with the table row of the center nearest to the query, then
  tests each child that row admits against its own column, [0, covering
  radius], with the distance already measured to its center.  Cheaper
  bookkeeping, usually more distance evaluations.

k-NN is a range search with a shrinking radius: a size-k max-heap of the
best candidates supplies the current radius, and children are entered in
ascending order of their lower-bound distance so the radius shrinks fast.
Range queries use a fixed radius, so their node visits skip the radius
re-checks and child ordering (the visit order cannot change a range
result or any counter).  Both query kinds are exact for every tree
variant: every prune test carries the rounding margins K and T below.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from heapq import heapreplace
from itertools import repeat

from .datasets import finite_coordinates
from .errors import ConfigError
from .metrics import MetricSpace
from .tree import Bucket, GnatTree

# A distance that overflowed to inf is only known to exceed the largest
# float.  Pruning uses that float in its place, for measured distances and
# table lower bounds alike: the bounds then hold for the metric
# min(d, FLOAT_MAX), whose query balls contain those of d.
FLOAT_MAX = sys.float_info.max

# Rounding margin.  A computed Euclidean distance is within 2 ulps, a
# relative 4u (u = 2**-53), of the true one (edit distances are exact),
# and the scan compares computed distances.  Triangle bounds on rounded
# e = d(q, p) and [lo, hi] are therefore shrunk by a relative K = 8u,
# which also covers the rounding of the threshold arithmetic: an object
# is eliminated only when its computed distance is certain to exceed the
# radius.  Below the normal range the kernel's error is absolute, and a
# subnormal times KA rounds back to itself, so an absolute slack T, far
# above the kernel's error there and below half an ulp of any threshold
# above about 1e-305, joins K.  The margins are folded into per-pivot
# thresholds, so the per-entry tests are unchanged:
#   e - r > hi   becomes   e * KA - r - T > hi
#   e + r < lo   becomes   (e + r) * KB + T < lo
# and the k-NN lower bounds, which prune through lb > radius, become
# e * KA - T - hi and lo * KA - (e + T).  A sum that overflows to inf
# never prunes.
K = 8 * 2.0 ** -53
KA = (1 - K) / (1 + K)
KB = (1 + K) / (1 - K)
T = 2.0 ** -1066

DISCIPLINES = ("gnat", "egnat")  # knn_search's modes: multi-pivot, nearest-pivot


def _check_query(obj) -> None:
    """A vector query, like a vector dataset, must have finite coordinates."""
    if not finite_coordinates([obj]):
        raise ConfigError(f"query has a non-finite coordinate: {obj}")


@dataclass(frozen=True)
class RangeQuery:
    obj: object
    radius: float

    def __post_init__(self):
        if not self.radius >= 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")
        _check_query(self.obj)


@dataclass
class QueryStats:
    """Result set plus work counters for one query execution."""

    results: set[int] = field(default_factory=set)
    distance_evals: int = 0
    nodes_visited: int = 0
    entries_inspected: int = 0


def _search_root(tree: GnatTree):
    """The root entry of the tree's search records, built on its first
    query and cached on the tree.

    An internal node's record is the tuple (centers, measuring, lo_rows,
    hi_rows, children): the node's center ids and measuring set, its
    table's decoded_bounds() rows laid out by center position (lo_rows[pos]
    is the row of center pos, None for a center without one; the rows are
    the same lists, not copies, except that a lower-bound row holding inf
    is copied with inf made FLOAT_MAX), and one entry per child.  A child
    entry is None for an empty bucket, the id of a one-object bucket, the
    id list of a larger bucket, or the child's record.  Records are built
    by an explicit stack, so any depth works.
    """
    if tree.search_root is None:
        top = [None]
        stack = [(tree.root, top, 0)]
        while stack:
            node, parent, slot = stack.pop()
            if type(node) is Bucket:
                ids = node.object_ids
                parent[slot] = None if not ids else ids[0] if len(ids) == 1 else ids
                continue
            centers = node.centers
            m = len(centers)
            measuring = node.measuring_set
            children = [None] * m
            lo_rows, hi_rows = [None] * m, [None] * m
            for pos, lo_row, hi_row in zip(measuring, *node.table.decoded_bounds()):
                if math.inf in lo_row:
                    lo_row = [min(lo, FLOAT_MAX) for lo in lo_row]
                lo_rows[pos] = lo_row
                hi_rows[pos] = hi_row
            parent[slot] = (centers, measuring, lo_rows, hi_rows, children)
            stack += zip(node.children, repeat(children), range(m))
        tree.search_root = top[0]
    return tree.search_root


def _range_search(tree: GnatTree, query: RangeQuery, metric: MetricSpace,
                  egnat: bool) -> QueryStats:
    """Range query over the search records, one node per loop turn.

    Multi-pivot visit: a center is open until it is tried as a pivot or
    eliminated.  lower[pos] is the best known lower bound on the distance
    from the query to anything stored under center pos, accumulated from
    the tried pivots' rows.  The first pivot is the first measuring
    center.  After each pivot is measured, its own column (one entry,
    tested only when its child is not empty) decides whether its child is
    entered; since the column's lower bound is 0, only its upper bound,
    the child's covering radius, is tested.  A tried center is not tested
    again against later pivots' rows.  Then one walk over the open
    centers, in ascending position, eliminates those whose interval
    misses the query ball, raises the bounds of the rest, and picks the
    next pivot: the open measuring center with the smallest bound, the
    lowest position on ties.  Centers outside the measuring set are never
    pivots; survivors among them are measured directly at the end, and
    their children are entered.

    Nearest-pivot visit: measure every center, then prune with the table
    row of the nearest measuring center (lowest position on ties).  Each
    non-empty child that row admits is then tested against its own
    column, one entry, when its center has a row and is not the nearest
    one (the row has just tested that entry).

    A child goes on the stack as soon as it is known to be entered; the
    visit order cannot change a range result or any counter.
    """
    results = set()
    q, r = query.obj, query.radius
    objs, dist = tree.dataset.objects, metric.distance
    evals = visited = inspected = 0
    stack = [_search_root(tree)]
    while stack:
        node = stack.pop()
        visited += 1
        if type(node) is int:
            evals += 1
            if dist(q, objs[node]) <= r:
                results.add(node)
            continue
        if type(node) is list:
            evals += len(node)
            for oid in node:
                if dist(q, objs[oid]) <= r:
                    results.add(oid)
            continue
        centers, measuring, lo_rows, hi_rows, children = node
        m = len(centers)
        if egnat:
            evals += m
            inspected += m
            measured = []
            for c in centers:
                e = dist(q, objs[c])
                measured.append(e)
                if e <= r:
                    results.add(c)
            row = min(measuring, key=measured.__getitem__)  # the first minimum
            best = measured[row]
            if best > FLOAT_MAX:
                best = FLOAT_MAX
            e_hi = best * KA - r - T
            e_lo = (best + r) * KB + T
            for j, (child, lo, hi) in enumerate(zip(children, lo_rows[row], hi_rows[row])):
                if child is None or e_hi > hi or e_lo < lo:
                    continue
                own = hi_rows[j]
                if own is not None and j != row:  # child j's own column
                    inspected += 1
                    e = measured[j]
                    if e > FLOAT_MAX:
                        e = FLOAT_MAX
                    if e * KA - r - T > own[j]:
                        continue
                stack.append(child)
            continue
        lower = [0.0] * m
        pos = measuring[0]
        opened = list(range(m))
        del opened[pos]
        while True:
            evals += 1
            c = centers[pos]
            e = dist(q, objs[c])
            if e <= r:
                results.add(c)
            if e > FLOAT_MAX:
                e = FLOAT_MAX
            lo_row = lo_rows[pos]
            hi_row = hi_rows[pos]
            e_hi = e * KA - r - T             # eliminate when e - r > hi
            e_lo = (e + r) * KB + T           # eliminate when e + r < lo
            child = children[pos]
            if child is not None:             # the pivot's own column
                inspected += 1
                if not e_hi > hi_row[pos]:
                    stack.append(child)
            inspected += len(opened)
            kept = []
            nxt = -1
            best = math.inf
            for j in opened:
                hi = hi_row[j]
                lo = lo_row[j]
                if e_hi > hi or e_lo < lo:
                    continue
                gap = e - hi if e - hi > lo - e else lo - e
                lb = lower[j]
                if gap > lb:
                    lower[j] = lb = gap
                if lb < best and lo_rows[j] is not None:
                    best = lb
                    nxt = len(kept)
                kept.append(j)
            opened = kept
            if nxt < 0:
                break
            pos = opened.pop(nxt)
        for pos in opened:  # reduced tables: survivors without a table row
            evals += 1
            c = centers[pos]
            if dist(q, objs[c]) <= r:
                results.add(c)
            if children[pos] is not None:
                stack.append(children[pos])
    return QueryStats(results, evals, visited, inspected)


def gnat_range_search(tree: GnatTree, query: RangeQuery, metric: MetricSpace) -> QueryStats:
    """Exact range query with multi-pivot pruning."""
    return _range_search(tree, query, metric, False)


def egnat_range_search(tree: GnatTree, query: RangeQuery, metric: MetricSpace) -> QueryStats:
    """Exact range query with nearest-pivot pruning."""
    return _range_search(tree, query, metric, True)


def knn_search(tree: GnatTree, obj, k: int, metric: MetricSpace,
               mode: str = "gnat") -> tuple[list[tuple[int, float]], QueryStats]:
    """The k nearest objects to obj, ascending by (distance, object id).

    Returns the ranked list and the stats of the underlying shrinking-
    radius range search.  The node visits are those of the range search
    under the current radius: the multi-pivot visit also drops an open
    measuring center whose bound exceeds the radius, and re-checks the
    radius before each untried center of a reduced table.  A pivot's own
    column is tested with the radius after the pivot was offered to the
    heap, its upper bound only, and a hit raises the child's bound to the
    gap e * KA - hi when that is larger.  Surviving children are entered in
    ascending (lower bound, position) order and skipped when their bound
    exceeds the radius by then.  The nearest-pivot visit prunes with the
    nearest measuring center's row, then tests each non-empty child it
    admits against the child's own column as the range search does, with
    the radius after every center was offered to the heap: a child is
    dropped when e * KA - T - hi exceeds the radius, and otherwise that gap
    raises its bound when it is larger.

    The best candidates sit in a size-k heap of (-distance, -id); it starts
    with k sentinels that every candidate beats, so the radius, the k-th
    best distance, is infinite until k objects were offered.  Ties at
    equal distance keep the lower id.
    """
    if not 1 <= k <= tree.size:
        raise ConfigError(f"k must be in [1, {tree.size}], got {k}")
    if mode not in DISCIPLINES:
        raise ConfigError(f"unknown search mode {mode!r}")
    _check_query(obj)
    egnat = mode == "egnat"
    q = obj
    objs, dist = tree.dataset.objects, metric.distance
    heap = [(-math.inf, -math.inf)] * k   # below every (-d, -id), even d = inf
    radius = math.inf
    evals = visited = inspected = 0
    stack = [(0.0, _search_root(tree))]
    while stack:
        lb, node = stack.pop()
        if lb > radius:
            continue
        visited += 1
        if type(node) is int:
            evals += 1
            d = dist(q, objs[node])
            if d <= radius and (item := (-d, -node)) > heap[0]:
                heapreplace(heap, item)
                radius = -heap[0][0]
            continue
        if type(node) is list:
            evals += len(node)
            for oid in node:
                d = dist(q, objs[oid])
                if d <= radius and (item := (-d, -oid)) > heap[0]:
                    heapreplace(heap, item)
                    radius = -heap[0][0]
            continue
        centers, measuring, lo_rows, hi_rows, children = node
        m = len(centers)
        if egnat:
            evals += m
            inspected += m
            measured = []
            for c in centers:
                d = dist(q, objs[c])
                measured.append(d)
                if d <= radius and (item := (-d, -c)) > heap[0]:
                    heapreplace(heap, item)
                    radius = -heap[0][0]
            row = min(measuring, key=measured.__getitem__)  # the first minimum
            e = measured[row]
            if e > FLOAT_MAX:
                e = FLOAT_MAX
            ea = e * KA - T
            et = e + T
            e_hi = ea - radius
            e_lo = (e + radius) * KB + T
            survivors = []
            for j, (lo, hi) in enumerate(zip(lo_rows[row], hi_rows[row])):
                if children[j] is None or e_hi > hi or e_lo < lo:
                    continue
                gap = ea - hi
                other = lo * KA - et
                if other > gap:
                    gap = other
                own = hi_rows[j]
                if own is not None and j != row:  # child j's own column
                    inspected += 1
                    e = measured[j]
                    if e > FLOAT_MAX:
                        e = FLOAT_MAX
                    other = e * KA - T - own[j]
                    if other > radius:
                        continue
                    if other > gap:
                        gap = other
                survivors.append((gap if gap > 0.0 else 0.0, j))
        else:
            lower = [0.0] * m
            pos = measuring[0]
            opened = list(range(m))
            del opened[pos]
            entered = []
            while True:
                evals += 1
                c = centers[pos]
                e = dist(q, objs[c])
                if e <= radius and (item := (-e, -c)) > heap[0]:
                    heapreplace(heap, item)
                    radius = -heap[0][0]
                if e > FLOAT_MAX:
                    e = FLOAT_MAX
                lo_row = lo_rows[pos]
                hi_row = hi_rows[pos]
                ea = e * KA - T
                et = e + T
                e_hi = ea - radius
                e_lo = (e + radius) * KB + T
                if children[pos] is not None:  # the pivot's own column
                    inspected += 1
                    hi = hi_row[pos]
                    if not e_hi > hi:
                        gap = ea - hi
                        lb = lower[pos]
                        entered.append((gap if gap > lb else lb, pos))
                inspected += len(opened)
                kept = []
                nxt = -1
                best = math.inf
                for j in opened:
                    hi = hi_row[j]
                    lo = lo_row[j]
                    if e_hi > hi or e_lo < lo:
                        continue
                    gap = ea - hi
                    other = lo * KA - et
                    if other > gap:
                        gap = other
                    lb = lower[j]
                    if gap > lb:
                        lower[j] = lb = gap
                    if lo_rows[j] is not None:
                        if lb > radius:
                            continue
                        if lb < best:
                            best = lb
                            nxt = len(kept)
                    kept.append(j)
                opened = kept
                if nxt < 0:
                    break
                pos = opened.pop(nxt)
            for pos in opened:  # reduced tables: open centers without a row
                if lower[pos] > radius:
                    continue
                evals += 1
                c = centers[pos]
                e = dist(q, objs[c])
                entered.append((lower[pos], pos))
                if e <= radius and (item := (-e, -c)) > heap[0]:
                    heapreplace(heap, item)
                    radius = -heap[0][0]
            survivors = entered
        survivors.sort(reverse=True)
        for lb, j in survivors:
            if children[j] is not None:
                stack.append((lb, children[j]))
    ranked = [(-oid, -d) for d, oid in sorted(heap, reverse=True)]
    return ranked, QueryStats({oid for oid, _ in ranked}, evals, visited, inspected)
