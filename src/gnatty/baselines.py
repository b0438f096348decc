"""Flat competitors: AESA's full distance matrix and List of Clusters.

AESA stores all pairwise distances (half of the symmetric matrix) and
prunes with them directly; it is the distance-evaluation lower bar and the
memory upper bar.  List of Clusters stores one covering radius per
cluster, linear space, and prunes far less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .datasets import Dataset
from .errors import ConfigError
from .metrics import DistanceCounter, MetricSpace
from .search import FLOAT_MAX, KA, KB, QueryStats, RangeQuery
from .tree import nearest_first


class AesaMatrix:
    """Half of the symmetric n x n distance matrix in condensed layout:
    entry (i, j) with i < j sits at offsets[i] + j, where offsets[i] is
    i*n - i*(i+1)/2 - i - 1."""

    __slots__ = ("n", "entries", "offsets", "build_distance_evals")

    def __init__(self, n: int, entries: np.ndarray, build_distance_evals: int = 0):
        self.n = n
        self.entries = entries
        i = np.arange(n)
        self.offsets = i * n - i * (i + 1) // 2 - i - 1
        self.build_distance_evals = build_distance_evals


def aesa_build(dataset: Dataset, metric: MetricSpace) -> AesaMatrix:
    """Precompute all n(n-1)/2 pairwise distances, one batched row at a time;
    a distance that overflowed to inf is stored as FLOAT_MAX."""
    n = len(dataset)
    objs = dataset.objects
    counter = DistanceCounter(metric)
    entries = np.empty(n * (n - 1) // 2, dtype=np.float64)
    pos = 0
    for i in range(n - 1):
        entries[pos:pos + n - i - 1] = counter.distances(objs[i], objs[i + 1:])
        pos += n - i - 1
    np.minimum(entries, FLOAT_MAX, out=entries)  # as the tree search treats overflow
    return AesaMatrix(n, entries, counter.count)


def aesa_range_search(matrix: AesaMatrix, dataset: Dataset, query: RangeQuery,
                      metric: MetricSpace) -> QueryStats:
    """Exact range query by iterated pivot elimination.

    The candidates are the surviving object ids, ascending, with their
    accumulated lower bounds max_p |e_p - d(u, p)|.  The first pivot is
    object 0; afterwards the candidate with the smallest bound is measured
    next (the first minimum, so the lowest id on ties).  Each round gathers
    the stored distances from the pivot to the other candidates only, and
    eliminates those whose distance falls outside [e - r, e + r], widened
    by gnatty.search's rounding margin.
    """
    n = matrix.n
    if n != len(dataset):
        raise ConfigError(f"matrix built over {n} objects, dataset has {len(dataset)}")
    stats = QueryStats()
    q, r = query.obj, query.radius
    dist = metric.distance
    entries, offsets = matrix.entries, matrix.offsets
    ids = np.arange(n)
    lower = np.zeros(n, dtype=np.float64)
    while ids.size:
        k = int(np.argmin(lower))
        pivot = int(ids[k])
        stats.distance_evals += 1
        e = dist(q, dataset[pivot])
        if e <= r:
            stats.results.add(pivot)
        if e > FLOAT_MAX:
            e = FLOAT_MAX
        if ids.size == 1:
            break
        ids = np.delete(ids, k)
        lower = np.delete(lower, k)
        stats.entries_inspected += ids.size
        # ids[:k] lie below the pivot, entries (u, pivot); ids[k:] above it
        stored = np.concatenate((entries[offsets[ids[:k]] + pivot],
                                 entries[offsets[pivot] + ids[k:]]))
        kept = (stored >= e * KA - r) & (stored <= (e + r) * KB)
        ids = ids[kept]
        lower = np.maximum(lower[kept], np.abs(e - stored[kept]))
    return stats


@dataclass
class Cluster:
    center: int
    radius: float        # covering radius: max distance to a member
    members: list[int]   # ascending by (distance to center, object id)


@dataclass
class ClusterList:
    clusters: list[Cluster] = field(default_factory=list)
    dataset: Dataset | None = None
    build_distance_evals: int = 0


def lc_build(dataset: Dataset, metric: MetricSpace, bucket_size: int) -> ClusterList:
    """Greedy cluster list: the lowest remaining object id becomes a center
    and claims its bucket_size nearest remaining objects."""
    if bucket_size < 1:
        raise ConfigError(f"bucket_size must be >= 1, got {bucket_size}")
    counter = DistanceCounter(metric)
    remaining = list(range(len(dataset)))
    points = list(dataset.objects)
    clusters: list[Cluster] = []
    while len(remaining) > 1:
        center, remaining = remaining[0], remaining[1:]
        center_obj, points = points[0], points[1:]
        d = np.array(counter.distances(center_obj, points), dtype=np.float64)
        nearest = nearest_first(d, remaining, bucket_size)
        clusters.append(Cluster(center, float(d[nearest[-1]]),
                                [remaining[p] for p in nearest.tolist()]))
        kept = np.ones(len(remaining), dtype=bool)
        kept[nearest] = False
        kept = kept.tolist()
        remaining = list(compress(remaining, kept))
        points = list(compress(points, kept))
    if remaining:
        clusters.append(Cluster(remaining[0], 0.0, []))
    return ClusterList(clusters, dataset, counter.count)


def lc_range_search(cluster_list: ClusterList, query: RangeQuery,
                    metric: MetricSpace) -> QueryStats:
    """Exact range query over a cluster list.

    Clusters are visited in build order; a bucket is scanned only when the
    query ball intersects the covering ball.  When the query ball lies
    strictly inside a covering ball the remaining clusters cannot hold
    results (their objects were all farther from this center than the
    covering radius) and the scan stops.  Both tests carry
    gnatty.search's rounding margin, and an overflowed distance is taken
    as FLOAT_MAX, as the tree search takes it.
    """
    stats = QueryStats()
    dataset = cluster_list.dataset
    q, r = query.obj, query.radius
    dist = metric.distance
    for cluster in cluster_list.clusters:
        stats.nodes_visited += 1
        stats.distance_evals += 1
        e = dist(q, dataset[cluster.center])
        if e <= r:
            stats.results.add(cluster.center)
        if e > FLOAT_MAX:
            e = FLOAT_MAX
        stats.entries_inspected += 1
        if not e * KA - r > cluster.radius:
            for oid in cluster.members:
                stats.distance_evals += 1
                if dist(q, dataset[oid]) <= r:
                    stats.results.add(oid)
        if (e + r) * KB < cluster.radius:
            break
    return stats


def lc_stored_reals(cluster_list: ClusterList) -> int:
    """Reals the structure stores for pruning: one covering radius per cluster."""
    return len(cluster_list.clusters)
