"""Counter conservation: every hand-kept distance counter must equal the
count of an outer DistanceCounter handed in as the metric.

build_distance_evals and QueryStats.distance_evals are kept by hand at
many sites (batched partitions and tables, bucket scans, pivot visits);
the outer counter sees every evaluation that reaches the metric, so any
site that forgets to charge, or charges twice, shows up as a difference.
Under the outer counter sits a metric that counts its own scalar calls,
so a batch that DistanceCounter itself charges wrongly shows up too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnatty import (BuildConfig, ConstantArity, DistanceCounter, EuclideanMetric,
                    FixedPointParams, MetricSpace, PowerArity, RangeQuery, aesa_build,
                    aesa_range_search, build, calibrate_radius, egnat_range_search,
                    generate_uniform_vectors, gnat_range_search, knn_search, lc_build,
                    lc_range_search, split_queries)

EUCLID = EuclideanMetric()
Q28 = FixedPointParams(total_bits=8, magnitude_bits=2, beta=1 / 5)


class _CallCounter(MetricSpace):
    """Euclidean distance counting its own calls; batches take the
    one-call-per-object default."""

    name = "calls"

    def __init__(self):
        self.calls = 0

    def distance(self, a, b) -> float:
        self.calls += 1
        return EUCLID.distance(a, b)


def _outer():
    return DistanceCounter(_CallCounter())


def _workload(n, seed):
    queries, database = split_queries(generate_uniform_vectors(n + 6, 4, seed), 6, seed)
    radii = [calibrate_radius(database, EUCLID, q, min(5, n)) for q in queries]
    return queries, database, radii


def _assert_conserved(outer, run):
    """stats.distance_evals of one call equals what the outer counter and
    the metric underneath it saw during that call."""
    before, calls_before = outer.count, outer.wrapped.calls
    stats = run()
    assert stats.distance_evals == outer.count - before == outer.wrapped.calls - calls_before


@pytest.mark.parametrize("partition", ["ball", "hyperplane"])
@pytest.mark.parametrize("reduce_factor", [1.0, 2.0])
@pytest.mark.parametrize("codec", ["exact", "fp"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 160),
       arity=st.sampled_from([ConstantArity(2), ConstantArity(5), PowerArity(0.5)]),
       gamma=st.sampled_from([0.5, 0.9, 1.0]), bucket=st.sampled_from([0, 3]))
def test_tree_counters_conserved(partition, reduce_factor, codec, seed, n, arity,
                                 gamma, bucket):
    queries, database, radii = _workload(n, seed)
    outer = _outer()
    tree = build(database, outer, BuildConfig(
        arity=arity, partition=partition, gamma=gamma, bucket_size=bucket,
        reduce_factor=reduce_factor, fixed_point=Q28 if codec == "fp" else None,
        seed=seed))
    assert tree.build_distance_evals == outer.count == outer.wrapped.calls
    k = min(5, n)
    for q, r in zip(queries, radii):
        for search in (gnat_range_search, egnat_range_search):
            _assert_conserved(outer, lambda: search(tree, RangeQuery(q, r), outer))
        for mode in ("gnat", "egnat"):
            _assert_conserved(outer, lambda: knn_search(tree, q, k, outer, mode)[1])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120),
       lc_bucket=st.integers(1, 12))
def test_baseline_counters_conserved(seed, n, lc_bucket):
    queries, database, radii = _workload(n, seed)
    outer = _outer()
    matrix = aesa_build(database, outer)
    assert matrix.build_distance_evals == outer.count == outer.wrapped.calls == n * (n - 1) // 2
    outer = _outer()
    clusters = lc_build(database, outer, lc_bucket)
    assert clusters.build_distance_evals == outer.count == outer.wrapped.calls
    for q, r in zip(queries, radii):
        query = RangeQuery(q, r)
        _assert_conserved(outer, lambda: aesa_range_search(matrix, database, query, outer))
        _assert_conserved(outer, lambda: lc_range_search(clusters, query, outer))
