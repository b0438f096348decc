import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnatty import (Bucket, BuildConfig, ConfigError, ConstantArity, Dataset, EuclideanMetric,
                    FixedPointParams, MetricSpace, PowerArity, RangeQuery,
                    aesa_build, aesa_range_search, build, egnat_range_search,
                    generate_uniform_vectors, gnat_range_search, iter_nodes, knn_search,
                    lc_build, lc_range_search, split_queries, with_fixed_point)
from gnatty.bench import calibrate_radius, linear_scan_knn, linear_scan_range
from gnatty.search import DISCIPLINES, KA, KB

EUCLID = EuclideanMetric()


def subtree_object_ids(node) -> list[int]:
    """All object ids stored in a subtree (centers and bucket members)."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Bucket):
            out.extend(node.object_ids)
        else:
            out.extend(node.centers)
            stack.extend(node.children)
    return out


def prune_check(e: float, r: float, lo: float, hi: float) -> bool:
    """The search's elimination test: the closed intervals [e - r, e + r]
    and [lo, hi] do not intersect, with the rounding margin, so no object
    under the child with table interval [lo, hi] lies within distance r of
    a query at distance e from the pivot."""
    return e * KA - r > hi or (e + r) * KB < lo


def test_prune_check_examples():
    assert prune_check(5, 1, 7, 9)          # 6 < 7
    assert not prune_check(5, 2, 7, 9)      # closed intervals touch at 7
    assert prune_check(10, 0.5, 7, 9)       # 9.5 > 9
    assert not prune_check(8, 0, 7, 9)


def test_range_query_validation():
    with pytest.raises(ConfigError):
        RangeQuery((0.0,), -1.0)


@pytest.fixture(scope="module")
def small_world():
    ds = generate_uniform_vectors(320, 5, seed=11)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(6), seed=11))
    return ds, tree


def test_radius_covers_everything(small_world):
    ds, tree = small_world
    q = (0.5,) * 5
    for search in (gnat_range_search, egnat_range_search):
        stats = search(tree, RangeQuery(q, 10.0), EUCLID)
        assert stats.results == set(range(len(ds)))
        assert stats.distance_evals == len(ds)


def test_radius_below_minimum_is_empty(small_world):
    ds, tree = small_world
    q = (5.0,) * 5  # far outside the unit cube
    for search in (gnat_range_search, egnat_range_search):
        assert search(tree, RangeQuery(q, 0.5), EUCLID).results == set()


def test_monotone_in_radius(small_world):
    ds, tree = small_world
    q = ds[3]
    previous = set()
    for r in (0.05, 0.2, 0.4, 0.8):
        results = gnat_range_search(tree, RangeQuery(q, r), EUCLID).results
        assert previous <= results
        previous = results


def test_evals_never_exceed_n(small_world):
    ds, tree = small_world
    for i in range(0, 300, 17):
        for search in (gnat_range_search, egnat_range_search):
            stats = search(tree, RangeQuery(ds[i], 0.3), EUCLID)
            assert stats.distance_evals <= len(ds)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       n=st.integers(2, 60),
       partition=st.sampled_from(["hyperplane", "ball"]),
       constant=st.booleans(),
       codec=st.sampled_from(["exact", "fp"]),
       reduce_factor=st.sampled_from([1.0, 2.0]),
       mode=st.sampled_from(["gnat", "egnat"]),
       radius=st.floats(0.0, 1.5))
def test_exactness_everywhere(seed, n, partition, constant, codec, reduce_factor, mode, radius):
    """Master property: every variant must agree with the linear scan."""
    ds = generate_uniform_vectors(n, 3, seed=seed)
    fp = FixedPointParams(8, 2, 0.2) if codec == "fp" else None
    config = BuildConfig(arity=ConstantArity(3) if constant else PowerArity(0.5),
                         partition=partition, reduce_factor=reduce_factor,
                         fixed_point=fp, seed=seed)
    tree = build(ds, EUCLID, config)
    q = (0.25, 0.5, 0.75)
    search = gnat_range_search if mode == "gnat" else egnat_range_search
    stats = search(tree, RangeQuery(q, radius), EUCLID)
    assert stats.results == linear_scan_range(ds, q, radius, EUCLID)
    assert stats.distance_evals <= n


def test_pruning_is_safe_for_every_entry():
    """Any (pivot, child) elimination the tables could ever justify must be
    sound: no object under that child may lie within the query ball.  The
    entries include each pivot's own column (col == pos), which the
    multi-pivot search prunes its tried pivots' children with, and the
    decoded tables of the fixed-point twin."""
    ds = generate_uniform_vectors(400, 4, seed=17)
    tree = build(ds, EUCLID, BuildConfig(arity=PowerArity(0.5), partition="ball", seed=17))
    twin = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    queries = generate_uniform_vectors(5, 4, seed=18)
    for q in queries:
        r = calibrate_radius(ds, EUCLID, q, 10)
        for t in (tree, twin):
            for node in iter_nodes(t.root):
                lo_rows, hi_rows = node.table.decoded_bounds()
                for row, pos in enumerate(node.measuring_set):
                    e = EUCLID.distance(q, ds[node.centers[pos]])
                    for col in range(len(node.centers)):
                        if prune_check(e, r, lo_rows[row][col], hi_rows[row][col]):
                            covered = [node.centers[col]] + subtree_object_ids(node.children[col])
                            assert all(EUCLID.distance(q, ds[oid]) > r for oid in covered)


class RecordingMetric(MetricSpace):
    """Euclidean distance that records the id of every object it measures."""

    name = "recording"

    def __init__(self, dataset):
        self.ids = {id(obj): i for i, obj in enumerate(dataset.objects)}
        self.measured = set()

    def distance(self, a, b):
        self.measured.add(self.ids[id(b)])
        return EUCLID.distance(a, b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       n=st.integers(2, 80),
       partition=st.sampled_from(["hyperplane", "ball"]),
       constant=st.booleans(),
       reduce_factor=st.sampled_from([1.0, 2.0]),
       codec=st.sampled_from(["exact", "fp"]),
       radius=st.floats(0.0, 1.0),
       k=st.integers(1, 10))
def test_pruned_own_subtree_is_never_entered(seed, n, partition, constant, reduce_factor,
                                             codec, radius, k):
    """A measured pivot whose own column misses the query ball keeps the
    multi-pivot range search out of its child: nothing under it is
    measured.  Both k-NN modes stay exact under the same rule."""
    ds = generate_uniform_vectors(n, 3, seed=seed)
    fp = FixedPointParams(8, 2, 0.2) if codec == "fp" else None
    tree = build(ds, EUCLID, BuildConfig(
        arity=ConstantArity(3) if constant else PowerArity(0.5), partition=partition,
        reduce_factor=reduce_factor, fixed_point=fp, seed=seed))
    q = generate_uniform_vectors(1, 3, seed=seed + 1)[0]
    recorder = RecordingMetric(ds)
    stats = gnat_range_search(tree, RangeQuery(q, radius), recorder)
    assert stats.results == linear_scan_range(ds, q, radius, EUCLID)
    assert stats.distance_evals == len(recorder.measured)
    for node in iter_nodes(tree.root):
        lo_rows, hi_rows = node.table.decoded_bounds()
        for row, pos in enumerate(node.measuring_set):
            if node.centers[pos] not in recorder.measured:
                continue
            e = EUCLID.distance(q, ds[node.centers[pos]])
            if prune_check(e, radius, lo_rows[row][pos], hi_rows[row][pos]):
                assert recorder.measured.isdisjoint(subtree_object_ids(node.children[pos]))
    k = min(k, n)
    for mode in ("gnat", "egnat"):
        assert knn_search(tree, q, k, EUCLID, mode)[0] == linear_scan_knn(ds, q, k, EUCLID)


def test_fixed_point_same_results_more_evals(small_world):
    ds, tree = small_world
    fp_tree = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    total_exact = total_fp = 0
    for i in range(0, 320, 7):
        q = ds[i]
        r = 0.35
        a = gnat_range_search(tree, RangeQuery(q, r), EUCLID)
        b = gnat_range_search(fp_tree, RangeQuery(q, r), EUCLID)
        assert a.results == b.results
        total_exact += a.distance_evals
        total_fp += b.distance_evals
    assert total_fp >= total_exact


def test_saturated_tables_stay_exact():
    # distances way beyond the representable fixed-point range: upper
    # bounds get max_code, which decodes to +inf and stops pruning
    base = generate_uniform_vectors(300, 4, seed=1)
    big = Dataset([tuple(c * 2000.0 for c in v) for v in base])
    tree = build(big, EUCLID, BuildConfig(arity=PowerArity(0.5),
                                          fixed_point=FixedPointParams(8, 2, 0.2), seed=1))
    assert any((node.table.hi == node.table.fixed_point.max_code).any()
               for node in iter_nodes(tree.root))
    for i in range(0, 300, 23):
        for r in (100.0, 400.0, 1500.0):
            for search in (gnat_range_search, egnat_range_search):
                got = search(tree, RangeQuery(big[i], r), EUCLID).results
                assert got == linear_scan_range(big, big[i], r, EUCLID)


def test_egnat_single_node_measures_all_centers():
    ds = generate_uniform_vectors(24, 4, seed=2)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(24), seed=2))
    stats = egnat_range_search(tree, RangeQuery((0.5,) * 4, 0.4), EUCLID)
    assert stats.distance_evals == 24
    assert stats.results == linear_scan_range(ds, (0.5,) * 4, 0.4, EUCLID)


def test_egnat_costs_at_least_gnat_in_aggregate():
    ds = generate_uniform_vectors(800, 6, seed=19)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(16), seed=19))
    queries = generate_uniform_vectors(50, 6, seed=20)
    total_gnat = total_egnat = 0
    for q in queries:
        r = calibrate_radius(ds, EUCLID, q, 10)
        total_gnat += gnat_range_search(tree, RangeQuery(q, r), EUCLID).distance_evals
        total_egnat += egnat_range_search(tree, RangeQuery(q, r), EUCLID).distance_evals
    assert total_egnat >= total_gnat


def test_reduced_tables_report_unmeasured_centers():
    ds = generate_uniform_vectors(300, 4, seed=23)
    config = BuildConfig(arity=ConstantArity(8), reduce_factor=3.0, seed=23)
    tree = build(ds, EUCLID, config)
    assert any(len(node.measuring_set) < len(node.centers) for node in iter_nodes(tree.root))
    for i in range(0, 300, 23):
        q = ds[i]
        for search in (gnat_range_search, egnat_range_search):
            assert search(tree, RangeQuery(q, 0.3), EUCLID).results == \
                linear_scan_range(ds, q, 0.3, EUCLID)


@pytest.mark.parametrize("partition", ["ball", "hyperplane"])
@pytest.mark.parametrize("m", [2, 3])
def test_overflowing_distances_stay_exact(partition, m):
    # Coordinates near +-1e308 on a grid of 2**1019: every difference is
    # exact until it overflows, so inf is the only departure from real
    # arithmetic.  d(-17u, 17u) overflows, and the searches meet inf
    # distances and table bounds and inf - inf = nan bounds; an infinite
    # distance is only known to exceed the largest float, and a nan bound
    # must not prune.
    unit = 2.0 ** 1019
    ds = Dataset([(k * unit,) for k in (-17, -9, -2, 3, 11, 17)])
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(m), partition=partition, seed=0))
    assert any(math.inf in row for node in iter_nodes(tree.root)
               for row in node.table.decoded_bounds()[1])
    matrix = aesa_build(ds, EUCLID)
    clusters = lc_build(ds, EUCLID, m)
    for q in ((-17 * unit,), (0.0,), (5 * unit,), (17 * unit,)):
        for r in (0.0, 6 * unit, 14 * unit, 20 * unit, 1e308, sys.float_info.max, math.inf):
            expected = linear_scan_range(ds, q, r, EUCLID)
            for search in (gnat_range_search, egnat_range_search):
                assert search(tree, RangeQuery(q, r), EUCLID).results == expected
            assert aesa_range_search(matrix, ds, RangeQuery(q, r), EUCLID).results == expected
            assert lc_range_search(clusters, RangeQuery(q, r), EUCLID).results == expected
        for k in range(1, 7):
            for mode in ("gnat", "egnat"):
                assert knn_search(tree, q, k, EUCLID, mode)[0] == linear_scan_knn(ds, q, k, EUCLID)


def test_infinite_lower_bounds_are_searched_as_the_largest_float():
    # d(-1e308, 1e308) overflows, so the root's rows hold inf lower bounds.
    # An inf bound is only known to exceed the largest float: read as inf,
    # it prunes child 2 in the range search and gives the k-NN search a
    # bound of inf for the child holding both objects at distance 0.
    ds = Dataset([(x,) for x in (0.0, -9e307, 1.5e308, -1e308, 1e308, 1e308)])
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(3), partition="ball", seed=17))
    assert any(math.inf in row for row in tree.root.table.decoded_bounds()[0])
    q = (1e308,)
    assert linear_scan_range(ds, q, 0.0, EUCLID) == {4, 5}
    for search in (gnat_range_search, egnat_range_search):
        assert search(tree, RangeQuery(q, 0.0), EUCLID).results == {4, 5}
    for k in range(1, 7):
        for mode in DISCIPLINES:
            assert knn_search(tree, q, k, EUCLID, mode)[0] == linear_scan_knn(ds, q, k, EUCLID)


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.integers(-9, 9), min_size=4, max_size=12),
       partition=st.sampled_from(["ball", "hyperplane"]),
       m=st.integers(2, 3),
       reduce_factor=st.sampled_from([1.0, 2.0]),
       seed=st.integers(0, 3))
def test_rounded_tight_triangles_stay_exact(xs, partition, m, reduce_factor, seed):
    """Collinear points on a 0.1 grid make tight triangles, and a radius
    equal to a computed distance puts objects exactly on the query ball's
    edge: a prune test without its rounding margin drops objects the scan
    keeps.  Every stored point is a query, every computed distance a
    radius and every k a neighbor count."""
    ds = Dataset([(0.1 * x, 0.2 * x + 0.3) for x in xs])
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(m), partition=partition,
                                         reduce_factor=reduce_factor, seed=seed))
    matrix = aesa_build(ds, EUCLID)
    clusters = lc_build(ds, EUCLID, m)
    radii = {EUCLID.distance(a, b) for a in ds for b in ds}
    for q in ds:
        for r in radii:
            expected = linear_scan_range(ds, q, r, EUCLID)
            query = RangeQuery(q, r)
            for search in (gnat_range_search, egnat_range_search):
                assert search(tree, query, EUCLID).results == expected
            assert aesa_range_search(matrix, ds, query, EUCLID).results == expected
            assert lc_range_search(clusters, query, EUCLID).results == expected
        for k in range(1, len(ds) + 1):
            expected = linear_scan_knn(ds, q, k, EUCLID)
            for mode in DISCIPLINES:
                assert knn_search(tree, q, k, EUCLID, mode)[0] == expected


def test_nearest_pivot_row_when_every_center_distance_overflows():
    # every distance from the query to a center overflows, so no measuring
    # center is nearer than another; the first measuring center's row must
    # prune, since center 0 has no row here
    ds = Dataset([(1e308 - i * 1e306,) for i in range(12)])
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), reduce_factor=2.0, seed=2))
    assert tree.root.measuring_set == [1, 3]
    q = (-1e308,)
    assert egnat_range_search(tree, RangeQuery(q, 1e300), EUCLID).results == \
        linear_scan_range(ds, q, 1e300, EUCLID)
    assert knn_search(tree, q, 3, EUCLID, "egnat")[0] == linear_scan_knn(ds, q, 3, EUCLID)


# ---------------------------------------------------------------- kNN


def test_knn_examples(small_world):
    ds, tree = small_world
    q = ds[42]
    ranked, _ = knn_search(tree, q, 1, EUCLID)
    assert ranked == [(42, 0.0)]
    everything, _ = knn_search(tree, q, len(ds), EUCLID)
    assert everything == linear_scan_knn(ds, q, len(ds), EUCLID)
    dists = [d for _, d in everything]
    assert dists == sorted(dists)


def test_knn_validation(small_world):
    ds, tree = small_world
    with pytest.raises(ConfigError):
        knn_search(tree, ds[0], 0, EUCLID)
    with pytest.raises(ConfigError):
        knn_search(tree, ds[0], len(ds) + 1, EUCLID)
    with pytest.raises(ConfigError):
        knn_search(tree, ds[0], 5, EUCLID, mode="fast")


@pytest.mark.parametrize("mode", ["gnat", "egnat"])
def test_knn_matches_bruteforce(small_world, mode):
    ds, tree = small_world
    queries = generate_uniform_vectors(40, 5, seed=12)
    for q in queries:
        for k in (1, 5, 10):
            ranked, stats = knn_search(tree, q, k, EUCLID, mode=mode)
            assert ranked == linear_scan_knn(ds, q, k, EUCLID)
            assert stats.distance_evals <= len(ds)


def test_knn_tie_prefers_lower_id():
    ds = Dataset([(0.0,), (1.0,), (-1.0,), (2.0,)])
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(2), seed=0))
    ranked, _ = knn_search(tree, (0.0,), 2, EUCLID)
    # objects 1 and 2 are both at distance 1; the lower id wins
    assert ranked == [(0, 0.0), (1, 1.0)]


def test_deep_tree_searches_and_converts():
    # two-center balls with gamma = 0.1 nest deeper than the recursion limit
    queries, database = split_queries(generate_uniform_vectors(4010, 3, seed=0), 10, 0)
    tree = build(database, EUCLID, BuildConfig(arity=ConstantArity(2), partition="ball",
                                               gamma=0.1, seed=0))
    node, depth = tree.root, 0
    while not isinstance(node, Bucket):
        node, depth = node.children[-1], depth + 1
    assert depth > sys.getrecursionlimit()
    twin = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    assert [n.centers for n in iter_nodes(twin.root)] == [n.centers for n in iter_nodes(tree.root)]
    for q in queries[:3]:
        r = calibrate_radius(database, EUCLID, q, 10)
        expected = linear_scan_range(database, q, r, EUCLID)
        nearest = linear_scan_knn(database, q, 10, EUCLID)
        for t in (tree, twin):
            for search in (gnat_range_search, egnat_range_search):
                assert search(t, RangeQuery(q, r), EUCLID).results == expected
            for mode in ("gnat", "egnat"):
                assert knn_search(t, q, 10, EUCLID, mode)[0] == nearest


# ---------------------------------------------------------------- golden


def _golden_datasets():
    """Uniform points, and grid points whose distances tie everywhere."""
    rng = np.random.default_rng(5)
    grid = [tuple(float(c) for c in row) for row in rng.integers(0, 4, size=(130, 3))]
    return [("uniform", generate_uniform_vectors(130, 3, seed=4)),
            ("grid", Dataset(grid))]


def test_per_query_golden_counters():
    # Every query's counters and answers over a grid of tree variants,
    # pinned: test_sweep_golden_counters pins only per-variant sums, which
    # a change moving work from one query to another still passes.  Change
    # the hash only with a change that says openly that it alters the
    # search algorithm.  Re-pinned from e0c0a335... when the multi-pivot
    # step began testing each tried pivot's own column: answers unchanged,
    # multi-pivot range evaluations down on every query.
    digest = hashlib.sha256()
    for name, data in _golden_datasets():
        queries, database = split_queries(data, 8, 0)
        radii = [calibrate_radius(database, EUCLID, q, 5) for q in queries]
        for partition, arity, reduce_factor, fp, bucket in itertools.product(
                ("ball", "hyperplane"), (ConstantArity(3), PowerArity(0.5)), (1.0, 2.0),
                (None, FixedPointParams(8, 2, 0.2)), (0, 3)):
            tree = build(database, EUCLID, BuildConfig(
                arity=arity, partition=partition, reduce_factor=reduce_factor,
                fixed_point=fp, bucket_size=bucket, seed=0))
            for i, (q, r) in enumerate(zip(queries, radii)):
                line = [name, tree.config, i]
                for search in (gnat_range_search, egnat_range_search):
                    stats = search(tree, RangeQuery(q, r), EUCLID)
                    line.append((stats.distance_evals, stats.nodes_visited,
                                 stats.entries_inspected, sorted(stats.results)))
                for mode, k in itertools.product(("gnat", "egnat"), (1, 5)):
                    ranked, stats = knn_search(tree, q, k, EUCLID, mode)
                    line.append((stats.distance_evals, stats.nodes_visited,
                                 stats.entries_inspected, ranked))
                digest.update(f"{line!r}\n".encode())
    assert digest.hexdigest() == (
        "57a2733993558aa340b52b04299def31ee0bb3be2707653007514b50579cb111")
