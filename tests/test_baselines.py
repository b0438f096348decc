import pytest

from gnatty import (BuildConfig, ConfigError, ConstantArity, Dataset, EuclideanMetric,
                    PowerArity, RangeQuery, aesa_build, aesa_range_search, build,
                    generate_uniform_vectors, gnat_range_search, lc_build, lc_range_search,
                    table_entry_count)
from gnatty.baselines import lc_stored_reals
from gnatty.bench import calibrate_radius, linear_scan_range

EUCLID = EuclideanMetric()


def line_dataset(*values):
    return Dataset([(float(v),) for v in values])


def test_aesa_build_examples():
    assert len(aesa_build(Dataset([]), EUCLID).entries) == 0
    assert len(aesa_build(line_dataset(7.0), EUCLID).entries) == 0
    matrix = aesa_build(line_dataset(0, 1, 3), EUCLID)
    assert matrix.entries.tolist() == [1.0, 3.0, 2.0]


def test_aesa_build_eval_count():
    ds = generate_uniform_vectors(200, 4, seed=1)
    matrix = aesa_build(ds, EUCLID)
    assert matrix.build_distance_evals == 19_900
    assert len(matrix.entries) == 19_900


def test_aesa_lookup_symmetric():
    ds = generate_uniform_vectors(30, 3, seed=2)
    matrix = aesa_build(ds, EUCLID)
    for i in range(30):
        for j in range(i + 1, 30):
            # d(i, j) is stored once, at offsets[i] + j
            assert matrix.entries[matrix.offsets[i] + j] == EUCLID.distance(ds[i], ds[j])
            assert matrix.entries[matrix.offsets[i] + j] == EUCLID.distance(ds[j], ds[i])


def test_aesa_search_trivial_cases():
    ds = generate_uniform_vectors(50, 3, seed=3)
    matrix = aesa_build(ds, EUCLID)
    stats = aesa_range_search(matrix, ds, RangeQuery((0.5, 0.5, 0.5), 10.0), EUCLID)
    assert stats.results == set(range(50))
    stats = aesa_range_search(matrix, ds, RangeQuery(ds[7], 0.0), EUCLID)
    assert stats.results == {7}
    for tiny in (Dataset([]), line_dataset(7.0)):
        stats = aesa_range_search(aesa_build(tiny, EUCLID), tiny, RangeQuery((7.0,), 1.0), EUCLID)
        assert (stats.results, stats.distance_evals, stats.entries_inspected) == \
            (set(range(len(tiny))), len(tiny), 0)


def test_aesa_oracle_and_flat_trend():
    totals = {}
    for n in (500, 1000, 2000):
        ds = generate_uniform_vectors(n + 20, 10, seed=4)
        queries = ds.objects[:20]
        database = Dataset(ds.objects[20:])
        matrix = aesa_build(database, EUCLID)
        evals = 0
        for q in queries:
            r = calibrate_radius(database, EUCLID, q, 10)
            stats = aesa_range_search(matrix, database, RangeQuery(q, r), EUCLID)
            assert stats.results == linear_scan_range(database, q, r, EUCLID)
            evals += stats.distance_evals
        totals[n] = evals / len(queries)
    # distance cost stays roughly flat as n quadruples
    assert max(totals.values()) / min(totals.values()) < 2.5, totals


def test_lc_build_examples():
    ds = generate_uniform_vectors(40, 3, seed=5)
    single = lc_build(ds, EUCLID, bucket_size=39)
    assert len(single.clusters) == 1
    assert single.clusters[0].center == 0 and len(single.clusters[0].members) == 39

    lone = lc_build(generate_uniform_vectors(1, 3, seed=5), EUCLID, bucket_size=4)
    assert len(lone.clusters) == 1
    assert lone.clusters[0].radius == 0.0 and lone.clusters[0].members == []

    with pytest.raises(ConfigError):
        lc_build(ds, EUCLID, bucket_size=0)


def test_lc_linear_space_and_soundness():
    ds = generate_uniform_vectors(300, 5, seed=6)
    clusters = lc_build(ds, EUCLID, bucket_size=20)
    assert lc_stored_reals(clusters) == len(clusters.clusters)
    seen = set()
    for cluster in clusters.clusters:
        assert cluster.center not in seen
        seen.add(cluster.center)
        for oid in cluster.members:
            assert oid not in seen
            seen.add(oid)
            assert EUCLID.distance(ds[cluster.center], ds[oid]) <= cluster.radius + 1e-12
    assert seen == set(range(300))


def test_lc_far_query_touches_only_centers():
    ds = generate_uniform_vectors(200, 4, seed=7)
    clusters = lc_build(ds, EUCLID, bucket_size=10)
    stats = lc_range_search(clusters, RangeQuery((50.0,) * 4, 0.1), EUCLID)
    assert stats.results == set()
    assert stats.distance_evals == len(clusters.clusters)


def test_lc_center_query():
    ds = generate_uniform_vectors(200, 4, seed=8)
    clusters = lc_build(ds, EUCLID, bucket_size=10)
    center = clusters.clusters[3].center
    stats = lc_range_search(clusters, RangeQuery(ds[center], 0.0), EUCLID)
    assert stats.results == {center}


def test_lc_oracle_equivalence():
    ds = generate_uniform_vectors(620, 8, seed=9)
    queries = ds.objects[:20]
    database = Dataset(ds.objects[20:])
    clusters = lc_build(database, EUCLID, bucket_size=25)
    for q in queries:
        r = calibrate_radius(database, EUCLID, q, 10)
        stats = lc_range_search(clusters, RangeQuery(q, r), EUCLID)
        assert stats.results == linear_scan_range(database, q, r, EUCLID)


def test_cost_ordering_aesa_gnatty_gnat():
    """Aggregate distance cost should order AESA <= variable-arity tree <=
    constant-arity tree of about equal memory, with 20% slack for noise."""
    ds = generate_uniform_vectors(2050, 10, seed=10)
    queries = ds.objects[:50]
    database = Dataset(ds.objects[50:])
    gnatty_tree = build(database, EUCLID,
                        BuildConfig(arity=PowerArity(0.5), partition="ball", seed=10))
    gnat_tree = build(database, EUCLID, BuildConfig(arity=ConstantArity(5), seed=10))
    # m=5 is the constant arity whose entry count is closest to gnatty's
    assert (table_entry_count(gnatty_tree), table_entry_count(gnat_tree)) == (7706, 7778)
    matrix = aesa_build(database, EUCLID)

    totals = {"aesa": 0, "gnatty": 0, "gnat": 0}
    for q in queries:
        r = calibrate_radius(database, EUCLID, q, 10)
        totals["aesa"] += aesa_range_search(matrix, database, RangeQuery(q, r), EUCLID).distance_evals
        totals["gnatty"] += gnat_range_search(gnatty_tree, RangeQuery(q, r), EUCLID).distance_evals
        totals["gnat"] += gnat_range_search(gnat_tree, RangeQuery(q, r), EUCLID).distance_evals
    print(f"\ncost ordering: aesa={totals['aesa']} gnatty={totals['gnatty']} "
          f"gnat(m=5)={totals['gnat']}")
    assert totals["aesa"] <= totals["gnatty"] * 1.2
    assert totals["gnatty"] <= totals["gnat"] * 1.2
