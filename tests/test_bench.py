import csv
import dataclasses
from unittest.mock import Mock

import pytest

from gnatty import bench, search
from gnatty import (ConfigError, Dataset, EuclideanMetric, ExperimentSpec,
                    calibrate_radius, emit_csv,
                    generate_uniform_vectors, linear_scan_range, oracle_check,
                    run_experiment)
from gnatty.bench import CSV_COLUMNS, linear_scan_knn, resolve_fp_params
from gnatty.fixedpoint import decode_lut

EUCLID = EuclideanMetric()


def test_calibrate_radius_examples():
    ds = generate_uniform_vectors(60, 4, seed=1)
    q = ds[5]
    r_max = calibrate_radius(ds, EUCLID, q, len(ds))
    assert r_max == max(EUCLID.distance(q, o) for o in ds)
    assert calibrate_radius(ds, EUCLID, q, 1) == 0.0  # q is in the database
    with pytest.raises(ConfigError):
        calibrate_radius(ds, EUCLID, q, len(ds) + 1)


def test_calibrated_queries_return_target_k():
    ds = generate_uniform_vectors(220, 10, seed=2)
    queries = ds.objects[:20]
    database = Dataset(ds.objects[20:])
    for q in queries:
        r = calibrate_radius(database, EUCLID, q, 10)
        results = linear_scan_range(database, q, r, EUCLID)
        assert len(results) >= 10  # exactly 10 unless distance ties
        assert len(results) == 10 or len({EUCLID.distance(q, database[i])
                                          for i in results}) < len(results)


def test_linear_scan_knn_ordering():
    ds = generate_uniform_vectors(100, 3, seed=3)
    ranked = linear_scan_knn(ds, ds[0], 10, EUCLID)
    dists = [d for _, d in ranked]
    assert ranked[0] == (0, 0.0)
    assert dists == sorted(dists) and len(ranked) == 10


def test_run_experiment_singleton_grid():
    spec = ExperimentSpec(n=220, dim=4, queries=20, seeds=(0,), indexes=("gnatty",),
                          alphas=(0.5,), target_ks=(5,))
    rows = run_experiment(spec)
    assert len(rows) == 1
    row = rows[0]
    assert row.n == 200 and row.queries == 20
    assert row.mean_result_size >= 5
    assert row.build_distance_evals > 0
    assert row.entries > 0


def test_run_experiment_requires_radius_spec():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec(n=100, queries=10))


def test_run_experiment_skips_infeasible_cells(caplog):
    # target_k=5000 cannot be calibrated against a 100-object database;
    # that workload is skipped with a warning, the rest still runs
    spec = ExperimentSpec(n=120, dim=3, queries=20, indexes=("lc",),
                          lc_buckets=(10,), target_ks=(5, 5000))
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert any("skipping" in record.message for record in caplog.records)


def test_run_experiment_rejects_domain_violations():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec(n=100, queries=10, gammas=(1.5,), radii=(0.5,)))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec(n=100, queries=10, lc_buckets=(0,),
                                      indexes=("lc",), radii=(0.5,)))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec(n=100, queries=10, target_ks=(0,)))


def test_fixed_point_row_reports_quarter_bytes():
    spec = ExperimentSpec(n=320, dim=6, queries=20, indexes=("gnatty",),
                          codecs=("exact", "fp"), target_ks=(5,))
    rows = run_experiment(spec)
    by_codec = {row.codec: row for row in rows}
    assert by_codec["exact"].entries == by_codec["fp"].entries
    assert by_codec["exact"].table_bytes == 4 * by_codec["fp"].table_bytes
    assert by_codec["fp"].mean_distance_evals >= by_codec["exact"].mean_distance_evals * 0.95


def test_sweep_builds_each_exact_tree_once(monkeypatch):
    # an fp cell encodes the exact tree of its coordinates, whichever codec
    # the sweep lists first, and an fp cell without an exact one builds it
    monkeypatch.setattr(bench, "build", Mock(wraps=bench.build))
    base = dict(n=220, dim=4, queries=10, indexes=("gnatty", "gnat"), alphas=(0.4, 0.6),
                reduces=(1.0, 2.0), target_ks=(5,))
    both = run_experiment(ExperimentSpec(**base, codecs=("fp", "exact")))
    assert len(both) == 12 and bench.build.call_count == 6
    fp_only = run_experiment(ExperimentSpec(**base, codecs=("fp",)))
    assert bench.build.call_count == 12

    def untimed(row):
        return dataclasses.replace(row, build_seconds=0.0, query_seconds=0.0)

    assert [untimed(row) for row in both if row.codec == "fp"] == list(map(untimed, fp_only))
    exact = {(row.index, row.arity, row.reduce): row for row in both if row.codec == "exact"}
    for row in fp_only:
        twin = exact[row.index, row.arity, row.reduce]
        assert (row.build_distance_evals, row.entries) == (twin.build_distance_evals,
                                                            twin.entries)


def test_counter_hygiene_build_vs_query():
    # identical grids with different workloads must report identical build
    # counters, and rerunning must not inflate any counter
    base = dict(n=220, dim=4, queries=20, indexes=("gnatty",), seeds=(3,))
    rows_a = run_experiment(ExperimentSpec(**base, target_ks=(5,)))
    rows_b = run_experiment(ExperimentSpec(**base, target_ks=(10,)))
    assert rows_a[0].build_distance_evals == rows_b[0].build_distance_evals
    assert rows_a[0].mean_distance_evals != rows_b[0].mean_distance_evals
    rows_a2 = run_experiment(ExperimentSpec(**base, target_ks=(5,)))
    assert rows_a[0] == rows_a2[0].__class__(**{**rows_a2[0].__dict__,
                                                "build_seconds": rows_a[0].build_seconds,
                                                "query_seconds": rows_a[0].query_seconds})


def test_emit_csv_shapes(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].split(",") == CSV_COLUMNS

    spec = ExperimentSpec(n=150, dim=3, queries=10, indexes=("gnatty",), target_ks=(3,))
    rows = run_experiment(spec)
    path = tmp_path / "one.csv"
    emit_csv(rows, path)
    assert len(path.read_text().splitlines()) == 2


def test_emit_csv_roundtrips_numbers(tmp_path):
    spec = ExperimentSpec(n=150, dim=3, queries=10, indexes=("gnatty", "aesa"),
                          target_ks=(3,), radii=(0.25,))
    rows = run_experiment(spec)
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    with open(path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    for row, got in zip(rows, parsed):
        assert float(got["mean_distance_evals"]) == row.mean_distance_evals
        assert float(got["median_distance_evals"]) == row.median_distance_evals
        assert int(got["entries"]) == row.entries
        assert float(got["mean_radius"]) == row.mean_radius
        assert int(got["build_distance_evals"]) == row.build_distance_evals


def test_emit_csv_deterministic(tmp_path):
    spec = ExperimentSpec(n=200, dim=4, queries=15, indexes=("gnatty", "lc"),
                          codecs=("exact", "fp"), target_ks=(5,), seeds=(0, 1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(spec), a)
    emit_csv(run_experiment(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_oracle_check_passes_on_grid():
    spec = ExperimentSpec(n=160, dim=4, queries=15, indexes=("gnatty", "gnat", "aesa", "lc"),
                          partitions=("hyperplane", "ball"), codecs=("exact", "fp"),
                          reduces=(1.0, 2.0), searches=("gnat", "egnat"),
                          target_ks=(5,), lc_buckets=(10,))
    assert oracle_check(spec) == []


def test_oracle_check_reports_injected_fault(monkeypatch):
    # egnat drops one result of every query; gnat, AESA and LC stay exact
    real = search._range_search

    def lossy(tree, query, metric, egnat):
        stats = real(tree, query, metric, egnat)
        if egnat:
            stats.results.pop()
        return stats

    monkeypatch.setattr(search, "_range_search", lossy)
    spec = ExperimentSpec(n=160, dim=4, queries=10, seeds=(0, 1),
                          indexes=("gnatty", "aesa", "lc"), codecs=("exact", "fp"),
                          searches=("gnat", "egnat"), target_ks=(5,), lc_buckets=(10,))
    assert oracle_check(spec) == [
        f"seed={seed} k=5 gnatty partition=ball arity=alpha:0.5 gamma=0.9 bucket=0 "
        f"codec={codec} reduce=1 search=egnat"
        for seed in (0, 1) for codec in ("exact", "fp")]


def test_oracle_check_scans_each_query_once(monkeypatch):
    # one linear scan per (seed, calibrated workload, query), however many
    # variants and search modes share it; the infeasible k=5000 workload is skipped
    calls = []

    def counting(database, obj, radius, metric):
        calls.append(radius)
        return linear_scan_range(database, obj, radius, metric)

    monkeypatch.setattr(bench, "linear_scan_range", counting)
    spec = ExperimentSpec(n=160, dim=4, queries=10, seeds=(0, 1),
                          indexes=("gnatty", "gnat", "aesa", "lc"), codecs=("exact", "fp"),
                          searches=("gnat", "egnat"), target_ks=(5, 5000), radii=(0.3,),
                          lc_buckets=(10,))
    assert oracle_check(spec) == []
    assert len(calls) == 2 * 2 * 10


def test_resolve_fp_params_for_edit():
    from gnatty import generate_random_words

    words = generate_random_words(60, seed=1)
    spec = ExperimentSpec(metric="edit", n=60, queries=5)
    params = resolve_fp_params(spec, words)
    assert params.beta == 1.0
    longest = max(len(w) for w in words)
    assert decode_lut(params)[params.max_code] >= longest
