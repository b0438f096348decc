"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import statistics
import time

import numpy as np

from gnatty import (BuildConfig, ConstantArity,
                    EditDistanceMetric, EuclideanMetric, FixedPointParams, GnatNode,
                    PowerArity, RangeQuery, aesa_build, aesa_range_search,
                    ball_partition, build, calibrate_radius, cli, edit_distance,
                    egnat_range_search, generate_random_words, generate_uniform_vectors,
                    gnat_range_search, knn_search, lc_build, lc_range_search,
                    linear_scan_knn, linear_scan_range, split_queries, table_bytes,
                    table_entry_count, with_fixed_point)

EUCLID = EuclideanMetric()
Q28 = FixedPointParams(total_bits=8, magnitude_bits=2, beta=1 / 5)


def _report(num: int, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _workload(total, queries, dim, seed, target_k=10):
    dataset = generate_uniform_vectors(total, dim, seed=seed)
    query_set, database = split_queries(dataset, queries, seed)
    radii = [calibrate_radius(database, EUCLID, q, target_k) for q in query_set]
    return query_set, database, radii


def test_criterion_1_master_oracle_exactness():
    started = time.perf_counter()
    mismatches = []
    variants = set()
    for seed in range(5):
        query_set, database, radii = _workload(2100, 100, 10, seed)
        expected = [linear_scan_range(database, q, r, EUCLID)
                    for q, r in zip(query_set, radii)]

        def check(label, run):
            for q, r, want in zip(query_set, radii, expected):
                if run(q, r).results != want:
                    mismatches.append(f"seed={seed} {label}")
                    return

        for partition, arity, gamma, reduce_factor in itertools.product(
                ("hyperplane", "ball"), (ConstantArity(8), PowerArity(0.5)),
                (0.9, 1.0), (1.0, 2.0)):
            if partition == "hyperplane" and gamma != 0.9:
                continue  # gamma sets ball capacities only
            exact_tree = build(database, EUCLID, BuildConfig(
                arity=arity, partition=partition, gamma=gamma,
                reduce_factor=reduce_factor, seed=seed))
            for codec, tree in (("exact", exact_tree),
                                ("fp", with_fixed_point(exact_tree, Q28))):
                for mode, search in (("gnat", gnat_range_search),
                                     ("egnat", egnat_range_search)):
                    label = (f"{partition}/{arity}/gamma={gamma}/"
                             f"reduce={reduce_factor}/{codec}/{mode}")
                    variants.add(label)
                    check(label, lambda q, r, t=tree, s=search:
                          s(t, RangeQuery(q, r), EUCLID))

        matrix = aesa_build(database, EUCLID)
        check("aesa", lambda q, r: aesa_range_search(matrix, database,
                                                     RangeQuery(q, r), EUCLID))
        clusters = lc_build(database, EUCLID, 32)
        check("lc", lambda q, r: lc_range_search(clusters, RangeQuery(q, r), EUCLID))

    elapsed = time.perf_counter() - started
    _report(1, not mismatches,
            f"5 seeds x {len(variants)} tree variants + aesa + lc, 100 queries each, "
            f"{elapsed:.1f}s; mismatches: {mismatches or 'none'}")


def test_criterion_2_aesa_degeneracy():
    query_set, database, radii = _workload(600, 100, 10, seed=2)
    tree = build(database, EUCLID, BuildConfig(arity=PowerArity(1.0), seed=2))
    root = tree.root
    single_node = isinstance(root, GnatNode) and len(root.centers) == len(database) \
        and all(not child.object_ids for child in root.children)
    lo_hi_equal = bool(np.array_equal(root.table.lo, root.table.hi))
    symmetric = bool(np.array_equal(root.table.lo, root.table.lo.T))
    matrix = aesa_build(database, EUCLID)
    gnat_total = aesa_total = 0
    results_agree = True
    for q, r in zip(query_set, radii):
        a = gnat_range_search(tree, RangeQuery(q, r), EUCLID)
        b = aesa_range_search(matrix, database, RangeQuery(q, r), EUCLID)
        gnat_total += a.distance_evals
        aesa_total += b.distance_evals
        results_agree &= a.results == b.results
    ok = single_node and lo_hi_equal and symmetric and results_agree \
        and gnat_total == aesa_total
    _report(2, ok, f"single_node={single_node} lo==hi={lo_hi_equal} "
                   f"symmetric={symmetric} evals {gnat_total} vs {aesa_total} (exact equality)")


def test_criterion_3_space_scaling_loglog():
    started = time.perf_counter()
    ratios = {}
    for n in (1_000, 10_000, 100_000):
        dataset = generate_uniform_vectors(n, 8, seed=3)
        tree = build(dataset, EUCLID, BuildConfig(arity=PowerArity(0.5), seed=3))
        ratios[n] = table_entry_count(tree) / (n * math.log2(math.log2(n)))
    spread = max(ratios.values()) / min(ratios.values())
    elapsed = time.perf_counter() - started
    _report(3, spread < 2.0,
            f"entries/(n*log2log2n) = {({k: round(v, 3) for k, v in ratios.items()})}, "
            f"spread {spread:.2f}x < 2x, {elapsed:.1f}s (budget 300s)")


def test_criterion_4_fixed_point_space_and_safety():
    query_set, database, radii = _workload(2100, 100, 10, seed=4)
    exact_tree = build(database, EUCLID, BuildConfig(
        arity=PowerArity(0.5), partition="ball", seed=4))
    fp_tree = with_fixed_point(exact_tree, Q28)
    bytes_exact, bytes_fp = table_bytes(exact_tree), table_bytes(fp_tree)
    quarter = bytes_fp * 4 == bytes_exact
    identical = True
    evals_exact = evals_fp = 0
    for q, r in zip(query_set, radii):
        a = gnat_range_search(exact_tree, RangeQuery(q, r), EUCLID)
        b = gnat_range_search(fp_tree, RangeQuery(q, r), EUCLID)
        identical &= a.results == b.results
        evals_exact += a.distance_evals
        evals_fp += b.distance_evals
    overhead = (evals_fp - evals_exact) / evals_exact * 100
    ok = quarter and identical and evals_fp >= evals_exact
    _report(4, ok, f"bytes {bytes_fp:.0f} = {bytes_exact:.0f}/4: {quarter}; "
                   f"identical results: {identical}; evals {evals_exact} -> {evals_fp} "
                   f"(overhead {overhead:+.1f}%, reported not thresholded)")


def test_criterion_5_alpha_trend():
    started = time.perf_counter()
    query_set, database, radii = _workload(10_100, 100, 12, seed=5)
    medians = {}
    for alpha in (0.3, 0.5, 0.7):
        tree = build(database, EUCLID, BuildConfig(
            arity=PowerArity(alpha), partition="ball", gamma=0.9, seed=5))
        evals = [gnat_range_search(tree, RangeQuery(q, r), EUCLID).distance_evals
                 for q, r in zip(query_set, radii)]
        medians[alpha] = statistics.median(evals)
    elapsed = time.perf_counter() - started
    ok = medians[0.5] <= medians[0.3] * 1.05 and medians[0.7] <= medians[0.5] * 1.05
    _report(5, ok, f"median evals {medians} non-increasing within 5%, "
                   f"{elapsed:.1f}s (budget 180s)")


def test_criterion_6_egnat_gap_grows_with_arity():
    query_set, database, radii = _workload(10_100, 100, 10, seed=6)
    gaps = {}
    ordered = True
    for m in (8, 32):
        tree = build(database, EUCLID, BuildConfig(arity=ConstantArity(m), seed=6))
        gnat_total = egnat_total = 0
        for q, r in zip(query_set, radii):
            gnat_total += gnat_range_search(tree, RangeQuery(q, r), EUCLID).distance_evals
            egnat_total += egnat_range_search(tree, RangeQuery(q, r), EUCLID).distance_evals
        gaps[m] = egnat_total - gnat_total
        if m == 32:
            ordered = egnat_total >= gnat_total
    ok = ordered and gaps[32] > gaps[8]
    _report(6, ok, f"egnat-gnat eval gap: m=8 -> {gaps[8]}, m=32 -> {gaps[32]}; "
                   f"egnat >= gnat at m=32: {ordered}")


def test_criterion_7_ball_partition_structure():
    dataset = generate_uniform_vectors(500, 6, seed=7)
    centers = list(range(8))
    objects = list(range(8, 500))
    m = len(centers)
    balanced = np.bincount(ball_partition(objects, centers, 1.0, [None] * m, dataset, EUCLID),
                           minlength=m)
    expected = max(1, math.ceil(len(objects) / m))
    first_ok = all(size == expected for size in balanced[:-1])
    skewed = np.bincount(ball_partition(objects, centers, 0.9, [None] * m, dataset, EUCLID),
                         minlength=m)
    unbalanced = skewed[-1] > balanced[-1]
    _report(7, first_ok and unbalanced,
            f"gamma=1 first {m - 1} children all {expected}; last child "
            f"{balanced[-1]} -> {skewed[-1]} under gamma=0.9")


def test_criterion_8_knn_oracle():
    query_set, database, _ = _workload(2100, 100, 10, seed=8)
    tree = build(database, EUCLID, BuildConfig(arity=ConstantArity(8), seed=8))
    ok = True
    for k in (1, 10):
        oracle = [linear_scan_knn(database, q, k, EUCLID) for q in query_set]
        for mode in ("gnat", "egnat"):
            for q, want in zip(query_set, oracle):
                got, _ = knn_search(tree, q, k, EUCLID, mode=mode)
                if got != want:
                    ok = False
    _report(8, ok, "k in {1, 10}, 100 queries, both modes match brute force "
                   "(ascending distance, lower id on ties)")


def test_criterion_9_metric_and_counter_hygiene():
    def axioms_hold(metric, objects, tol):
        rng = np.random.default_rng(9)
        for i, j, k in rng.integers(0, len(objects), size=(10_000, 3)):
            x, y, z = objects[int(i)], objects[int(j)], objects[int(k)]
            dxy = metric.distance(x, y)
            if metric.distance(x, x) != 0 or dxy != metric.distance(y, x):
                return False
            if dxy > metric.distance(x, z) + metric.distance(z, y) + tol:
                return False
        return True

    vec_ok = axioms_hold(EUCLID, generate_uniform_vectors(500, 8, seed=9).objects, 1e-9)
    edit_ok = axioms_hold(EditDistanceMetric(), generate_random_words(400, seed=9).objects, 0)

    def edit_oracle(s, t):
        import functools

        @functools.cache
        def go(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(go(i - 1, j) + 1, go(i, j - 1) + 1,
                       go(i - 1, j - 1) + (s[i - 1] != t[j - 1]))

        return go(len(s), len(t))

    unit_ok = (edit_distance("kitten", "sitting") == 3 == edit_oracle("kitten", "sitting")
               and edit_distance("", "abc") == 3 and edit_distance("abc", "abc") == 0)

    database = generate_uniform_vectors(500, 8, seed=9)
    matrix = aesa_build(database, EUCLID)
    count_ok = matrix.build_distance_evals == 500 * 499 // 2
    ok = vec_ok and edit_ok and unit_ok and count_ok
    _report(9, ok, f"axioms(10^4 triples): euclid={vec_ok} edit={edit_ok}; "
                   f"edit unit vector vs oracle: {unit_ok}; "
                   f"aesa build evals == n(n-1)/2: {count_ok}")


def test_criterion_10_sweep_determinism(tmp_path):
    args = ["sweep", "--n", "520", "--dim", "6", "--queries", "20",
            "--seed", "0", "1", "--index", "gnatty", "gnat", "aesa", "lc",
            "--codec", "exact", "fp", "--reduce", "1", "2",
            "--search", "gnat", "egnat", "--target-k", "10", "--radius", "0.3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    _report(10, identical,
            f"repeated sweep CSVs byte-identical: {identical} "
            f"({len(a.read_bytes())} bytes, {len(a.read_text().splitlines()) - 1} rows)")
