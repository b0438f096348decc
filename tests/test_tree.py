import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnatty.tree
from gnatty import (Bucket, BuildConfig, ConfigError, ConstantArity, Dataset,
                    DistanceCounter, EuclideanMetric, FixedPointParams, GnatNode,
                    MetricSpace, PowerArity, ball_partition, build,
                    compute_range_table, encode_table, generate_uniform_vectors,
                    hyperplane_partition, iter_nodes,
                    table_bytes, table_entry_count, with_fixed_point)
from gnatty.datasets import rng_stream
from gnatty.tree import arity_for, ball_capacity, child_layout, node_distances, select_pivots

EUCLID = EuclideanMetric()


def line_dataset(*values):
    return Dataset([(float(v),) for v in values])


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


class _PairRecorder(MetricSpace):
    """Euclidean distance recording the (a, b) object ids of every call;
    batches take the one-call-per-object default."""

    name = "pairs"

    def __init__(self, dataset):
        self.ids = {id(obj): i for i, obj in enumerate(dataset)}
        self.pairs = []

    def distance(self, a, b) -> float:
        self.pairs.append((self.ids[id(a)], self.ids[id(b)]))
        return EUCLID.distance(a, b)


# ---------------------------------------------------------------- arity


def test_arity_examples():
    assert arity_for(65536, PowerArity(0.5)) == 256
    assert arity_for(1000, ConstantArity(8)) == 8
    assert arity_for(5, PowerArity(0.5)) == 2
    assert arity_for(3, ConstantArity(8)) == 3   # clamped to node size
    assert arity_for(2, PowerArity(0.1)) == 2    # clamp from below


def test_build_config_validation():
    for bad in (dict(partition="x"), dict(bucket_size=-1)):
        with pytest.raises(ConfigError):
            BuildConfig(arity=ConstantArity(2), **bad)


def test_arity_policy_validation():
    with pytest.raises(ConfigError):
        ConstantArity(1)
    with pytest.raises(ConfigError):
        PowerArity(0.0)
    with pytest.raises(ConfigError):
        PowerArity(1.5)


# ---------------------------------------------------------------- pivots


def test_select_pivots():
    rng = rng_stream(0, "pivots")
    ids = [10, 20, 30, 40]
    assert select_pivots(ids, 4, rng) == [10, 20, 30, 40]
    single = select_pivots(ids, 1, rng_stream(5, "pivots"))
    assert len(single) == 1 and single[0] in ids
    a = select_pivots(list(range(100)), 10, rng_stream(3, "pivots"))
    b = select_pivots(list(range(100)), 10, rng_stream(3, "pivots"))
    assert a == b and a == sorted(a) and len(set(a)) == 10


# ---------------------------------------------------------------- partitions


def test_node_distances_rows():
    # centers at 0 and 4, objects at 3 and 5
    ds = line_dataset(0.0, 4.0, 3.0, 5.0)
    counter = DistanceCounter(EUCLID)
    dist = node_distances([0, 1], [0, 1], [2, 3], ds, counter)
    # every center, then every object; the own entry an uncharged 0.0
    assert dist.tolist() == [[0.0, 4.0, 3.0, 5.0], [4.0, 0.0, 1.0, 1.0]]
    assert counter.count == 2 * (2 - 1 + 2)
    recorder = _PairRecorder(ds)
    assert node_distances([0, 1], [1], [3, 2], ds, recorder).tolist() == [[4.0, 0.0, 1.0, 1.0]]
    # (pivot, object) argument order, in layout order
    assert recorder.pairs == [(1, 0), (1, 3), (1, 2)]


def test_hyperplane_examples():
    ds = line_dataset(0.0, 1.0, 0.25, 0.75)
    assert hyperplane_partition([], [0, 1], [None, None], ds, EUCLID).tolist() == []
    assert hyperplane_partition([2, 3], [0, 1], [None, None], ds, EUCLID).tolist() == [0, 1]
    assert hyperplane_partition([3, 2], [0, 1], [None, None], ds, EUCLID).tolist() == [1, 0]
    # the same cells from known rows
    rows = node_distances([0, 1], [0, 1], [2, 3], ds, EUCLID)[:, 2:]
    assert hyperplane_partition([2, 3], [0, 1], list(rows), ds, EUCLID).tolist() == [0, 1]


def test_hyperplane_tie_goes_to_lower_position():
    ds = line_dataset(0.0, 1.0, 0.5)
    assert hyperplane_partition([2], [0, 1], [None, None], ds, EUCLID).tolist() == [0]


def test_hyperplane_eval_count():
    ds = generate_uniform_vectors(40, 3, seed=0)
    counter = DistanceCounter(EUCLID)
    hyperplane_partition(list(range(5, 40)), [0, 1, 2, 3, 4], [None] * 5, ds, counter)
    assert counter.count == 35 * 5


def test_ball_capacity_examples():
    assert ball_capacity(100, 4, 1.0) == 25
    assert ball_capacity(100, 4, 0.5) == 3
    assert ball_capacity(0, 4, 0.9) == 1


def test_ball_partition_sizes():
    ds = generate_uniform_vectors(104, 4, seed=2)
    centers = [100, 101, 102, 103]
    objects = list(range(100))
    for gamma, first_sizes, last in [(1.0, 25, 25), (0.5, 3, 91)]:
        labels = ball_partition(objects, centers, gamma, [None] * 4, ds, EUCLID)
        assert np.bincount(labels, minlength=4).tolist() == [first_sizes] * 3 + [last]


def test_ball_partition_takes_nearest():
    # center 0 at x=0 must claim the two closest objects
    ds = line_dataset(0.0, 10.0, 1.0, 2.0, 9.0, 8.0)
    recorder = _PairRecorder(ds)
    labels = ball_partition([2, 3, 4, 5], [0, 1], 1.0, [None, None], ds, recorder)
    assert labels.tolist() == [0, 0, 1, 1]
    # the first center measured every unclaimed object; the last, nothing
    assert recorder.pairs == [(0, 2), (0, 3), (0, 4), (0, 5)]


def test_ball_partition_tie_prefers_lower_id():
    ds = line_dataset(0.0, 5.0, 1.0, -1.0, 2.0)
    # objects 2 and 3 are both at distance 1 from center 0; capacity 1
    labels = ball_partition([2, 3, 4], [0, 1], 0.001, [None, None], ds, EUCLID)
    assert labels.tolist() == [0, 1, 1]
    # the tie goes by id, not by position
    assert ball_partition([3, 2, 4], [0, 1], 0.001, [None, None], ds, EUCLID).tolist() == [1, 0, 1]
    # the same tie from a known row
    row = node_distances([0, 1], [0], [2, 3, 4], ds, EUCLID)[0, 2:]
    assert ball_partition([2, 3, 4], [0, 1], 0.001, [row, None], ds, EUCLID).tolist() == [0, 1, 1]


def test_ball_balance_property():
    ds = generate_uniform_vectors(500, 5, seed=8)
    objects = list(range(9, 500))
    centers = list(range(9))
    recorder = _PairRecorder(ds)
    labels = ball_partition(objects, centers, 1.0, [None] * 9, ds, recorder)
    expected = max(1, math.ceil(len(objects) / 9))
    assert all(size == expected for size in np.bincount(labels, minlength=9)[:-1])
    # each center measured just the objects still unclaimed at its turn
    measured = [sum(1 for a, _ in recorder.pairs if a == c) for c in centers]
    assert measured == [len(objects) - i * expected for i in range(8)] + [0]


def test_known_rows_are_not_measured_again():
    ds = generate_uniform_vectors(60, 3, seed=5)
    centers, objects = [0, 1, 2, 3, 4], list(range(5, 60))
    rows = node_distances(centers, [1, 3], objects, ds, EUCLID)[:, 5:]
    known = [None, rows[0], None, rows[1], None]
    for partition in (lambda metric: hyperplane_partition(objects, centers, known, ds, metric),
                      lambda metric: ball_partition(objects, centers, 0.9, known, ds, metric)):
        recorder = _PairRecorder(ds)
        assert np.array_equal(partition(recorder), partition(EUCLID))
        assert {a for a, _ in recorder.pairs}.isdisjoint({1, 3})


def test_ball_center_without_row_measures_only_unclaimed_objects():
    ds = generate_uniform_vectors(80, 2, seed=11)
    centers, objects = [0, 1, 2, 3], list(range(4, 80))
    rows = node_distances(centers, [0, 2], objects, ds, EUCLID)[:, 4:]
    recorder = _PairRecorder(ds)
    labels = ball_partition(objects, centers, 1.0, [rows[0], None, rows[1], None], ds, recorder)
    assert np.array_equal(labels, ball_partition(objects, centers, 1.0, [None] * 4, ds, EUCLID))
    # center 1 measures what ball 0 left, in object order; the last center nothing
    assert recorder.pairs == [(1, oid) for oid, j in zip(objects, labels) if j != 0]


# ---------------------------------------------------------------- range table


# Scalar per-pair reference versions of the three batched build phases.
# The batched code must match them exactly: same assignments, same table
# floats, same evaluation counts.


def _ref_hyperplane(object_ids, center_ids, dataset, metric):
    assigned = [[] for _ in center_ids]
    for oid in object_ids:
        best, best_pos = math.inf, 0
        for pos, cid in enumerate(center_ids):
            d = metric.distance(dataset[oid], dataset[cid])
            if d < best:
                best, best_pos = d, pos
        assigned[best_pos].append(oid)
    return assigned


def _ref_ball(object_ids, center_ids, gamma, dataset, metric):
    capacity = ball_capacity(len(object_ids), len(center_ids), gamma)
    remaining, assigned = list(object_ids), []
    for cid in center_ids[:-1]:
        ranked = sorted((metric.distance(dataset[oid], dataset[cid]), oid) for oid in remaining)
        taken = {oid for _, oid in ranked[:capacity]}
        assigned.append([oid for oid in remaining if oid in taken])
        remaining = [oid for oid in remaining if oid not in taken]
    return assigned + [remaining]


def _ref_range_table(measuring_ids, center_ids, partitions, dataset, metric):
    lo = np.zeros((len(measuring_ids), len(center_ids)))
    hi = np.zeros_like(lo)
    for i, pid in enumerate(measuring_ids):
        for j, cid in enumerate(center_ids):
            ds = [0.0 if pid == cid else metric.distance(dataset[pid], dataset[cid])]
            ds += [metric.distance(dataset[pid], dataset[oid]) for oid in partitions[j]]
            lo[i, j], hi[i, j] = min(ds), max(ds)
    return lo, hi


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 80), m=st.integers(1, 9),
       gamma=st.sampled_from([0.3, 0.9, 1.0]), grid=st.booleans())
def test_batched_phases_match_scalar_reference(seed, n, m, gamma, grid):
    rng = np.random.default_rng(seed)
    # a coarse integer grid makes distance ties common
    coords = rng.integers(0, 3, size=(n, 2)) if grid else rng.random((n, 3))
    dataset = Dataset([tuple(map(float, row)) for row in coords.tolist()])
    m = min(m, n - 1)
    ids = rng.permutation(n).tolist()
    centers, objects = sorted(ids[:m]), ids[m:]  # objects in shuffled order
    positions = list(range(0, m, 2))
    measuring = [centers[p] for p in positions]
    # the pairs a measuring center's row holds that its partition step measures
    for partition, reference, reused in (
            (lambda known, c: hyperplane_partition(objects, centers, known, dataset, c),
             lambda c: _ref_hyperplane(objects, centers, dataset, c),
             lambda parts: len(positions) * len(objects)),
            (lambda known, c: ball_partition(objects, centers, gamma, known, dataset, c),
             lambda c: _ref_ball(objects, centers, gamma, dataset, c),
             lambda parts: sum(len(objects) - sum(map(len, parts[:p]))
                               for p in positions if p < m - 1))):
        batched, scalar = DistanceCounter(EUCLID), DistanceCounter(EUCLID)
        labels = partition([None] * m, batched)
        parts = reference(scalar)
        assert batched.count == scalar.count
        full = batched.count
        # the children the labels lay out are the reference's cells
        order, starts, children = child_layout(labels, centers, objects)
        assert children == parts
        # the table rows: every (pivot, center or object) pair once, self uncharged
        batched, scalar = DistanceCounter(EUCLID), DistanceCounter(EUCLID)
        dist = node_distances(centers, positions, objects, dataset, batched)
        lo, hi = _ref_range_table(measuring, centers, parts, dataset, scalar)
        assert batched.count == scalar.count == len(positions) * (m - 1 + len(objects))
        table = compute_range_table(dist, order, starts)
        assert np.array_equal(table.lo, lo) and np.array_equal(table.hi, hi)
        # from known rows, the same cells, less exactly the pairs the rows hold
        known = [None] * m
        for pos, row in zip(positions, dist):
            known[pos] = row[m:]
        batched = DistanceCounter(EUCLID)
        assert np.array_equal(partition(known, batched), labels)
        assert batched.count == full - reused(parts)


def test_range_table_examples():
    # centers at 0 and 4; objects 3 and 5 live under the center at 4
    ds = line_dataset(0.0, 4.0, 3.0, 5.0)
    counter = DistanceCounter(EUCLID)
    dist = node_distances([0, 1], [0, 1], [2, 3], ds, counter)
    order, starts, children = child_layout(np.array([1, 1]), [0, 1], [2, 3])
    # each child's center first: center 0 alone, then center 1 with objects 2 and 3
    assert (order.tolist(), starts.tolist(), children) == ([0, 1, 2, 3], [0, 1], [[], [2, 3]])
    table = compute_range_table(dist, order, starts)
    lo, hi = table.decoded_bounds()
    assert lo[0][0] == hi[0][0] == 0.0          # self, empty child
    assert (lo[0][1], hi[0][1]) == (3.0, 5.0)
    assert lo[1][0] == hi[1][0] == 4.0          # singleton child set
    # evals: every (pivot, object) pair once, minus the two d(x,x) shortcuts;
    # the table itself measures nothing
    assert counter.count == 2 * (1 + 3) - 2
    # the same node from each partition: with both rows known, neither
    # partition measures anything
    known = list(dist[:, 2:])
    labels = hyperplane_partition([2, 3], [0, 1], known, ds, counter)
    assert labels.tolist() == [1, 1]
    table = compute_range_table(dist, *child_layout(labels, [0, 1], [2, 3])[:2])
    assert table.decoded_bounds() == ([[0.0, 3.0], [4.0, 0.0]], [[0.0, 5.0], [4.0, 1.0]])
    labels = ball_partition([2, 3], [0, 1], 1.0, known, ds, counter)
    assert labels.tolist() == [0, 1]           # capacity 1: the center at 0 claims 3.0
    order, starts, children = child_layout(labels, [0, 1], [2, 3])
    assert (order.tolist(), starts.tolist(), children) == ([0, 2, 1, 3], [0, 2], [[2], [3]])
    table = compute_range_table(dist, order, starts)
    assert table.decoded_bounds() == ([[0.0, 4.0], [1.0, 0.0]], [[3.0, 5.0], [4.0, 1.0]])
    assert counter.count == 6
    # a reduced table: one row, children laid out in object order
    counter = DistanceCounter(EUCLID)
    dist = node_distances([0, 1], [1], [3, 2], ds, counter)
    labels = hyperplane_partition([3, 2], [0, 1], [None, dist[0, 2:]], ds, counter)
    assert labels.tolist() == [1, 1]
    order, starts, children = child_layout(labels, [0, 1], [3, 2])
    assert children == [[], [3, 2]]
    table = compute_range_table(dist, order, starts)
    assert table.decoded_bounds() == ([[4.0, 0.0]], [[4.0, 1.0]])
    assert counter.count == 3 + 2              # row of center 1, then center 0's cells


def test_encode_table_marks_saturation():
    lo = np.array([[0.0]])
    hi = np.array([[5000.0]])
    from gnatty.tree import RangeTable

    params = FixedPointParams(8, 2, 0.2)
    coded = encode_table(RangeTable(lo, hi), params)
    assert coded.hi[0, 0] == params.max_code
    assert coded.decoded_bounds()[1][0][0] == math.inf


# ---------------------------------------------------------------- build


@pytest.mark.parametrize("partition", ["hyperplane", "ball"])
def test_build_phases_are_looked_up_at_call_time(monkeypatch, partition):
    # the traced benchmark times the build phases by rebinding these
    # gnatty.tree attributes; each must run once per internal node
    calls = dict.fromkeys(["hyperplane_partition", "ball_partition",
                           "compute_range_table", "encode_table"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(gnatty.tree, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gnatty.tree, name, counted)
    ds = generate_uniform_vectors(120, 3, seed=3)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), partition=partition,
                                         reduce_factor=2.0,
                                         fixed_point=FixedPointParams(8, 2, 0.2), seed=3))
    nodes = len(list(iter_nodes(tree.root)))
    assert nodes > 1
    assert calls == {"hyperplane_partition": nodes if partition == "hyperplane" else 0,
                     "ball_partition": nodes if partition == "ball" else 0,
                     "compute_range_table": nodes, "encode_table": nodes}


def test_build_single_object_is_leaf():
    ds = generate_uniform_vectors(1, 3, seed=0)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4)))
    assert isinstance(tree.root, Bucket) and tree.root.object_ids == [0]
    assert table_entry_count(tree) == 0


def test_build_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        build(Dataset([]), EUCLID, BuildConfig(arity=ConstantArity(4)))


def test_build_negative_seed_rejected():
    ds = generate_uniform_vectors(20, 2, seed=0)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), seed=-1))
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        rng_stream(-3, "pivots")


def test_build_degenerate_all_centers():
    ds = generate_uniform_vectors(16, 4, seed=1)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(16)))
    root = tree.root
    assert isinstance(root, GnatNode)
    assert root.centers == list(range(16))
    assert all(isinstance(c, Bucket) and not c.object_ids for c in root.children)
    assert np.array_equal(root.table.lo, root.table.hi)
    assert table_entry_count(tree) == 256


def test_alpha_one_degenerates_to_flat_symmetric_table():
    ds = generate_uniform_vectors(60, 5, seed=4)
    tree = build(ds, EUCLID, BuildConfig(arity=PowerArity(1.0), seed=4))
    root = tree.root
    assert isinstance(root, GnatNode) and len(root.centers) == 60
    assert np.array_equal(root.table.lo, root.table.hi)
    assert np.array_equal(root.table.lo, root.table.lo.T)


def test_bucket_size_stops_recursion():
    ds = generate_uniform_vectors(100, 3, seed=2)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), bucket_size=20, seed=0))
    for node in iter_nodes(tree.root):
        for child in node.children:
            if isinstance(child, Bucket):
                assert len(child.object_ids) <= 20


def test_reduced_tables_shape():
    ds = generate_uniform_vectors(400, 4, seed=3)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(9), reduce_factor=2.0, seed=1))
    for node in iter_nodes(tree.root):
        m = len(node.centers)
        assert len(node.measuring_set) == math.ceil(m / 2.0)
        assert node.table.lo.shape[0] == len(node.measuring_set)
        assert node.table.lo.shape[1] == m
        assert node.measuring_set == sorted(node.measuring_set)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n=st.integers(1, 50),
       partition=st.sampled_from(["hyperplane", "ball"]),
       constant=st.booleans(),
       reduce_factor=st.sampled_from([1.0, 2.0, 3.0]),
       bucket=st.sampled_from([0, 3]))
def test_partition_completeness(seed, n, partition, constant, reduce_factor, bucket):
    ds = generate_uniform_vectors(n, 2, seed=seed)
    arity = ConstantArity(3) if constant else PowerArity(0.5)
    config = BuildConfig(arity=arity, partition=partition, bucket_size=bucket,
                         reduce_factor=reduce_factor, seed=seed)
    tree = build(ds, EUCLID, config)
    assert sorted(subtree_object_ids(tree.root)) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n=st.integers(1, 60),
       partition=st.sampled_from(["hyperplane", "ball"]),
       constant=st.booleans(),
       reduce_factor=st.sampled_from([1.0, 2.0]),
       fixed_point=st.booleans())
def test_build_measures_each_pair_once(seed, n, partition, constant, reduce_factor,
                                       fixed_point):
    ds = generate_uniform_vectors(n, 3, seed=seed)
    recorder = _PairRecorder(ds)
    config = BuildConfig(arity=ConstantArity(3) if constant else PowerArity(0.5),
                         partition=partition, reduce_factor=reduce_factor,
                         fixed_point=FixedPointParams(8, 2, 0.2) if fixed_point else None,
                         seed=seed)
    tree = build(ds, recorder, config)
    assert tree.build_distance_evals == len(recorder.pairs)
    assert len(set(recorder.pairs)) == len(recorder.pairs)


def _assert_table_sound(tree, metric):
    ds = tree.dataset
    for node in iter_nodes(tree.root):
        lo_rows, hi_rows = node.table.decoded_bounds()
        for row, pos in enumerate(node.measuring_set):
            pivot = ds[node.centers[pos]]
            for col, center in enumerate(node.centers):
                lo, hi = lo_rows[row][col], hi_rows[row][col]
                members = [center] + subtree_object_ids(node.children[col])
                for oid in members:
                    d = metric.distance(pivot, ds[oid])
                    assert lo <= d + 1e-12
                    assert d <= hi + 1e-12 or hi == math.inf


def test_table_soundness_exact_and_fixed_point():
    ds = generate_uniform_vectors(600, 6, seed=6)
    tree = build(ds, EUCLID, BuildConfig(arity=PowerArity(0.5), partition="ball", seed=6))
    _assert_table_sound(tree, EUCLID)
    fp_tree = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    _assert_table_sound(fp_tree, EUCLID)
    # decoded fixed-point bounds must bracket the exact ones
    for node, fp_node in zip(iter_nodes(tree.root), iter_nodes(fp_tree.root)):
        lo_f, hi_f = fp_node.table.decoded_bounds()
        for i in range(node.table.lo.shape[0]):
            for j in range(node.table.lo.shape[1]):
                assert lo_f[i][j] <= node.table.lo[i, j] + 1e-12
                assert hi_f[i][j] >= node.table.hi[i, j] - 1e-12


@pytest.mark.parametrize("partition", ["hyperplane", "ball"])
@pytest.mark.parametrize("arity", [ConstantArity(3), PowerArity(0.5)])
@pytest.mark.parametrize("reduce_factor", [1.0, 2.0])
@pytest.mark.parametrize("bucket", [0, 3])
def test_fixed_point_build_is_the_exact_trees_twin(partition, arity, reduce_factor, bucket):
    ds = generate_uniform_vectors(150, 3, seed=5)
    params = FixedPointParams(8, 2, 0.2)
    exact_config = BuildConfig(arity=arity, partition=partition, bucket_size=bucket,
                               reduce_factor=reduce_factor, seed=5)
    fp_config = dataclasses.replace(exact_config, fixed_point=params)
    exact = build(ds, EUCLID, exact_config)
    built, twin = build(ds, EUCLID, fp_config), with_fixed_point(exact, params)
    assert built.config == twin.config == fp_config
    assert built.build_distance_evals == twin.build_distance_evals == exact.build_distance_evals
    stack = [(built.root, twin.root, exact.root)]
    while stack:
        a, b, x = stack.pop()
        if isinstance(x, Bucket):
            assert a.object_ids == b.object_ids == x.object_ids
            assert b is x  # the twin shares the exact tree's buckets
            continue
        assert a.centers == b.centers == x.centers
        assert a.measuring_set == b.measuring_set == x.measuring_set
        assert b.centers is x.centers and b.measuring_set is x.measuring_set
        assert a.table == b.table == encode_table(x.table, params)
        assert len(a.children) == len(b.children) == len(x.children)
        stack.extend(zip(a.children, b.children, x.children))


def test_build_deterministic_per_seed():
    ds = generate_uniform_vectors(200, 4, seed=9)
    config = BuildConfig(arity=PowerArity(0.5), partition="ball", seed=21)
    t1, t2 = build(ds, EUCLID, config), build(ds, EUCLID, config)

    def same(a, b):
        if isinstance(a, Bucket) or isinstance(b, Bucket):
            return isinstance(a, Bucket) and isinstance(b, Bucket) and a.object_ids == b.object_ids
        return (a.centers == b.centers and a.measuring_set == b.measuring_set
                and a.table == b.table
                and all(same(x, y) for x, y in zip(a.children, b.children)))

    assert same(t1.root, t2.root)
    assert t1.build_distance_evals == t2.build_distance_evals


# ---------------------------------------------------------------- size/cost scaling


@pytest.fixture(scope="module")
def power_trees():
    trees = {}
    for n in (1000, 10_000):
        ds = generate_uniform_vectors(n, 8, seed=13)
        trees[n] = build(ds, EUCLID, BuildConfig(arity=PowerArity(0.5), seed=13))
    return trees


def test_entry_count_linear_in_nm():
    for n in (1000, 10_000):
        ds = generate_uniform_vectors(n, 8, seed=13)
        for m in (4, 16):
            tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(m), seed=13))
            assert table_entry_count(tree) <= 2 * n * m


def test_build_evals_follow_sqrt_recurrence(power_trees):
    def model(n):
        if n < 4:
            return 0.0
        root = int(n**0.5 + 0.5)
        return n**1.5 + root * model(root)

    ratios = {n: power_trees[n].build_distance_evals / model(n) for n in power_trees}
    assert max(ratios.values()) / min(ratios.values()) < 2.0


def test_space_scaling_loglog(power_trees):
    ratios = [table_entry_count(tree) / (n * math.log2(math.log2(n)))
              for n, tree in power_trees.items()]
    assert max(ratios) / min(ratios) < 2.0


def test_fixed_point_tables_are_not_encoded_again():
    ds = generate_uniform_vectors(40, 3, seed=1)
    params = FixedPointParams(8, 2, 0.2)
    twin = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), fixed_point=params, seed=1))
    with pytest.raises(ConfigError, match="already fixed-point"):
        with_fixed_point(twin, params)
    with pytest.raises(ConfigError, match="already fixed-point"):
        encode_table(twin.root.table, params)


@pytest.mark.parametrize("arity", [ConstantArity(8), PowerArity(0.5)])
@pytest.mark.parametrize("reduce_factor", [1.0, 2.0])
def test_hyperplane_trees_ignore_gamma(arity, reduce_factor):
    # gamma sets ball capacities only, so the acceptance suite builds
    # hyperplane trees for one gamma
    ds = generate_uniform_vectors(300, 4, seed=6)
    a, b = (build(ds, EUCLID, BuildConfig(arity=arity, gamma=gamma, reduce_factor=reduce_factor,
                                          seed=6)) for gamma in (0.9, 1.0))
    assert a.root == b.root
    assert a.build_distance_evals == b.build_distance_evals


def test_fp_build_equals_reencoded_exact_tree():
    ds = generate_uniform_vectors(250, 5, seed=14)
    params = FixedPointParams(8, 2, 0.2)
    base = dict(arity=PowerArity(0.5), partition="ball", seed=14)
    direct = build(ds, EUCLID, BuildConfig(**base, fixed_point=params))
    twin = with_fixed_point(build(ds, EUCLID, BuildConfig(**base)), params)
    for a, b in zip(iter_nodes(direct.root), iter_nodes(twin.root)):
        assert a.centers == b.centers and a.table == b.table


def test_fixed_point_quarters_table_bytes(power_trees):
    tree = power_trees[1000]
    fp_tree = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    assert table_entry_count(fp_tree) == table_entry_count(tree)
    assert table_bytes(fp_tree) * 4 == table_bytes(tree)
