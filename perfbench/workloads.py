"""The benchmark's workloads: inputs made from the seed, the structures built
over them, and the query operations run against them.

A workload's set-up function does everything before the first timed query:
dataset generation, the query split, radius calibration, every index build,
fixed-point twins and the first ``decoded_bounds()`` of every node.  Each call
into a library module goes through ``Recorder.call``, which times it and, in
the traced run, records it as a span named after the layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from gnatty import (BuildConfig, ConstantArity, EditDistanceMetric, EuclideanMetric,
                    FixedPointParams, PowerArity, RangeQuery, aesa_build,
                    aesa_range_search, build, calibrate_radius, egnat_range_search,
                    generate_random_words, generate_uniform_vectors, gnat_range_search,
                    iter_nodes, knn_search, lc_build, lc_range_search,
                    params_for_integer_range, split_queries, table_bytes,
                    table_entry_count, with_fixed_point)
from gnatty.baselines import lc_stored_reals

K = 10  # k-NN size, and radii are calibrated so a range query returns about K
QUERY_BLOCKS = 4  # a query pass answers one block; a cycle of passes answers every query
FP_VECTORS = FixedPointParams(total_bits=8, magnitude_bits=2, beta=0.2)
LC_BUCKET = 32


class Recorder:
    """Times calls into the library by span name; spans go to the tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = defaultdict(list)   # span name -> duration of each call

    def call(self, name: str, fn, *args):
        with self.tracer.span(name):
            start = time.perf_counter()
            out = fn(*args)
            self.seconds[name].append(time.perf_counter() - start)
        return out


@dataclass
class Structure:
    label: str
    build_evals: int      # a fixed-point twin re-encodes tables and measures nothing
    entries: int
    bytes: float


@dataclass
class Op:
    """One query discipline on one structure; ``run(i)`` answers query i and
    returns (answer, QueryStats): a result-id set for range queries, the
    ranked (id, distance) list for k-NN."""

    label: str
    kind: str             # "range" | "knn"
    span: str             # the layer the call belongs to
    run: Callable


@dataclass
class Setup:
    """The queries are split into QUERY_BLOCKS equal blocks, in order;
    ``block(b)`` gives the query indices of block b."""

    queries: list
    database: object
    metric: object
    radii: list[float]
    structures: list[Structure] = field(default_factory=list)
    trees: list = field(default_factory=list)     # (label, GnatTree), saved and loaded
    ops: list[Op] = field(default_factory=list)

    def __post_init__(self):
        self.range_queries = [RangeQuery(q, r) for q, r in zip(self.queries, self.radii)]

    def block(self, b: int) -> range:
        size = len(self.queries) // QUERY_BLOCKS
        return range(b * size, (b + 1) * size)

    def add_tree(self, rec, label, config):
        tree = rec.call("tree.build", build, self.database, self.metric, config)
        self._add_tree(label, tree, tree.build_distance_evals)
        return tree

    def add_twin(self, rec, label, tree, params):
        twin = rec.call("tree.build", with_fixed_point, tree, params)
        self._add_tree(label, twin, 0)
        return twin

    def _add_tree(self, label, tree, build_evals):
        self.structures.append(Structure(label, build_evals, table_entry_count(tree),
                                         table_bytes(tree)))
        self.trees.append((label, tree))

    def add_range_ops(self, label, tree, modes):
        metric, queries = self.metric, self.range_queries
        for mode in modes:
            search = gnat_range_search if mode == "gnat" else egnat_range_search

            def run(i, tree=tree, search=search):
                stats = search(tree, queries[i], metric)
                return stats.results, stats

            self.ops.append(Op(f"{label} range-{mode}", "range", "search.range", run))

    def add_knn_ops(self, label, tree, modes):
        metric, queries = self.metric, self.queries
        for mode in modes:
            def run(i, tree=tree, mode=mode):
                return knn_search(tree, queries[i], K, metric, mode)

            self.ops.append(Op(f"{label} knn-{mode}", "knn", "search.knn", run))

    def add_aesa(self, rec):
        matrix = rec.call("baselines.build", aesa_build, self.database, self.metric)
        n = len(matrix.entries)
        self.structures.append(Structure("aesa", matrix.build_distance_evals, n, n * 4.0))
        database, metric, queries = self.database, self.metric, self.range_queries

        def run(i):
            stats = aesa_range_search(matrix, database, queries[i], metric)
            return stats.results, stats

        self.ops.append(Op("aesa range", "range", "baselines.query", run))

    def add_lc(self, rec, bucket):
        clusters = rec.call("baselines.build", lc_build, self.database, self.metric, bucket)
        n = lc_stored_reals(clusters)
        label = f"lc bucket={bucket}"
        self.structures.append(Structure(label, clusters.build_distance_evals, n, n * 4.0))
        metric, queries = self.metric, self.range_queries

        def run(i):
            stats = lc_range_search(clusters, queries[i], metric)
            return stats.results, stats

        self.ops.append(Op(f"{label} range", "range", "baselines.query", run))

    def decode_all(self, rec):
        def decode():
            for _, tree in self.trees:
                for node in iter_nodes(tree.root):
                    node.table.decoded_bounds()
        rec.call("fixedpoint.decode", decode)


def _setup(rec, metric, seed, q, generate):
    dataset = rec.call("datasets", generate, seed)
    queries, database = rec.call("datasets", split_queries, dataset, q, seed)
    radii = rec.call("bench.calibrate", lambda: [
        calibrate_radius(database, metric, obj, K) for obj in queries])
    return Setup(list(queries), database, metric, radii)


def _arity_label(arity) -> str:
    return f"m={arity.m}" if isinstance(arity, ConstantArity) else f"alpha={arity.alpha:g}"


def vec2k_grid(seed: int, metric, rec: Recorder) -> Setup:
    """The parameter-sweep grid: 16 small trees, AESA and LC, 3,800 queries a cycle."""
    setup = _setup(rec, metric, seed, 100, lambda s: generate_uniform_vectors(2_100, 10, s))
    knn_trees = []
    for partition in ("hyperplane", "ball"):
        for arity in (ConstantArity(8), PowerArity(0.5)):
            for reduce_factor in (1.0, 2.0):
                label = f"{partition} {_arity_label(arity)} reduce={reduce_factor:g}"
                config = BuildConfig(arity=arity, partition=partition, gamma=0.9,
                                     reduce_factor=reduce_factor, seed=seed)
                tree = setup.add_tree(rec, label, config)
                twin = setup.add_twin(rec, label + " fp", tree, FP_VECTORS)
                setup.add_range_ops(label, tree, ("gnat", "egnat"))
                setup.add_range_ops(label + " fp", twin, ("gnat", "egnat"))
                if label in ("hyperplane m=8 reduce=1", "ball alpha=0.5 reduce=1"):
                    knn_trees.append((label, tree))
    setup.add_aesa(rec)
    setup.add_lc(rec, LC_BUCKET)
    for label, tree in knn_trees:
        setup.add_knn_ops(label, tree, ("gnat", "egnat"))
    setup.decode_all(rec)
    return setup


def vec6k_build(seed: int, metric, rec: Recorder) -> Setup:
    """Three large builds, and LC; 800 queries a cycle."""
    setup = _setup(rec, metric, seed, 100, lambda s: generate_uniform_vectors(6_100, 10, s))
    ball = dict(arity=PowerArity(0.5), partition="ball", gamma=0.9, seed=seed)
    trees = [
        ("ball alpha=0.5", BuildConfig(**ball), ("gnat", "egnat")),
        ("ball alpha=0.5 fp reduce=2",
         BuildConfig(**ball, fixed_point=FP_VECTORS, reduce_factor=2.0), ()),
        ("hyperplane m=8", BuildConfig(arity=ConstantArity(8), seed=seed), ("gnat", "egnat")),
    ]
    for label, config, knn_modes in trees:
        tree = setup.add_tree(rec, label, config)
        setup.add_range_ops(label, tree, ("gnat",))
        setup.add_knn_ops(label, tree, knn_modes)
    setup.add_lc(rec, LC_BUCKET)
    setup.decode_all(rec)
    return setup


def words_edit(seed: int, metric, rec: Recorder) -> Setup:
    """Edit distance on random words: the kernel is nearly all of the time."""
    # lengths 3..13: an odd number of equally likely lengths puts the median
    # query length on one length, so range_us.p50 does not jump between two
    # lengths from seed to seed (a query's cost grows with its length)
    setup = _setup(rec, metric, seed, 100, lambda s: generate_random_words(500, s, 3, 13))
    config = BuildConfig(arity=PowerArity(0.5), partition="ball", gamma=0.9, seed=seed)
    tree = setup.add_tree(rec, "ball alpha=0.5", config)
    longest = max(len(word) for word in setup.database)
    twin = setup.add_twin(rec, "ball alpha=0.5 fp", tree, params_for_integer_range(longest))
    setup.add_range_ops("ball alpha=0.5", tree, ("gnat",))
    setup.add_knn_ops("ball alpha=0.5 fp", twin, ("gnat", "egnat"))
    setup.add_lc(rec, LC_BUCKET)
    setup.decode_all(rec)
    return setup


# name -> (set-up function, metric class)
WORKLOADS = {
    "vec2k-grid": (vec2k_grid, EuclideanMetric),
    "vec6k-build": (vec6k_build, EuclideanMetric),
    "words-edit": (words_edit, EditDistanceMetric),
}
