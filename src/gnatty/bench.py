"""Experiment harness: build index variants over a parameter grid, run
query workloads, and report distance-evaluation and memory counts.

The workload follows the classic methodology: a query set is split off
the dataset, the database is indexed, and every configuration runs the
same queries.  Radii are either given absolutely or calibrated per query
so the query returns about target_k neighbors.  Calibration and build
distances are counted separately from query distances.
"""

from __future__ import annotations

import csv
import itertools
import logging
import statistics
import time
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .baselines import (AesaMatrix, aesa_build, aesa_range_search, lc_build, lc_range_search,
                        lc_stored_reals)
from .datasets import (Dataset, generate_random_words, generate_uniform_vectors,
                       load_strings, load_vectors, rng_stream, split_queries)
from .errors import ConfigError
from .fixedpoint import FixedPointParams, params_for_integer_range
from .metrics import MetricSpace, metric_by_name
from .search import DISCIPLINES, RangeQuery, egnat_range_search, gnat_range_search
from .tree import (BuildConfig, ConstantArity, GnatTree, PowerArity, build, nearest_first,
                   table_bytes, table_entry_count, with_fixed_point)

log = logging.getLogger("gnatty")


def linear_scan_range(database: Dataset, obj, radius: float, metric: MetricSpace) -> set[int]:
    """Brute-force oracle for range queries."""
    d = metric.distances(obj, database.objects)
    return {i for i, di in enumerate(d) if di <= radius}


def linear_scan_knn(database: Dataset, obj, k: int, metric: MetricSpace) -> list[tuple[int, float]]:
    """Brute-force oracle for k-NN: ascending (distance, id), lower id on ties."""
    d = metric.distances(obj, database.objects)
    ranked = nearest_first(np.array(d, dtype=np.float64), range(len(d)), k)
    return [(i, d[i]) for i in ranked.tolist()]


def calibrate_radius(database: Dataset, metric: MetricSpace, obj, target_k: int) -> float:
    """Distance from obj to its target_k-th nearest database object.

    Computed by brute force; these evaluations are workload setup and are
    never charged to query statistics.
    """
    if not 1 <= target_k <= len(database):
        raise ConfigError(f"target_k must be in [1, {len(database)}], got {target_k}")
    d = np.array(metric.distances(obj, database.objects), dtype=np.float64)
    return float(np.partition(d, target_k - 1)[target_k - 1])


# The names a sweep accepts, in the order the CLI lists them
INDEXES = ("gnatty", "gnat", "aesa", "lc")
CODECS = ("exact", "fp")
SEARCHES = DISCIPLINES   # the tree disciplines; AESA and LC run their own


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: dataset source, workload, and the variant grid."""

    metric: str = "euclidean"
    dataset_path: str | None = None
    n: int = 0                 # synthetic only: total objects, queries split out
    dim: int = 2               # synthetic vectors only
    queries: int = 100
    seeds: tuple[int, ...] = (0,)
    indexes: tuple[str, ...] = ("gnatty",)
    partitions: tuple[str, ...] | None = None   # None: ball for gnatty, hyperplane for gnat
    alphas: tuple[float, ...] = (0.5,)
    arity_consts: tuple[int, ...] = (8,)
    gammas: tuple[float, ...] = (0.9,)
    buckets: tuple[int, ...] = (0,)
    codecs: tuple[str, ...] = ("exact",)
    fp_bits: int | None = None
    fp_mag: int | None = None
    beta: float | None = None
    reduces: tuple[float, ...] = (1.0,)
    searches: tuple[str, ...] = ("gnat",)
    radii: tuple[float, ...] = ()
    target_ks: tuple[int, ...] = ()
    lc_buckets: tuple[int, ...] = (32,)


@dataclass
class ResultRow:
    index: str
    metric: str
    source: str
    n: int
    dim: int
    queries: int
    seed: int
    partition: str
    arity: str
    gamma: str
    bucket: str
    codec: str
    reduce: str
    search: str
    radius_mode: str
    radius_param: str
    mean_radius: float
    build_distance_evals: int
    entries: int
    table_bytes: float
    mean_distance_evals: float
    median_distance_evals: float
    mean_result_size: float
    build_seconds: float
    query_seconds: float


# Column order for emitted CSVs is ResultRow's field order; the two
# wall-clock columns are appended only on request because they are not
# reproducible across runs.
TIME_COLUMNS = ["build_seconds", "query_seconds"]
CSV_COLUMNS = [f.name for f in fields(ResultRow) if f.name not in TIME_COLUMNS]


def emit_csv(rows, path, include_times: bool = False) -> None:
    """Write rows as UTF-8 CSV with a header and '.' decimal separator.

    Identical rows always produce identical bytes; wall-clock columns are
    opt-in since they would break that.
    """
    columns = CSV_COLUMNS + (TIME_COLUMNS if include_times else [])
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([getattr(row, col) for col in columns])
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def prepare_workload(spec: ExperimentSpec, seed: int) -> tuple[Dataset, Dataset, str]:
    """(queries, database, source label) for one seed."""
    if spec.dataset_path is not None:
        if spec.metric == "edit":
            dataset = load_strings(spec.dataset_path)
        else:
            dataset = load_vectors(spec.dataset_path)
        source = str(spec.dataset_path)
    elif spec.metric == "edit":
        dataset = generate_random_words(spec.n, seed)
        source = "synthetic"
    else:
        dataset = generate_uniform_vectors(spec.n, spec.dim, seed)
        source = "synthetic"
    queries, database = split_queries(dataset, spec.queries, seed)
    return queries, database, source


def resolve_fp_params(spec: ExperimentSpec, database: Dataset) -> FixedPointParams:
    """Codec params for the sweep, derived from the database when omitted.

    Integer metrics default to an identity transform with just enough
    magnitude bits for the largest possible distance (the longest string);
    continuous metrics default to the 8-bit, 2-magnitude-bit, beta=1/5
    layout that suits unit-cube distances.
    """
    bits = spec.fp_bits if spec.fp_bits is not None else 8
    if spec.metric == "edit" and spec.fp_mag is None and spec.beta is None:
        longest = max((len(s) for s in database), default=1)
        return params_for_integer_range(longest, bits)
    mag = spec.fp_mag if spec.fp_mag is not None else 2
    beta = spec.beta if spec.beta is not None else 0.2
    return FixedPointParams(total_bits=bits, magnitude_bits=mag, beta=beta)


def validate_spec(spec: ExperimentSpec) -> None:
    """Reject grid values outside their declared domains.

    Values with an owning class are checked by constructing it once, seeds
    by rng_stream, n and queries by prepare_workload before any build; the
    rest here.  Domain violations are configuration errors; only
    data-relative infeasibility (a cell that cannot run on this dataset)
    is skipped later with a warning.
    """
    metric_by_name(spec.metric)
    for seed in spec.seeds:
        rng_stream(seed, "dataset")
    for kind, names, known in (("index", spec.indexes, INDEXES), ("codec", spec.codecs, CODECS),
                               ("search mode", spec.searches, SEARCHES)):
        for name in names:
            if name not in known:
                raise ConfigError(f"unknown {kind} {name!r}")
    for k in spec.target_ks:
        if k < 1:
            raise ConfigError(f"target_k must be >= 1, got {k}")
    for bucket in spec.lc_buckets:
        if bucket < 1:
            raise ConfigError(f"lc bucket size must be >= 1, got {bucket}")
    for alpha in spec.alphas:
        PowerArity(alpha)
    for m in spec.arity_consts:
        ConstantArity(m)
    for partition, gamma, bucket, reduce_factor in itertools.product(
            spec.partitions or ("hyperplane",), spec.gammas, spec.buckets, spec.reduces):
        # the arity does not matter here; the arity values were checked above
        BuildConfig(arity=ConstantArity(2), partition=partition, gamma=gamma,
                    bucket_size=bucket, reduce_factor=reduce_factor)
    for radius in spec.radii:
        RangeQuery(None, radius)


# A variant's coordinates, in ResultRow and label order; the baselines
# leave the tree coordinates blank.
_NO_COORDS = dict.fromkeys(("partition", "arity", "gamma", "bucket", "codec", "reduce"), "")


@dataclass
class Variant:
    """One built structure plus the coordinates identifying it."""

    index: str
    coords: dict
    runners: dict            # search mode -> callable(obj, radius) -> QueryStats
    structure: object        # the GnatTree / AesaMatrix / ClusterList itself
    build_distance_evals: int
    entries: int
    bytes: float
    build_seconds: float


def label(index: str, coords) -> str:
    """A structure's name: its index, then every non-blank coordinate of
    coords (a Variant's coords, or vars() of a ResultRow)."""
    return " ".join([index] + [f"{k}={coords[k]}" for k in _NO_COORDS if coords[k] != ""])


def _cells(spec: ExperimentSpec, database: Dataset, metric: MetricSpace, seed: int,
           fp: FixedPointParams | None):
    """(index, coords, make, search modes) for every cell of the grid, in
    sweep order; make() builds the cell's structure.  validate_spec has
    checked every BuildConfig field, so only make() can fail."""
    for index in spec.indexes:
        if index == "aesa":
            yield (index, {**_NO_COORDS, "codec": "exact"}, partial(aesa_build, database, metric),
                   ("aesa",))
            continue
        if index == "lc":
            for bucket in spec.lc_buckets:
                yield (index, {**_NO_COORDS, "bucket": str(bucket), "codec": "exact"},
                       partial(lc_build, database, metric, bucket), ("lc",))
            continue
        partitions = spec.partitions
        if partitions is None:
            partitions = ("ball",) if index == "gnatty" else ("hyperplane",)
        if index == "gnatty":
            arities = [("alpha:%g" % a, PowerArity(a)) for a in spec.alphas]
        else:
            arities = [("const:%d" % m, ConstantArity(m)) for m in spec.arity_consts]
        for partition, (arity_label, arity), gamma, bucket in itertools.product(
                partitions, arities, spec.gammas, spec.buckets):
            exact = {}  # config -> exact tree, kept for this group's cells only
            for codec, factor in itertools.product(spec.codecs, spec.reduces):
                config = BuildConfig(arity=arity, partition=partition, gamma=gamma,
                                     bucket_size=bucket, reduce_factor=factor, seed=seed)
                coords = {"partition": partition, "arity": arity_label, "gamma": "%g" % gamma,
                          "bucket": str(bucket), "codec": codec, "reduce": "%g" % factor}
                yield index, coords, partial(_tree, exact, database, metric, config,
                                             fp if codec == "fp" else None), spec.searches


def _tree(exact: dict, database: Dataset, metric: MetricSpace, config: BuildConfig, fp):
    """config's exact tree, built once into exact, or with fp its with_fixed_point twin."""
    if config not in exact:
        exact[config] = build(database, metric, config)
    return exact[config] if fp is None else with_fixed_point(exact[config], fp)


def _runner(search: str, structure, database: Dataset, metric: MetricSpace):
    """callable(obj, radius) -> QueryStats: one search mode over one structure."""
    if search == "aesa":
        return lambda obj, radius: aesa_range_search(structure, database,
                                                     RangeQuery(obj, radius), metric)
    run = {"gnat": gnat_range_search, "egnat": egnat_range_search, "lc": lc_range_search}[search]
    return lambda obj, radius: run(structure, RangeQuery(obj, radius), metric)


def _size(structure) -> tuple[int, float]:
    """(table entries, table bytes); the flat baselines store 4-byte reals."""
    if isinstance(structure, GnatTree):
        return table_entry_count(structure), table_bytes(structure)
    entries = (len(structure.entries) if isinstance(structure, AesaMatrix)
               else lc_stored_reals(structure))
    return entries, entries * 4.0


def build_variants(cells, database: Dataset, metric: MetricSpace):
    """Build the structure of every _cells cell; infeasible cells are logged and skipped."""
    for index, coords, make, searches in cells:
        try:
            started = time.perf_counter()
            structure = make()
            elapsed = time.perf_counter() - started
        except ConfigError as exc:
            log.warning("skipping infeasible %s cell: %s", index, exc)
            continue
        runners = {search: _runner(search, structure, database, metric) for search in searches}
        yield Variant(index, coords, runners, structure, structure.build_distance_evals,
                      *_size(structure), elapsed)


def sweep(spec: ExperimentSpec, calibrate: bool = True):
    """The one path of every harness command.  Yields per seed
    (seed, queries, database, source, metric, workloads, variants):
    workloads are (radius mode, value, per-query radii) triples, and the
    variants are built one at a time as they are consumed.

    A workload that cannot be calibrated on this data is skipped with a
    warning.  With calibrate=False no workload is asked for or computed.
    """
    validate_spec(spec)
    radius_specs = [("r", r) for r in spec.radii] + [("k", k) for k in spec.target_ks]
    if calibrate and not radius_specs:
        raise ConfigError("need at least one radius or target neighbor count")
    for seed in spec.seeds:
        queries, database, source = prepare_workload(spec, seed)
        metric = metric_by_name(spec.metric)
        fp = resolve_fp_params(spec, database) if "fp" in spec.codecs else None
        workloads = []
        for mode, value in radius_specs if calibrate else ():
            try:
                radii = [float(value)] * len(queries) if mode == "r" else [
                    calibrate_radius(database, metric, obj, int(value)) for obj in queries]
            except ConfigError as exc:
                log.warning("skipping %s=%s workload: %s", mode, value, exc)
                continue
            workloads.append((mode, value, radii))
        yield (seed, queries, database, source, metric, workloads,
               build_variants(_cells(spec, database, metric, seed, fp), database, metric))


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Cartesian sweep over the grid; one ResultRow per cell.

    Deterministic per seed: all randomness flows from the spec seeds, and
    query radii are calibrated identically for every variant.
    """
    rows: list[ResultRow] = []
    for seed, queries, database, source, _, workloads, variants in sweep(spec):
        for variant in variants:
            for search, runner in variant.runners.items():
                for mode, value, radii in workloads:
                    started = time.perf_counter()
                    answers = [runner(obj, radius) for obj, radius in zip(queries, radii)]
                    elapsed = time.perf_counter() - started
                    evals = [stats.distance_evals for stats in answers]
                    sizes = [len(stats.results) for stats in answers]
                    rows.append(ResultRow(
                        index=variant.index, metric=spec.metric, source=source,
                        n=len(database), dim=database.dim or 0, queries=len(queries), seed=seed,
                        search=search, radius_mode=mode, radius_param="%g" % value,
                        mean_radius=statistics.fmean(radii) if radii else 0.0,
                        build_distance_evals=variant.build_distance_evals,
                        entries=variant.entries, table_bytes=variant.bytes,
                        mean_distance_evals=statistics.fmean(evals) if evals else 0.0,
                        median_distance_evals=float(statistics.median(evals)) if evals else 0.0,
                        mean_result_size=statistics.fmean(sizes) if sizes else 0.0,
                        build_seconds=variant.build_seconds, query_seconds=elapsed,
                        **variant.coords))
    return rows


def oracle_check(spec: ExperimentSpec) -> list[str]:
    """Compare every grid variant against the linear-scan oracle.

    Returns the labels of variants that disagreed on any query (empty
    list means everything is exact).  Each query's scan runs once and
    serves every variant.
    """
    failures: list[str] = []
    for seed, queries, database, _, metric, workloads, variants in sweep(spec):
        expected = [[linear_scan_range(database, obj, radius, metric)
                     for obj, radius in zip(queries, radii)] for _, _, radii in workloads]
        for variant in variants:
            for search, runner in variant.runners.items():
                for (mode, value, radii), want in zip(workloads, expected):
                    if any(runner(obj, radius).results != w
                           for obj, radius, w in zip(queries, radii, want)):
                        failures.append(f"seed={seed} {mode}={value} "
                                        f"{label(variant.index, variant.coords)} search={search}")
    return failures

