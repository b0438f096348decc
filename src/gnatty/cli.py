"""Command-line experiment runner.

Subcommands: ``build`` (construct indexes, report size and build cost),
``query`` (run a workload, report per-variant aggregates), ``sweep``
(full parameter grid to CSV), ``oracle-check`` (compare every variant
against the linear-scan oracle).

Exit codes: 0 success, 1 configuration error, 2 I/O or parse error,
3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .bench import (CODECS, INDEXES, SEARCHES, ExperimentSpec, emit_csv, label, oracle_check,
                    run_experiment, sweep)
from .errors import ConfigError, DatasetFormatError, OracleMismatchError
from .metrics import METRICS
from .tree import PARTITIONS, GnatTree
from .treefile import save_tree

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_MISMATCH = 3

log = logging.getLogger("gnatty")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; bad flags are configuration errors here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(parser) -> None:
    data = parser.add_argument_group("dataset")
    data.add_argument("--dataset", help="dataset file; omit for synthetic data")
    data.add_argument("--metric", choices=list(METRICS), default="euclidean")
    data.add_argument("--n", type=int, default=2000,
                      help="synthetic: total objects (queries are split out of these)")
    data.add_argument("--dim", type=int, default=10, help="synthetic vectors: dimension")
    data.add_argument("--queries", type=int, default=100)
    data.add_argument("--seed", type=int, nargs="+", default=[0])

    grid = parser.add_argument_group("index grid")
    grid.add_argument("--index", nargs="+", default=["gnatty"], choices=INDEXES)
    grid.add_argument("--partition", nargs="+", choices=PARTITIONS,
                      help="default: ball for gnatty, hyperplane for gnat")
    grid.add_argument("--alpha", type=float, nargs="+", default=[0.5],
                      help="gnatty arity exponents")
    grid.add_argument("--arity-const", type=int, nargs="+", default=[8],
                      help="gnat constant arities")
    grid.add_argument("--gamma", type=float, nargs="+", default=[0.9],
                      help="ball capacity exponents")
    grid.add_argument("--bucket", type=int, nargs="+", default=[0],
                      help="leaf bucket sizes (0 builds the whole way down)")
    grid.add_argument("--codec", nargs="+", choices=CODECS, default=["exact"])
    grid.add_argument("--fp-bits", type=int, help="fixed-point bits per value (default 8)")
    grid.add_argument("--fp-mag", type=int, help="fixed-point magnitude bits (default 2)")
    grid.add_argument("--beta", type=float, help="fixed-point power transform (default 1/5)")
    grid.add_argument("--reduce", type=float, nargs="+", default=[1.0],
                      help="table reduction factors (rows = ceil(centers / factor))")
    grid.add_argument("--lc-bucket", type=int, nargs="+", default=[32])

    work = parser.add_argument_group("workload")
    work.add_argument("--search", nargs="+", choices=SEARCHES, default=["gnat"])
    work.add_argument("--radius", type=float, nargs="+", default=[],
                      help="absolute query radii")
    work.add_argument("--target-k", type=int, nargs="+", default=[],
                      help="calibrate each query radius to return about this many neighbors")

    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--times", action="store_true",
                        help="append wall-clock columns to the CSV (not byte-reproducible)")


def _spec_from_args(args) -> ExperimentSpec:
    return ExperimentSpec(
        metric=args.metric, dataset_path=args.dataset, n=args.n, dim=args.dim,
        queries=args.queries, seeds=tuple(args.seed), indexes=tuple(args.index),
        partitions=tuple(args.partition) if args.partition else None,
        alphas=tuple(args.alpha), arity_consts=tuple(args.arity_const),
        gammas=tuple(args.gamma), buckets=tuple(args.bucket),
        codecs=tuple(args.codec), fp_bits=args.fp_bits, fp_mag=args.fp_mag,
        beta=args.beta, reduces=tuple(args.reduce), searches=tuple(args.search),
        radii=tuple(args.radius), target_ks=tuple(args.target_k),
        lc_buckets=tuple(args.lc_bucket))


def _cmd_build(args) -> int:
    trees = []
    for seed, *_, variants in sweep(_spec_from_args(args), calibrate=False):
        for variant in variants:
            print(f"{label(variant.index, variant.coords)} seed={seed}: "
                  f"build_evals={variant.build_distance_evals} "
                  f"entries={variant.entries} bytes={variant.bytes:.0f} "
                  f"build_seconds={variant.build_seconds:.3f}")
            if isinstance(variant.structure, GnatTree):
                trees.append(variant.structure)
    if args.save_tree:
        if len(trees) != 1:
            raise ConfigError(f"--save-tree needs exactly one tree variant, built {len(trees)}")
        save_tree(trees[0], args.save_tree)
        print(f"tree saved to {args.save_tree}")
    return EXIT_OK


def _cmd_query(args) -> int:
    rows = run_experiment(_spec_from_args(args))
    for row in rows:
        print(f"{label(row.index, vars(row))} search={row.search} "
              f"{row.radius_mode}={row.radius_param} seed={row.seed}: "
              f"mean_evals={row.mean_distance_evals:.1f} "
              f"median_evals={row.median_distance_evals:.1f} "
              f"entries={row.entries} mean_results={row.mean_result_size:.1f}")
    if args.out:
        emit_csv(rows, args.out, include_times=args.times)
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.out:
        raise ConfigError("sweep requires --out CSV")
    rows = run_experiment(_spec_from_args(args))
    emit_csv(rows, args.out, include_times=args.times)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    failures = oracle_check(_spec_from_args(args))
    if failures:
        for label in failures:
            print(f"MISMATCH {label}", file=sys.stderr)
        raise OracleMismatchError(f"{len(failures)} variant(s) disagree with the linear scan")
    print("oracle-check: all variants exact")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="gnatty",
                     description="Metric-space proximity-search benchmarks")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build", help="build indexes and report size/cost")
    _add_common(p_build)
    p_build.add_argument("--save-tree", help="serialize the (single) built tree here")
    p_build.set_defaults(handler=_cmd_build)

    p_query = sub.add_parser("query", help="run a query workload")
    _add_common(p_query)
    p_query.set_defaults(handler=_cmd_query)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_oracle = sub.add_parser("oracle-check", help="verify exactness against linear scan")
    _add_common(p_oracle)
    p_oracle.set_defaults(handler=_cmd_oracle_check)

    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DatasetFormatError as exc:
        print(f"gnatty: {exc}", file=sys.stderr)
        return EXIT_IO
    except OracleMismatchError as exc:
        print(f"gnatty: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ConfigError as exc:
        print(f"gnatty: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"gnatty: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
