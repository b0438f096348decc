#!/usr/bin/env python3
"""Equal-memory comparison at desk scale.

Builds a variable-arity ball-partitioned tree, finds the constant arity
whose tree stores the closest table-entry count, and runs the same
calibrated workload over both plus the AESA and List of Clusters
baselines.  Reports entry counts and aggregate distance evaluations
side by side (entry counts are matched as closely as possible, never
forced equal).  Every cell runs through the sweep harness of
``gnatty sweep``.

Example:
    python scripts/equal_memory.py --n 5000 --dim 10 --alpha 0.5
"""

import argparse
import dataclasses

from gnatty import ExperimentSpec, find_equal_memory_arity, metric_by_name, run_experiment
from gnatty.bench import prepare_workload


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--gamma", type=float, default=0.9)
    parser.add_argument("--target-k", type=int, default=10)
    parser.add_argument("--lc-bucket", type=int, default=32)
    args = parser.parse_args()

    spec = ExperimentSpec(n=args.n + args.queries, dim=args.dim, queries=args.queries,
                          seeds=(args.seed,), alphas=(args.alpha,), gammas=(args.gamma,),
                          target_ks=(args.target_k,), lc_buckets=(args.lc_bucket,))
    gnatty_row, = run_experiment(spec)
    _, database, _ = prepare_workload(spec, args.seed)
    m, _ = find_equal_memory_arity(database, metric_by_name(spec.metric), gnatty_row.entries,
                                   seed=args.seed)
    rows = [gnatty_row] + run_experiment(dataclasses.replace(
        spec, indexes=("gnat", "aesa", "lc"), arity_consts=(m,)))
    labels = [f"gnatty alpha={args.alpha}", f"gnat m={m}", "aesa", f"lc bucket={args.lc_bucket}"]
    print(f"{'structure':>22} {'entries':>10} {'total evals':>12} {'mean evals':>11}")
    for label, row in zip(labels, rows):
        total = round(row.mean_distance_evals * row.queries)
        print(f"{label:>22} {row.entries:>10} {total:>12} {row.mean_distance_evals:>11.1f}")


if __name__ == "__main__":
    main()
