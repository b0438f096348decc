#!/usr/bin/env python3
"""Table bytes against distance evaluations, for every structure of one sweep.

gnatty and gnat trees (ball and hyperplane partitions, alpha 0.3-0.7 or
m 2-32, exact and fixed-point tables, reduce 1 and 2), AESA and List of
Clusters run one calibrated workload.  One line per structure, ascending
by table bytes; "dominated by" is the row with the fewest evaluations
among those with no more bytes and no more evaluations, "-" a point of
the frontier.

Example:
    python scripts/frontier.py --n 5000 --dim 10 --target-k 10
"""

import argparse

from gnatty import ExperimentSpec, run_experiment
from gnatty.bench import label


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000, help="database objects")
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target-k", type=int, default=10)
    parser.add_argument("--lc-bucket", type=int, default=32)
    args = parser.parse_args()

    rows = run_experiment(ExperimentSpec(
        n=args.n + args.queries, dim=args.dim, queries=args.queries, seeds=(args.seed,),
        indexes=("gnatty", "gnat", "aesa", "lc"), partitions=("ball", "hyperplane"),
        alphas=(0.3, 0.4, 0.5, 0.6, 0.7), arity_consts=(2, 4, 8, 16, 32),
        codecs=("exact", "fp"), reduces=(1.0, 2.0), target_ks=(args.target_k,),
        lc_buckets=(args.lc_bucket,)))
    costs = sorted((row.table_bytes, row.mean_distance_evals, label(row.index, vars(row)))
                   for row in rows)
    width = max(len(name) for *_, name in costs)
    print(f"{'row':>3} {'structure':<{width}} {'table bytes':>12} {'mean evals':>10} dominated by")
    for i, (size, evals, name) in enumerate(costs, 1):
        # rows with no more bytes and no more evaluations, equal ones aside
        better = [j for j, (s, e, _) in enumerate(costs, 1)
                  if s <= size and e <= evals and (s, e) != (size, evals)]
        by = min(better, key=lambda j: costs[j - 1][1], default="-")
        print(f"{i:>3} {name:<{width}} {size:>12.0f} {evals:>10.1f} {by}")


if __name__ == "__main__":
    main()
