#!/usr/bin/env python3
"""gnatty benchmark: one closed-loop caller per workload, every answer checked
against the library's linear-scan oracle.

    python3 perfbench/run.py                 # every workload, each in a fresh process
    python3 perfbench/run.py --workload vec2k-grid --seed 0 --seconds 55 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any answer is wrong or any
call raised.  See README.md in this directory for the workloads and metrics.
"""

import os

# one thread: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / ".run"          # tree files and span dumps

DEFAULT_SEED = 0
HELDOUT_SEED = 9001   # kept out of tuning; confirm a claim on it before making it

WORKLOAD_NAMES = ("vec2k-grid", "vec6k-build", "words-edit")

END_TO_END_UNITS = {   # the end-to-end metrics in BENCHMARK.json, in its order
    "setup_s": "s",
    "range_us.p50": "us", "range_us.p90": "us", "knn_us.p50": "us", "knn_us.p90": "us",
    "queries_per_s": "1/s", "evals_per_query": "count",
    "build_evals": "count", "table_bytes": "bytes", "peak_rss_mb": "MiB",
}
# printed, not gated: their ten-seed spread on a drifting host exceeded the
# largest bound allowed; build time stays gated as most of setup_s
UNGATED_UNITS = {"build_s": "s", "save_load_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELDOUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="wall time of the set-ups and passes, to the nearest "
                             "round (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "gnatty" / "__init__.py").is_file():
        print(f"perfbench: no gnatty sources under {SRC_DIR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed)
    print_env(args)
    if args.trace:
        return bench.traced()
    return bench.untraced(args.seconds)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


def print_env(args) -> None:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"env: python {platform.python_version()}  numpy {numpy.__version__}  "
          f"nproc {len(os.sched_getaffinity(0))}  cpu {cpu}  loadavg {load}")


def quantile(values, tenth: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[tenth - 1]


class Pass:
    """One round trip of every tree through a file, then one query pass.

    ``answers`` and ``latency`` run in pass order, (query i, op 0), (query i,
    op 1), ..., (query i + 1, op 0), ..., over the pass's queries.
    """

    def __init__(self, structures):
        self.structures = structures  # build counters of the pass's set-up
        self.save_load_s = 0.0  # save plus load of every tree
        self.written = 0
        self.answers = []      # (op index, query index, answer, stats); None when raised
        self.latency = []      # seconds; None when raised
        self.errors = []       # (op index, query index, formatted exception)
        self.seconds = 0.0     # the query pass alone


class Bench:
    def __init__(self, workload: str, seed: int):
        import tracing
        import workloads
        self.tracing = tracing
        self.workloads = workloads
        self.name = workload
        self.seed = seed
        self.setup_fn, self.metric_cls = workloads.WORKLOADS[workload]
        self.failures = []    # one line per failed operation
        self.attempted = 0

    # -- phases --------------------------------------------------------------

    def set_up(self, metric, tracer):
        rec = self.workloads.Recorder(tracer)
        with tracer.span("setup"):
            start = time.perf_counter()
            setup = self.setup_fn(self.seed, metric, rec)
            seconds = time.perf_counter() - start
        return setup, rec, seconds

    def measure_pass(self, setup, tracer, rec, queries) -> Pass:
        result = Pass(setup.structures)
        self.save_load(setup, rec, result)
        with tracer.span("queries"):
            self.query(setup, tracer, result, queries)
        return result

    def save_load(self, setup, rec, result) -> None:
        from gnatty import load_tree, save_tree
        for index, (label, tree) in enumerate(setup.trees):
            path = OUT_DIR / f"{self.name}-{index}.gnt"
            rec.call("treefile.save", save_tree, tree, path)
            loaded = rec.call("treefile.load", load_tree, path, tree.dataset)
            result.save_load_s += (rec.seconds["treefile.save"][-1]
                                   + rec.seconds["treefile.load"][-1])
            result.written += path.stat().st_size
            path.unlink()
            self.attempted += 1
            if not same_tree(tree, loaded):
                self.failures.append(f"{label}: loaded tree differs from the saved one")

    def query(self, setup, tracer, result, queries) -> None:
        """Closed loop, one caller: query i on every op, then query i + 1."""
        perf = time.perf_counter
        start = perf()
        for q in queries:
            for k, op in enumerate(setup.ops):
                began = perf()
                try:
                    with tracer.span(op.span):
                        answer, stats = op.run(q)
                except Exception:
                    result.errors.append((k, q, traceback.format_exc()))
                    result.answers.append((k, q, None, None))
                    result.latency.append(None)
                    continue
                result.latency.append(perf() - began)
                result.answers.append((k, q, answer, stats))
        result.seconds = perf() - start

    # -- checks --------------------------------------------------------------

    def oracle(self, setup):
        from gnatty import linear_scan_knn, linear_scan_range
        db, metric, k = setup.database, setup.metric, self.workloads.K
        ranges = [linear_scan_range(db, q.obj, q.radius, metric) for q in setup.range_queries]
        knns = [linear_scan_knn(db, q, k, metric) for q in setup.queries]
        return {"range": ranges, "knn": knns}

    def check(self, setup, passes, blocks, expected) -> str:
        """Compare every answer with the oracle's, and the counters of every
        pass with those of the first pass over the same block (pass i
        answers block i % blocks).  Returns the counter fingerprint of the
        first ``blocks`` passes, which answer every query once, in order."""
        ops = setup.ops
        builds, answered = set(), defaultdict(set)
        for i, result in enumerate(passes):
            self.attempted += len(result.answers)
            for k, q, text in result.errors:
                self.failures.append(f"{ops[k].label} query {q} raised:\n{text}")
            for k, q, answer, _ in result.answers:
                if answer is not None and answer != expected[ops[k].kind][q]:
                    self.failures.append(f"{ops[k].label} query {q}: answer differs "
                                         "from the oracle")
            builds.add(self.fingerprint(setup, result.structures, ()))
            answered[i % blocks].add(self.fingerprint(setup, (), result.answers))
        if len(builds) != 1:
            self.failures.append("build counters differ between set-ups")
        if any(len(fingerprints) != 1 for fingerprints in answered.values()):
            self.failures.append("query counters differ between passes over one block")
        return self.fingerprint(setup, passes[0].structures,
                                [a for result in passes[:blocks] for a in result.answers])

    @staticmethod
    def fingerprint(setup, structures, answers) -> str:
        """sha256 over every structure's build counters and every query's
        counters and sorted result ids."""
        digest = hashlib.sha256()
        for s in structures:
            digest.update(f"{s.label}|{s.build_evals}|{s.entries}|{s.bytes!r}\n".encode())
        for k, q, _, stats in answers:
            line = "raised" if stats is None else (
                f"{stats.distance_evals}|{stats.nodes_visited}|{stats.entries_inspected}|"
                f"{sorted(stats.results)}")
            digest.update(f"{setup.ops[k].label}|{q}|{line}\n".encode())
        return digest.hexdigest()

    # -- runs ----------------------------------------------------------------

    def untraced(self, seconds: float) -> int:
        """Rounds of a fresh set-up, a round trip of every tree and a query
        pass over one block of queries, the blocks in turn.  A cycle is one
        round per block, so it answers every query once.  The run makes at
        least one cycle, then stops at the round that ends nearest to
        ``seconds``.

        A shared host's speed can drift by up to 2x over seconds to minutes,
        so times are medians over the rounds, and latency percentiles pool
        the answers of every round.
        """
        null = self.tracing.NullTracer()
        metric = self.metric_cls()
        blocks = self.workloads.QUERY_BLOCKS
        setup_s, build_s, passes = [], [], []
        start = time.perf_counter()
        elapsed = 0.0
        while len(passes) < blocks or elapsed + elapsed / len(passes) / 2 < seconds:
            setup = None  # drop the previous structures before building again
            setup, rec, seconds_taken = self.set_up(metric, null)
            setup_s.append(seconds_taken)
            build_s.append(sum(sum(rec.seconds[name]) for name in self.tracing.BUILD_SPANS))
            passes.append(self.measure_pass(setup, null, rec,
                                            setup.block(len(passes) % blocks)))
            elapsed = time.perf_counter() - start
        fingerprint = self.check(setup, passes, blocks, self.oracle(setup))

        latency = {"range": [], "knn": []}
        for result in passes:
            for (k, *_), seconds_taken in zip(result.answers, result.latency):
                if seconds_taken is not None:
                    latency[setup.ops[k].kind].append(seconds_taken)
        rng, knn = latency["range"], latency["knn"]
        evals = [stats.distance_evals for result in passes[:blocks]
                 for *_, stats in result.answers if stats is not None]
        values = {
            "setup_s": statistics.median(setup_s),
            "build_s": statistics.median(build_s),
            "range_us.p50": quantile(rng, 5) * 1e6,
            "range_us.p90": quantile(rng, 9) * 1e6,
            "knn_us.p50": quantile(knn, 5) * 1e6,
            "knn_us.p90": quantile(knn, 9) * 1e6,
            "queries_per_s": (sum(len(p.answers) for p in passes)
                              / sum(p.seconds for p in passes)),
            "save_load_s": statistics.median(p.save_load_s for p in passes),
            "evals_per_query": statistics.fmean(evals),
            "build_evals": sum(s.build_evals for s in setup.structures),
            "table_bytes": sum(s.bytes for s in setup.structures),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        ungated = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNGATED_UNITS.items()}
        print(f"{len(passes)} rounds, {blocks} to a cycle; {len(setup.queries)} queries x "
              f"{len(setup.ops)} ops a cycle; latency samples range {len(rng)}, knn {len(knn)}")
        for label, times in (("set-up", setup_s), ("build", build_s),
                             ("pass", [p.seconds for p in passes])):
            print(f"  {label:6} s " + " ".join(f"{x:.3f}" for x in times))
        return self.report(metrics, fingerprint, ungated)

    def traced(self) -> int:
        """An untraced round, then a traced one, each a set-up and a pass
        over every query; the per-layer numbers come from the traced round."""
        tracing = self.tracing
        null = tracing.NullTracer()
        metric = self.metric_cls()

        setup, rec, seconds = self.set_up(metric, null)
        plain = self.measure_pass(setup, null, rec, range(len(setup.queries)))
        plain_s = seconds + plain.seconds

        setup = None
        tracer = tracing.Tracer()
        with tracing.traced_tree_phases(tracer):
            setup, rec, seconds = self.set_up(tracing.TimedMetric(metric, tracer), tracer)
        result = self.measure_pass(setup, tracer, rec, range(len(setup.queries)))
        traced_s = seconds + result.seconds

        with tracer.span("bench.oracle"):
            expected = self.oracle(setup)
        tracer.close()
        fingerprint = self.check(setup, [plain, result], 1, expected)
        tracer.write(OUT_DIR / f"trace-{self.name}-{self.seed}.json")

        totals, kernel = tracing.span_totals(tracer.spans)

        def kernel_sum(names, key):
            return sum(kernel[name][key] for name in names)

        tree_stats = [stats for k, _, _, stats in result.answers
                      if stats is not None and setup.ops[k].span.startswith("search.")]
        nodes, depth = tree_shape(tree for _, tree in setup.trees)
        everything = kernel["run"]
        values = [
            ("metrics.build.calls", kernel_sum(tracing.BUILD_SPANS, "calls"), "count"),
            ("metrics.build.s", kernel_sum(tracing.BUILD_SPANS, "s"), "s"),
            ("metrics.query.calls", kernel_sum(tracing.QUERY_SPANS, "calls"), "count"),
            ("metrics.query.s", kernel_sum(tracing.QUERY_SPANS, "s"), "s"),
            ("metrics.setup.s", kernel["setup"]["s"], "s"),
            ("metrics.us_per_call", everything["s"] / everything["calls"] * 1e6, "us"),
            ("datasets.s", totals["datasets"]["s"], "s"),
            ("tree.partition.s", totals["tree.partition"]["s"], "s"),
            ("tree.range_table.s", totals["tree.range_table"]["s"], "s"),
            ("tree.encode_table.s", totals["tree.encode_table"]["s"], "s"),
            ("tree.build.self_s", totals["tree.build"]["self_s"], "s"),
            ("tree.nodes", nodes, "count"),
            ("tree.max_depth", depth, "count"),
            ("fixedpoint.decode.s", totals["fixedpoint.decode"]["s"], "s"),
            ("search.range.self_s", totals["search.range"]["self_s"], "s"),
            ("search.knn.self_s", totals["search.knn"]["self_s"], "s"),
            ("search.nodes_per_query",
             statistics.fmean(s.nodes_visited for s in tree_stats), "count"),
            ("search.entries_per_query",
             statistics.fmean(s.entries_inspected for s in tree_stats), "count"),
            ("search.hit_ratio", sum(len(s.results) for s in tree_stats)
             / sum(s.distance_evals for s in tree_stats), "ratio"),
            ("baselines.build.s", totals["baselines.build"]["s"], "s"),
            ("baselines.query.self_s", totals["baselines.query"]["self_s"], "s"),
            ("treefile.save.s", totals["treefile.save"]["s"], "s"),
            ("treefile.load.s", totals["treefile.load"]["s"], "s"),
            ("treefile.bytes", result.written, "bytes"),
            ("bench.calibrate.s", totals["bench.calibrate"]["s"], "s"),
            ("bench.oracle.s", totals["bench.oracle"]["s"], "s"),
            ("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0, "%"),
        ]
        metrics = {name: {"value": value, "unit": unit} for name, value, unit in values}
        print(f"set-up + query pass s: untraced {plain_s:.3f}, traced {traced_s:.3f}")
        return self.report(metrics, fingerprint)

    def report(self, metrics, fingerprint, ungated=None) -> int:
        """Print the metrics as a table, then the result line; ``ungated``
        metrics go only into the table."""
        failed = len(self.failures)
        for line in self.failures[:20]:
            print(f"FAILED: {line}", file=sys.stderr)
        print(f"fingerprint: {fingerprint}")
        width = max(map(len, metrics))
        for name, metric in metrics.items():
            print(f"  {name:<{width}}  {metric['value']:>16.6f}  {metric['unit']}")
        for name, metric in (ungated or {}).items():
            print(f"  {name:<{width}}  {metric['value']:>16.6f}  {metric['unit']} (not gated)")
        print(f"  {'error_rate':<{width}}  {failed / self.attempted:>16.6f}  fraction "
              f"({failed} of {self.attempted} operations; not gated)")
        print(json.dumps({"correct": failed == 0, "attempted": self.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1


def same_tree(a, b) -> bool:
    """Structural equality: config, shape, ids, measuring sets and tables."""
    from gnatty import Bucket
    if a.config != b.config or a.size != b.size:
        return False
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Bucket):
            if x.object_ids != y.object_ids:
                return False
            continue
        if (x.centers != y.centers or x.measuring_set != y.measuring_set
                or x.table != y.table or len(x.children) != len(y.children)):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def tree_shape(trees) -> tuple[int, int]:
    """Internal nodes over all trees, and the most internal nodes on one
    root-to-leaf path."""
    from gnatty import GnatNode
    nodes = depth = 0
    for tree in trees:
        stack = [(tree.root, 0)]
        while stack:
            node, level = stack.pop()
            if isinstance(node, GnatNode):
                nodes += 1
                level += 1
                depth = max(depth, level)
                stack.extend((child, level) for child in node.children)
    return nodes, depth


if __name__ == "__main__":
    sys.exit(main())
