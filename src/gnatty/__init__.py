"""Metric-space proximity search: GNAT-family trees with hyperplane or ball
partitioning, constant or size-dependent arities, fixed-point-compressed
and reduced range tables; AESA and List of Clusters baselines; and a
benchmark harness that counts distance evaluations and table entries."""

from .baselines import (AesaMatrix, ClusterList, aesa_build,
                        aesa_range_search, lc_build, lc_range_search)
from .bench import (ExperimentSpec, ResultRow, calibrate_radius, emit_csv, linear_scan_knn,
                    linear_scan_range, oracle_check, run_experiment)
from .datasets import (Dataset, generate_random_words, generate_uniform_vectors,
                       load_strings, load_vectors, rng_stream, split_queries)
from .errors import ConfigError, DatasetFormatError, GnattyError, OracleMismatchError
from .fixedpoint import FixedPointParams, params_for_integer_range
from .metrics import (DistanceCounter, EditDistanceMetric, EuclideanMetric,
                      MetricSpace, edit_distance, metric_by_name)
from .search import (QueryStats, RangeQuery, egnat_range_search, gnat_range_search,
                     knn_search)
from .tree import (Bucket, BuildConfig, ConstantArity, GnatNode, GnatTree, PowerArity,
                   RangeTable, ball_partition, build, compute_range_table,
                   encode_table, hyperplane_partition, iter_nodes,
                   table_bytes, table_entry_count, with_fixed_point)
from .treefile import load_tree, save_tree

__version__ = "0.1.0"
