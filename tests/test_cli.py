import hashlib
import random
import sys

import pytest

from gnatty import (Dataset, GnatNode, bench, cli, generate_uniform_vectors, load_tree,
                    split_queries)
from helpers import save_vectors

SMALL = ["--n", "150", "--dim", "3", "--queries", "10", "--seed", "0"]


def test_build_and_save_tree(tmp_path, capsys):
    tree_path = tmp_path / "t.gnt"
    code = cli.main(["build", *SMALL, "--index", "gnatty", "--alpha", "0.5",
                     "--save-tree", str(tree_path)])
    assert code == 0
    assert "entries=" in capsys.readouterr().out
    ds = generate_uniform_vectors(150, 3, seed=0)
    _, database = split_queries(ds, 10, 0)
    tree = load_tree(tree_path, database)
    assert tree.size == 140


def test_build_and_save_deep_tree(tmp_path):
    # two-center balls with gamma = 0.1 nest deeper than the recursion limit
    tree_path = tmp_path / "deep.gnt"
    code = cli.main(["build", "--n", "4010", "--dim", "3", "--queries", "10", "--seed", "0",
                     "--index", "gnat", "--arity-const", "2", "--partition", "ball",
                     "--gamma", "0.1", "--save-tree", str(tree_path)])
    assert code == 0
    _, database = split_queries(generate_uniform_vectors(4010, 3, seed=0), 10, 0)
    node, depth = load_tree(tree_path, database).root, 0
    while isinstance(node, GnatNode):
        node, depth = node.children[-1], depth + 1
    assert depth > sys.getrecursionlimit()


def test_query_deep_tree():
    # the tree of test_build_and_save_deep_tree, searched by both
    # disciplines, exact and fixed-point
    assert cli.main(["query", "--n", "4010", "--dim", "3", "--queries", "10", "--seed", "0",
                     "--index", "gnat", "--arity-const", "2", "--partition", "ball",
                     "--gamma", "0.1", "--codec", "exact", "fp", "--search", "gnat", "egnat",
                     "--target-k", "5"]) == 0


def test_save_tree_rejects_multiple_variants(tmp_path):
    code = cli.main(["build", *SMALL, "--index", "gnatty", "--alpha", "0.3", "0.5",
                     "--save-tree", str(tmp_path / "t.gnt")])
    assert code == 1


def test_bad_codec_flags_fail_before_any_build(capsys):
    # the codec params are resolved before the first structure is built,
    # so a bad --beta prints no build line
    code = cli.main(["build", "--n", "300", "--dim", "3", "--index", "aesa", "gnatty",
                     "--codec", "exact", "fp", "--beta", "2"])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_query_command(capsys):
    code = cli.main(["query", *SMALL, "--index", "gnatty", "--target-k", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_evals=" in out


def test_query_requires_radius_spec():
    assert cli.main(["query", *SMALL]) == 1


def test_sweep_requires_out():
    assert cli.main(["sweep", *SMALL, "--target-k", "5"]) == 1


def test_sweep_writes_deterministic_csv(tmp_path):
    args = ["sweep", *SMALL, "--index", "gnatty", "gnat", "lc", "--codec", "exact", "fp",
            "--target-k", "5", "--radius", "0.3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert "build_seconds" not in header
    c = tmp_path / "c.csv"
    assert cli.main(args + ["--out", str(c), "--times"]) == 0
    assert "build_seconds" in c.read_text().splitlines()[0]


def test_sweep_edit_metric(tmp_path):
    out = tmp_path / "edit.csv"
    code = cli.main(["sweep", "--metric", "edit", "--n", "120", "--queries", "10",
                     "--index", "gnatty", "--codec", "fp", "--radius", "2",
                     "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_dataset_file_workflow(tmp_path):
    ds = generate_uniform_vectors(120, 3, seed=2)
    data = tmp_path / "vs.txt"
    save_vectors(ds, data)
    out = tmp_path / "rows.csv"
    code = cli.main(["query", "--dataset", str(data), "--queries", "10",
                     "--index", "aesa", "--target-k", "5", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_missing_dataset_is_io_error(tmp_path):
    code = cli.main(["query", "--dataset", str(tmp_path / "nope.txt"),
                     "--queries", "5", "--target-k", "3"])
    assert code == 2


def test_malformed_dataset_is_io_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 0\n1\n")
    code = cli.main(["query", "--dataset", str(bad), "--queries", "5", "--target-k", "3"])
    assert code == 2


def test_bad_flag_value_is_config_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", *SMALL, "--index", "hnsw", "--target-k", "5", "--out", "x.csv"])
    assert err.value.code == 1
    assert cli.main(["query", *SMALL, "--gamma", "1.5", "--target-k", "5"]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--radius", "nan"], "radius must be >= 0"),
    (["--reduce", "nan", "--target-k", "3"], "reduce_factor must be >= 1"),
    (["--queries", "-1", "--target-k", "3"], "cannot take -1 queries"),
    # a later negative seed fails before the first seed's lines are printed
    (["--seed", "0", "-1", "--target-k", "3"], "seed must be >= 0"),
], ids=["radius-nan", "reduce-nan", "queries-negative", "seed-negative"])
def test_nan_and_negative_values_are_config_errors(flags, message, capsys):
    code = cli.main(["query", "--n", "200", "--dim", "3", "--queries", "5", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_query_labels_name_every_coordinate(capsys):
    code = cli.main(["query", *SMALL, "--index", "gnatty", "lc", "--bucket", "0", "4",
                     "--lc-bucket", "16", "32", "--target-k", "3"])
    assert code == 0
    assert [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()] == [
        "gnatty partition=ball arity=alpha:0.5 gamma=0.9 bucket=0 codec=exact reduce=1 "
        "search=gnat k=3 seed=0",
        "gnatty partition=ball arity=alpha:0.5 gamma=0.9 bucket=4 codec=exact reduce=1 "
        "search=gnat k=3 seed=0",
        "lc bucket=16 codec=exact search=lc k=3 seed=0",
        "lc bucket=32 codec=exact search=lc k=3 seed=0",
    ]


def test_oracle_check_passes(capsys):
    code = cli.main(["oracle-check", *SMALL, "--index", "gnatty", "aesa",
                     "--search", "gnat", "egnat", "--target-k", "5"])
    assert code == 0
    assert "all variants exact" in capsys.readouterr().out


def test_build_prints_one_line_per_structure(capsys):
    # the search modes share each built structure, so they add no lines
    code = cli.main(["build", *SMALL, "--index", "gnatty", "aesa", "lc",
                     "--codec", "exact", "fp", "--search", "gnat", "egnat"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "gnatty partition=ball arity=alpha:0.5 gamma=0.9 bucket=0 codec=exact reduce=1 seed=0",
        "gnatty partition=ball arity=alpha:0.5 gamma=0.9 bucket=0 codec=fp reduce=1 seed=0",
        "aesa codec=exact seed=0",
        "lc bucket=32 codec=exact seed=0",
    ]
    assert all(line.split(": ")[1].startswith("build_evals=") for line in lines)


def _grid_file(tmp_path):
    """200 2-D points on a 0.1 grid, saved as a vector file."""
    rng = random.Random(0)
    values = [k / 10 for k in range(-9, 10)]
    path = tmp_path / "grid.txt"
    save_vectors(Dataset([(rng.choice(values), rng.choice(values)) for _ in range(200)]), path)
    return path


def test_oracle_check_on_grid_points(tmp_path, capsys):
    # 2-D points on a 0.1 grid form tight triangles, and calibrated radii
    # are computed distances: without the rounding margin in the prune
    # tests, gnat range on three exact trees and AESA disagree with the scan
    path = _grid_file(tmp_path)
    code = cli.main(["oracle-check", "--dataset", str(path), "--queries", "40",
                     "--index", "gnatty", "gnat", "aesa", "lc", "--codec", "exact", "fp",
                     "--search", "gnat", "egnat", "--reduce", "1", "2", "--target-k", "1", "5"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "all variants exact" in out.out


def test_oracle_check_compares_knn_on_grid_points(tmp_path, monkeypatch, capsys):
    # with --target-k, every tree variant and mode also runs k-NN against
    # the scan, ids and distances: a k-NN search that returns its answer
    # in reverse order fails only its knn labels
    real = bench.knn_search
    monkeypatch.setattr(bench, "knn_search", lambda *args: (real(*args)[0][::-1], None))
    path = _grid_file(tmp_path)
    code = cli.main(["oracle-check", "--dataset", str(path), "--queries", "20",
                     "--index", "gnatty", "aesa", "--search", "gnat", "egnat",
                     "--target-k", "1", "3"])
    out = capsys.readouterr()
    assert code == 3
    assert [line.removeprefix("MISMATCH ") for line in out.err.splitlines()[:-1]] == [
        f"seed=0 knn=3 gnatty partition=ball arity=alpha:0.5 gamma=0.9 bucket=0 codec=exact "
        f"reduce=1 search={mode}" for mode in ("gnat", "egnat")]


def test_build_skips_infeasible_cells(caplog, capsys):
    # every object is a query, so the database is empty: no tree can be
    # built over it, and its cell is skipped with a warning
    code = cli.main(["build", "--n", "10", "--queries", "10", "--index", "gnatty", "aesa"])
    assert code == 0
    assert any("skipping infeasible gnatty cell" in record.message for record in caplog.records)
    assert [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()] == [
        "aesa codec=exact seed=0"]


def test_oracle_check_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_check", lambda spec: ["seed=0 k=5 broken-variant"])
    code = cli.main(["oracle-check", *SMALL, "--target-k", "5"])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().err


def test_sweep_golden_counters(tmp_path):
    # The counters of a fixed sweep, pinned: criterion 10 only checks that
    # two runs agree, which a counter change made on both runs still passes.
    # The CSV has no wall-clock columns (no --times), so its bytes depend only
    # on the algorithms.  Change the hash only with a change that says openly
    # that it alters the algorithm.  Re-pinned from cb0568b1... when range
    # tables began reusing the partition's distances: only
    # build_distance_evals moved, down in the 32 gnatty and gnat rows.
    # Re-pinned from bc006c18... when the multi-pivot step began testing
    # each tried pivot's own column: only mean/median_distance_evals moved,
    # down in the 16 gnat-search rows of the gnatty and gnat indexes.
    # Re-pinned from ff6a891a... when range tables stopped storing the
    # bounds a search derives (each row's own lower bound, an empty child's
    # upper bound): only table_bytes moved, down in the 32 gnatty and gnat
    # rows, by 23.1-23.8% for gnatty and 40.2-40.7% for gnat.
    out = tmp_path / "golden.csv"
    args = ["sweep", "--n", "520", "--dim", "6", "--queries", "20", "--seed", "0",
            "--index", "gnatty", "gnat", "aesa", "lc", "--codec", "exact", "fp",
            "--reduce", "1", "2", "--search", "gnat", "egnat",
            "--target-k", "10", "--radius", "0.3", "--out", str(out)]
    assert cli.main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ec4a644021184d8065d95950127d4214a91b999c1c171bca6fd55ee19145405a")
