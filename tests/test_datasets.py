import math

import numpy as np
import pytest

from gnatty import (ConfigError, Dataset, DatasetFormatError, generate_random_words,
                    generate_uniform_vectors, load_strings, load_vectors, split_queries)
from helpers import save_vectors


def test_generate_empty_and_deterministic():
    assert len(generate_uniform_vectors(0, 5, seed=1)) == 0
    a = generate_uniform_vectors(100, 15, seed=42)
    b = generate_uniform_vectors(100, 15, seed=42)
    assert a.objects == b.objects
    assert generate_uniform_vectors(100, 15, seed=43).objects != a.objects


def test_generate_uniform_mean():
    # mean of 1000 uniforms has sd ~0.0091; [0.45, 0.55] is a >5-sigma band
    ds = generate_uniform_vectors(1000, 2, seed=7)
    means = np.asarray(ds.objects).mean(axis=0)
    assert all(0.45 <= m <= 0.55 for m in means)


def test_generate_bad_args():
    with pytest.raises(ConfigError):
        generate_uniform_vectors(-1, 5, seed=0)
    with pytest.raises(ConfigError):
        generate_uniform_vectors(5, 0, seed=0)


def test_random_words_deterministic():
    a = generate_random_words(50, seed=5)
    b = generate_random_words(50, seed=5)
    assert a.objects == b.objects
    assert all(3 <= len(w) <= 12 for w in a)


def test_load_vectors(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("2 3\n0 0\n1 0\n0 1\n")
    ds = load_vectors(path)
    assert len(ds) == 3 and ds.dim == 2
    assert ds[1] == (1.0, 0.0)


def test_load_vectors_roundtrip(tmp_path):
    ds = generate_uniform_vectors(20, 3, seed=2)
    path = tmp_path / "v.txt"
    save_vectors(ds, path)
    assert load_vectors(path).objects == ds.objects


@pytest.mark.parametrize("content,line", [
    ("", 1),                      # no header
    ("2\n0 0\n", 1),              # short header
    ("a b\n", 1),                 # non-integer header
    ("2 2\n0 0\n1\n", 3),         # wrong coordinate count
    ("2 2\n0 0\n1 x\n", 3),       # bad literal
    ("2 3\n0 0\n1 1\n", 3),       # fewer lines than promised
    ("2 2\n0 0\n1 nan\n", 3),     # not a number
    ("2 2\n0 inf\n1 1\n", 2),     # infinite
    ("2 2\n0 0\n\n-Infinity 1\n", 4),  # blank lines still count
    ("2 2\n1e999 0\n1 1\n", 2),   # overflows to inf
])
def test_load_vectors_errors(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(DatasetFormatError) as err:
        load_vectors(path)
    assert err.value.line_no == line


def test_load_strings(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("cat\ndog\n")
    assert load_strings(path).objects == ["cat", "dog"]
    (tmp_path / "empty.txt").write_text("")
    assert len(load_strings(tmp_path / "empty.txt")) == 0


def test_load_strings_bad_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\n\xff\xfe\n")
    with pytest.raises(DatasetFormatError) as err:
        load_strings(path)
    assert err.value.line_no == 2


def test_split_queries():
    ds = generate_uniform_vectors(10, 2, seed=1)
    queries, database = split_queries(ds, 0, seed=0)
    assert len(queries) == 0 and database.objects == ds.objects
    queries, database = split_queries(ds, 10, seed=0)
    assert len(database) == 0 and sorted(map(tuple, queries)) == sorted(map(tuple, ds))
    with pytest.raises(ConfigError):
        split_queries(ds, 11, seed=0)
    with pytest.raises(ConfigError, match="cannot take -1 queries"):
        split_queries(ds, -1, seed=0)


def test_split_queries_deterministic_disjoint():
    ds = generate_uniform_vectors(1000, 3, seed=4)
    q1, d1 = split_queries(ds, 100, seed=17)
    q2, d2 = split_queries(ds, 100, seed=17)
    assert q1.objects == q2.objects and d1.objects == d2.objects
    assert len(q1) == 100 and len(d1) == 900
    pool = set(map(tuple, ds))
    assert set(map(tuple, q1)).isdisjoint(set()) and len(set(map(tuple, q1)) | set(map(tuple, d1))) == len(pool)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_vectors_refused(bad):
    # a distance from an inf or nan coordinate is inf or nan, which no
    # triangle bound prunes exactly: vector data must be finite
    with pytest.raises(ConfigError, match=r"vector 2 has a non-finite coordinate"):
        Dataset([(0.0, 1.0), (2.0, 3.0), (4.0, bad)])
    # finite extremes are fine, and strings are not vectors
    assert len(Dataset([(1e308, -1e308), (5e-324, 0.0)])) == 2
    assert len(Dataset(["inf", "nan"])) == 2
