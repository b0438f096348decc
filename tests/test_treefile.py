import hashlib
import struct
import sys

import pytest

from gnatty import (Bucket, BuildConfig, ConfigError, ConstantArity, Dataset, EuclideanMetric,
                    FixedPointParams, GnatNode, GnatTree, PowerArity, RangeQuery, build,
                    generate_uniform_vectors, gnat_range_search, iter_nodes, load_tree,
                    save_tree, table_entry_count, with_fixed_point)

EUCLID = EuclideanMetric()


def _same_node(a, b):
    if isinstance(a, Bucket) or isinstance(b, Bucket):
        return isinstance(a, Bucket) and isinstance(b, Bucket) and a.object_ids == b.object_ids
    return (a.centers == b.centers and a.measuring_set == b.measuring_set
            and a.table == b.table
            and all(_same_node(x, y) for x, y in zip(a.children, b.children)))


@pytest.mark.parametrize("config", [
    BuildConfig(arity=ConstantArity(5), seed=3),
    BuildConfig(arity=PowerArity(0.5), partition="ball", gamma=0.9, seed=3),
    BuildConfig(arity=ConstantArity(5), reduce_factor=2.0,
                fixed_point=FixedPointParams(8, 2, 0.2), seed=3),
    BuildConfig(arity=ConstantArity(5), bucket_size=7, seed=3),
])
def test_roundtrip(tmp_path, config):
    ds = generate_uniform_vectors(180, 4, seed=5)
    tree = build(ds, EUCLID, config)
    path = tmp_path / "tree.gnt"
    save_tree(tree, path)
    loaded = load_tree(path, ds)
    assert loaded.config == tree.config
    assert loaded.size == tree.size
    assert _same_node(loaded.root, tree.root)
    assert table_entry_count(loaded) == table_entry_count(tree)
    q = RangeQuery(ds[0], 0.3)
    assert gnat_range_search(loaded, q, EUCLID).results == gnat_range_search(tree, q, EUCLID).results


def test_roundtrip_is_byte_stable(tmp_path):
    ds = generate_uniform_vectors(60, 3, seed=1)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), seed=1))
    a, b = tmp_path / "a.gnt", tmp_path / "b.gnt"
    save_tree(tree, a)
    save_tree(load_tree(a, ds), b)
    assert a.read_bytes() == b.read_bytes()


def test_roundtrip_preserves_saturation_flag(tmp_path):
    from gnatty import Dataset, iter_nodes

    base = generate_uniform_vectors(120, 3, seed=2)
    big = Dataset([tuple(c * 2000.0 for c in v) for v in base])
    tree = build(big, EUCLID, BuildConfig(arity=ConstantArity(5),
                                          fixed_point=FixedPointParams(8, 2, 0.2), seed=2))
    assert any(node.table.hi_saturated for node in iter_nodes(tree.root))
    path = tmp_path / "sat.gnt"
    save_tree(tree, path)
    loaded = load_tree(path, big)
    assert _same_node(loaded.root, tree.root)


def test_dataset_size_mismatch(tmp_path):
    ds = generate_uniform_vectors(60, 3, seed=1)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), seed=1))
    path = tmp_path / "tree.gnt"
    save_tree(tree, path)
    with pytest.raises(ConfigError):
        load_tree(path, generate_uniform_vectors(61, 3, seed=1))


def test_tree_over_no_objects_rejected(tmp_path):
    # build refuses an empty dataset, and so does load_tree a file of one
    path = tmp_path / "empty.gnat"
    save_tree(GnatTree(Bucket([]), BuildConfig(arity=ConstantArity(2)), Dataset([]), 0), path)
    with pytest.raises(ConfigError, match="no objects") as err:
        load_tree(path, Dataset([]))
    assert str(path) in str(err.value)


def test_bad_magic_and_truncation(tmp_path):
    ds = generate_uniform_vectors(30, 3, seed=1)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), seed=1))
    path = tmp_path / "tree.gnt"
    save_tree(tree, path)
    blob = path.read_bytes()
    (tmp_path / "bad.gnt").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ConfigError):
        load_tree(tmp_path / "bad.gnt", ds)
    (tmp_path / "cut.gnt").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ConfigError):
        load_tree(tmp_path / "cut.gnt", ds)


def test_trailing_bytes_rejected(tmp_path):
    ds = generate_uniform_vectors(30, 3, seed=1)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), seed=1))
    path = tmp_path / "tree.gnt"
    save_tree(tree, path)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ConfigError, match="trailing bytes") as err:
        load_tree(path, ds)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("config_blob", [b"{", b"[]", b'{"arity": 1}', b"\xff"])
def test_corrupt_config_json(tmp_path, config_blob):
    ds = generate_uniform_vectors(30, 3, seed=1)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), seed=1))
    path = tmp_path / "tree.gnt"
    save_tree(tree, path)
    blob = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", blob, 8)
    path.write_bytes(blob[:8] + struct.pack("<I", len(config_blob)) + config_blob
                     + blob[12 + config_len:])
    with pytest.raises(ConfigError, match="corrupt build config"):
        load_tree(path, ds)


def test_golden_tree_file_bytes(tmp_path):
    # sha256 of save_tree output, pinned so that codec and config-JSON
    # changes cannot alter the file format unnoticed
    ds = generate_uniform_vectors(300, 6, seed=0)
    tree = build(ds, EUCLID, BuildConfig(arity=PowerArity(0.5), partition="ball", seed=0))
    twin = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    for name, t, digest in [
        ("exact", tree, "eaf71b07aaf4937aacc7d316b2c4a95cf46549dd3473d6a4766639a7c1bab31b"),
        ("fp", twin, "394c90b3a6b6ee99e98db05e5eba20077f0b521fa83270a605a89db378128db9"),
    ]:
        path = tmp_path / f"{name}.gnt"
        save_tree(t, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


def deep_tree_depth(tree):
    """Internal nodes along the last-child path: a gamma = 0.1 ball tree
    funnels nearly every object into its last child."""
    depth, node = 0, tree.root
    while isinstance(node, GnatNode):
        depth, node = depth + 1, node.children[-1]
    return depth


def test_deep_tree_round_trip(tmp_path):
    # deeper than the recursion limit: build, save and load must not recurse
    ds = generate_uniform_vectors(4000, 3, seed=0)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(2), partition="ball",
                                         gamma=0.1, seed=0))
    assert deep_tree_depth(tree) > sys.getrecursionlimit()
    a, b = tmp_path / "a.gnt", tmp_path / "b.gnt"
    save_tree(tree, a)
    loaded = load_tree(a, ds)
    assert deep_tree_depth(loaded) == deep_tree_depth(tree)
    for x, y in zip(iter_nodes(loaded.root), iter_nodes(tree.root), strict=True):
        assert (x.centers, x.measuring_set, x.table) == (y.centers, y.measuring_set, y.table)
    save_tree(loaded, b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- structural checks


def _saved(tmp_path, config):
    ds = generate_uniform_vectors(60, 3, seed=1)
    path = tmp_path / "tree.gnt"
    save_tree(build(ds, EUCLID, config), path)
    return ds, path, bytearray(path.read_bytes())


def _root_offsets(blob):
    """Byte offsets of the root record's centers, row count, measuring set
    and codec byte (header: magic, version, config, object count; the
    record: kind byte, center count, ...)."""
    (config_len,) = struct.unpack_from("<I", blob, 8)
    count_at = 12 + config_len + 8 + 1
    (count,) = struct.unpack_from("<I", blob, count_at)
    rows_at = count_at + 4 + 4 * count
    (n_rows,) = struct.unpack_from("<I", blob, rows_at)
    return count_at + 4, rows_at, rows_at + 4, rows_at + 4 + 4 * n_rows


def _assert_rejected(path, ds, blob, match):
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match=match) as err:
        load_tree(path, ds)
    assert str(path) in str(err.value)


def test_load_rejects_bad_object_ids(tmp_path):
    ds, path, blob = _saved(tmp_path, BuildConfig(arity=ConstantArity(4), seed=1))
    centers_at, _, _, _ = _root_offsets(blob)
    (second,) = struct.unpack_from("<I", blob, centers_at + 4)
    # out of range, or an id flipped to another object's: one object twice,
    # the flipped one never
    for value, match in [(60, "outside"), (2**32 - 1, "outside"),
                         (second, "not exactly once")]:
        edited = bytearray(blob)
        struct.pack_into("<I", edited, centers_at, value)
        _assert_rejected(path, ds, edited, match)


def test_load_rejects_bad_measuring_sets(tmp_path):
    config = BuildConfig(arity=ConstantArity(4), reduce_factor=2.0, seed=1)
    ds, path, blob = _saved(tmp_path, config)
    _, rows_at, measuring_at, codec_at = _root_offsets(blob)
    assert struct.unpack_from("<I", blob, rows_at) == (2,)
    a, b = struct.unpack_from("<II", blob, measuring_at)
    for pair in [(b, a), (a, a), (a, 4)]:  # descending, repeated, outside [0, 4)
        edited = bytearray(blob)
        struct.pack_into("<II", edited, measuring_at, *pair)
        _assert_rejected(path, ds, edited, "measuring set")
    # an empty measuring set, with the table rows it sized cut out too
    table_end = codec_at + 2 + 2 * (2 * 4) * 8  # lo and hi, 2 x 4 float64s each
    edited = (blob[:rows_at] + struct.pack("<I", 0) + blob[codec_at:codec_at + 2]
              + blob[table_end:])
    _assert_rejected(path, ds, edited, "measuring set")


def test_load_rejects_codes_above_max_code(tmp_path):
    params = FixedPointParams(8, 2, 0.2)
    config = BuildConfig(arity=ConstantArity(4), fixed_point=params, seed=1)
    ds, path, blob = _saved(tmp_path, config)
    _, _, _, codec_at = _root_offsets(blob)
    assert blob[codec_at] == 1
    for at in (codec_at + 2, codec_at + 2 + 2 * 4 * 4):  # first lo code, first hi code
        edited = bytearray(blob)
        struct.pack_into("<H", edited, at, params.max_code + 1)
        _assert_rejected(path, ds, edited, "exceeds max_code")

