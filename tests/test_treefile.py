import hashlib
import struct

import pytest

from gnatty import (Bucket, BuildConfig, ConfigError, ConstantArity, EuclideanMetric,
                    FixedPointParams, PowerArity, RangeQuery, build,
                    generate_uniform_vectors, gnat_range_search, load_tree, save_tree,
                    table_entry_count, with_fixed_point)

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
