import dataclasses
import hashlib
import json
import math
import struct
import sys
import zlib

import numpy as np
import pytest

from gnatty import (Bucket, BuildConfig, ConfigError, ConstantArity, Dataset, EuclideanMetric,
                    FixedPointParams, GnatNode, GnatTree, PowerArity, RangeQuery, RangeTable,
                    build, generate_uniform_vectors, gnat_range_search, iter_nodes, load_tree,
                    save_tree, table_bytes, table_entry_count, with_fixed_point)
from gnatty.fixedpoint import decode_lut

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
    # upper codes of max_code, +inf when decoded, round-trip as stored
    base = generate_uniform_vectors(120, 3, seed=2)
    big = Dataset([tuple(c * 2000.0 for c in v) for v in base])
    params = FixedPointParams(8, 2, 0.2)
    tree = build(big, EUCLID, BuildConfig(arity=ConstantArity(5), fixed_point=params, seed=2))
    # an upper code decodes to +inf exactly when it is max_code
    assert any(math.inf in row for node in iter_nodes(tree.root)
               for row in node.table.decoded_bounds()[1])
    path = tmp_path / "sat.gnt"
    save_tree(tree, path)
    loaded = load_tree(path, big)
    assert _same_node(loaded.root, tree.root)
    assert ([node.table.decoded_bounds() for node in iter_nodes(loaded.root)]
            == [node.table.decoded_bounds() for node in iter_nodes(tree.root)])


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
    save_tree(GnatTree(Bucket([]), BuildConfig(arity=ConstantArity(2)), Dataset([])), path)
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
    blob = path.read_bytes()
    path.write_bytes(_reseal(blob[:-4] + b"garbage" + blob[-4:]))
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
    path.write_bytes(_reseal(blob[:8] + struct.pack("<I", len(config_blob)) + config_blob
                             + blob[12 + config_len:]))
    with pytest.raises(ConfigError, match="corrupt build config"):
        load_tree(path, ds)


@pytest.mark.parametrize("field", ["total_bits", "magnitude_bits"])
def test_float_codec_width_refused(tmp_path, field):
    # a float total_bits used to raise TypeError inside load_tree, and a
    # float magnitude_bits loaded and raised on the first query
    config = BuildConfig(arity=ConstantArity(4), fixed_point=FixedPointParams(8, 2, 0.2), seed=1)
    ds, path, blob = _saved(tmp_path, config)
    (config_len,) = struct.unpack_from("<I", blob, 8)
    doc = json.loads(bytes(blob[12:12 + config_len]))
    doc["fixed_point"][field] = float(doc["fixed_point"][field])
    edited = json.dumps(doc, sort_keys=True).encode()
    path.write_bytes(_reseal(blob[:8] + struct.pack("<I", len(edited)) + edited
                             + blob[12 + config_len:]))
    with pytest.raises(ConfigError, match=f"corrupt build config.*{field} must be an integer"):
        load_tree(path, ds)


def test_golden_tree_file_bytes(tmp_path):
    # sha256 of save_tree output, pinned so that codec and config-JSON
    # changes cannot alter the file format unnoticed.  Re-pinned from
    # eaf71b07... (exact) and 394c90b3... (fp) for format version 2: node
    # records lost their codec and saturation bytes, and a CRC-32 ends the
    # file.  Re-pinned from 226a7e19... and e117baae... for format version
    # 3: node records gained the filled mask, tables store only the bounds
    # a search cannot derive, and 8-bit codes are one byte (20,523 ->
    # 16,200 bytes exact, 8,414 -> 6,090 fp).
    ds = generate_uniform_vectors(300, 6, seed=0)
    tree = build(ds, EUCLID, BuildConfig(arity=PowerArity(0.5), partition="ball", seed=0))
    twin = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    for name, t, digest in [
        ("exact", tree, "9e05380142fb716ff5d2faf8346ba87552d31056ed1599c4cd75a0badc2758cc"),
        ("fp", twin, "069fae54f4e5a8820ad5b1ee247c0af7e1e519396446a482fe9f75cec57c716c"),
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


def _reseal(blob):
    """blob with its last 4 bytes replaced by the CRC-32 of the rest, so an
    edited file passes the checksum and reaches the checks behind it."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _root_offsets(blob):
    """Byte offsets of the root record's centers, row count, measuring set,
    filled mask and table (header: magic, version, config, object count;
    the record: kind byte, center count, ...)."""
    (config_len,) = struct.unpack_from("<I", blob, 8)
    count_at = 12 + config_len + 8 + 1
    (count,) = struct.unpack_from("<I", blob, count_at)
    rows_at = count_at + 4 + 4 * count
    (n_rows,) = struct.unpack_from("<I", blob, rows_at)
    mask_at = rows_at + 4 + 4 * n_rows
    return count_at + 4, rows_at, rows_at + 4, mask_at, mask_at + count


def _assert_rejected(path, ds, blob, match):
    path.write_bytes(_reseal(blob))
    with pytest.raises(ConfigError, match=match) as err:
        load_tree(path, ds)
    assert str(path) in str(err.value)


def test_load_rejects_bad_object_ids(tmp_path):
    ds, path, blob = _saved(tmp_path, BuildConfig(arity=ConstantArity(4), seed=1))
    centers_at, *_ = _root_offsets(blob)
    (second,) = struct.unpack_from("<I", blob, centers_at + 4)
    # out of range, or an id flipped to another object's: one object twice,
    # the flipped one never
    for value, match in [(60, "outside"), (2**32 - 1, "outside"),
                         (second, "not exactly once")]:
        edited = bytearray(blob)
        struct.pack_into("<I", edited, centers_at, value)
        _assert_rejected(path, ds, edited, match)


def test_load_rejects_unknown_kinds_and_counts_past_the_end(tmp_path):
    ds, path, blob = _saved(tmp_path, BuildConfig(arity=ConstantArity(4), seed=1))
    centers_at, *_ = _root_offsets(blob)
    kind_at = centers_at - 5  # the root record: kind byte, center count, centers
    edited = bytearray(blob)
    edited[kind_at] = 7
    _assert_rejected(path, ds, edited, r"corrupt node record \(kind=7\)")
    edited = bytearray(blob)
    struct.pack_into("<I", edited, kind_at + 1, 2**32 - 1)
    _assert_rejected(path, ds, edited, "truncated")


def test_load_rejects_bad_measuring_sets(tmp_path):
    config = BuildConfig(arity=ConstantArity(4), reduce_factor=2.0, seed=1)
    ds, path, blob = _saved(tmp_path, config)
    _, rows_at, measuring_at, mask_at, table_at = _root_offsets(blob)
    assert struct.unpack_from("<I", blob, rows_at) == (2,)
    a, b = struct.unpack_from("<II", blob, measuring_at)
    for pair in [(b, a), (a, a), (a, 4)]:  # descending, repeated, outside [0, 4)
        edited = bytearray(blob)
        struct.pack_into("<II", edited, measuring_at, *pair)
        _assert_rejected(path, ds, edited, "measuring set")
    # an empty measuring set, with the mask and table rows it sized cut out
    # too: lo is 2 x 3 float64s, hi 2 x (filled children)
    table_end = table_at + (2 * 3 + 2 * sum(blob[mask_at:table_at])) * 8
    edited = blob[:rows_at] + struct.pack("<I", 0) + blob[table_end:]
    _assert_rejected(path, ds, edited, "measuring set")


def test_load_rejects_codes_above_max_code(tmp_path):
    # 12-bit codes are stored as uint16, so a code can exceed max_code
    params = FixedPointParams(12, 4, 0.2)
    config = BuildConfig(arity=ConstantArity(4), fixed_point=params, seed=1)
    ds, path, blob = _saved(tmp_path, config)
    *_, mask_at, table_at = _root_offsets(blob)
    assert blob[mask_at:table_at] == b"\x01" * 4
    for at in (table_at, table_at + 2 * 4 * 3):  # first lo code, first hi code
        edited = bytearray(blob)
        struct.pack_into("<H", edited, at, params.max_code + 1)
        _assert_rejected(path, ds, edited, "exceeds max_code")



# ---------------------------------------------------------------- format versions

# save_tree output of format version 1, whose node records carried a codec
# and a saturation byte, for build(OLD_DATASET, EUCLID, BuildConfig(
# arity=ConstantArity(2), fixed_point=FixedPointParams(8, 2, 0.2)))
OLD_DATASET = Dataset([(0.0,), (1.0,), (3.0,)])
V1_FILE = (
    b"GNTF\x01\x00\x00\x00\xc7\x00\x00\x00"
    b'{"arity": {"kind": "constant", "m": 2}, "bucket_size": 0, "fixed_point": '
    b'{"beta": 0.2, "magnitude_bits": 2, "total_bits": 8}, "gamma": 0.9, '
    b'"partition": "hyperplane", "reduce_factor": 1.0, "seed": 0}'
    b"\x03\x00\x00\x00\x00\x00\x00\x00"                  # object count
    b"\x01\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"  # root: centers 0, 1
    b"\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"      # measuring set 0, 1
    b"\x01\x00"                                          # codec and saturation bytes
    b"\x00\x00@\x00@\x00\x00\x00\x01\x00P\x00A\x00J\x00"      # lo and hi codes
    b"\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00"  # buckets [], [2]
)
# format version 2 of the same tree: no codec bytes, full 2 x 2 uint16
# lo and hi code tables, and a CRC-32 at the end
V2_FILE = (V1_FILE[:4] + struct.pack("<I", 2) + V1_FILE[8:-(2 + 16 + 14)] + V1_FILE[-(16 + 14):]
           + b"\xe5\x95\xb4F")


def _assert_version_refused(tmp_path, blob, version):
    path = tmp_path / "old.gnt"
    path.write_bytes(blob)
    with pytest.raises(ConfigError, match=f"version {version}") as err:
        load_tree(path, OLD_DATASET)
    assert str(path) in str(err.value)


def test_v1_file_refused(tmp_path):
    _assert_version_refused(tmp_path, V1_FILE, 1)


def test_v2_file_refused(tmp_path):
    _assert_version_refused(tmp_path, V2_FILE, 2)


def test_v3_file_layout(tmp_path):
    # the tree of V2_FILE saved as version 3: child 0 is empty, so the
    # filled mask is 0, 1; lo drops each row's own column (codes 0) and
    # keeps 64, 64; hi keeps child 1's column, 80 and 74, and derives
    # child 0's, 1 and 65 (one above its lo code); codes are uint8
    tree = build(OLD_DATASET, EUCLID, BuildConfig(arity=ConstantArity(2),
                                                  fixed_point=FixedPointParams(8, 2, 0.2)))
    path = tmp_path / "v3.gnt"
    save_tree(tree, path)
    blob = path.read_bytes()
    header = V2_FILE[:4] + struct.pack("<I", 3) + V2_FILE[8:12 + 0xc7 + 8]
    root = (b"\x01\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"  # centers 0, 1
            b"\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"      # measuring set 0, 1
            b"\x00\x01"                                          # filled mask
            b"@@"                                                # lo codes
            b"PJ")                                               # hi codes
    buckets = b"\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00"
    assert blob == header + root + buckets + struct.pack("<I", zlib.crc32(header + root + buckets))
    loaded = load_tree(path, OLD_DATASET)
    assert _same_node(loaded.root, tree.root)
    assert (loaded.root.table.lo.tolist(), loaded.root.table.hi.tolist()) == ([[64], [64]],
                                                                              [[80], [74]])
    lut = decode_lut(FixedPointParams(8, 2, 0.2)).tolist()
    assert loaded.root.table.decoded_bounds() == ([[lut[0], lut[64]], [lut[64], lut[0]]],
                                                  [[lut[1], lut[80]], [lut[65], lut[74]]])


def _with_root_table(tree, table):
    return GnatTree(dataclasses.replace(tree.root, table=table), tree.config, tree.dataset)


def test_mask_disagreeing_with_children_refused(tmp_path):
    # a root whose mask marks child 0 filled, with a hi column for it,
    # though its bucket is empty; and a root that marks a filled child empty
    tree = build(OLD_DATASET, EUCLID, BuildConfig(arity=ConstantArity(2)))
    table = tree.root.table
    assert table.filled.tolist() == [False, True]
    lying = [RangeTable(table.lo, np.hstack([table.lo, table.hi]), table.rows,
                        np.array([True, True])),
             RangeTable(table.lo, table.hi[:, :0], table.rows, np.array([False, False]))]
    path = tmp_path / "lying.gnt"
    for bad, slot, says in zip(lying, (0, 1), ("filled", "empty")):
        save_tree(_with_root_table(tree, bad), path)
        with pytest.raises(ConfigError, match=f"child {slot} is {says}") as err:
            load_tree(path, OLD_DATASET)
        assert str(path) in str(err.value)


def _table_section(tree, blob) -> int:
    """Bytes of blob, tree's save_tree output, that hold table bounds: all
    but the header, the checksum and the node records' ids, counts and
    masks."""
    (config_len,) = struct.unpack_from("<I", blob, 8)
    other = 4 + 4 + 4 + config_len + 8 + 4
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Bucket):
            other += 1 + 4 + 4 * len(node.object_ids)
        else:
            m = len(node.centers)
            other += 1 + 4 + 4 * m + 4 + 4 * len(node.measuring_set) + m
            stack.extend(node.children)
    return len(blob) - other


def test_file_table_section_is_table_bytes(tmp_path):
    # 8-bit codes are stored in one byte each, as table_bytes charges them;
    # exact bounds are stored as float64, where 4 bytes are charged
    ds = generate_uniform_vectors(400, 5, seed=2)
    path = tmp_path / "tree.gnt"
    for config in (BuildConfig(arity=PowerArity(0.5), partition="ball", seed=2),
                   BuildConfig(arity=ConstantArity(6), reduce_factor=2.0, seed=2)):
        tree = build(ds, EUCLID, config)
        for t, factor in ((tree, 2), (with_fixed_point(tree, FixedPointParams(8, 2, 0.2)), 1)):
            save_tree(t, path)
            assert _table_section(t, path.read_bytes()) == factor * table_bytes(t)


def test_edited_codec_params_refused(tmp_path):
    # an edited beta used to load, and its tables then decoded to bounds
    # the tree never measured, answering queries wrongly
    config = BuildConfig(arity=ConstantArity(4), fixed_point=FixedPointParams(8, 2, 0.2), seed=1)
    ds, path, blob = _saved(tmp_path, config)
    (config_len,) = struct.unpack_from("<I", blob, 8)
    doc = json.loads(bytes(blob[12:12 + config_len]))
    doc["fixed_point"]["beta"] = 0.5
    edited = json.dumps(doc, sort_keys=True).encode()
    assert len(edited) == config_len
    blob[12:12 + config_len] = edited
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="checksum") as err:
        load_tree(path, ds)
    assert str(path) in str(err.value)


def test_unsealed_byte_edit_refused(tmp_path):
    ds, path, blob = _saved(tmp_path, BuildConfig(arity=ConstantArity(4), seed=1))
    *_, table_at = _root_offsets(blob)
    for at in (table_at, len(blob) - 1):  # a table bound, the checksum itself
        edited = bytearray(blob)
        edited[at] ^= 0x01
        path.write_bytes(bytes(edited))
        with pytest.raises(ConfigError, match="checksum"):
            load_tree(path, ds)
    # resealed, the same bound edit loads: the checksum guards corruption,
    # the structural checks guard what the search relies on
    edited = bytearray(blob)
    edited[table_at] ^= 0x01
    path.write_bytes(_reseal(edited))
    load_tree(path, ds)


def test_save_refuses_table_outside_config_codec(tmp_path):
    ds = generate_uniform_vectors(60, 3, seed=1)
    tree = build(ds, EUCLID, BuildConfig(arity=ConstantArity(4), seed=1))
    twin = with_fixed_point(tree, FixedPointParams(8, 2, 0.2))
    path = tmp_path / "mixed.gnt"
    for root, config in [(twin.root, tree.config), (tree.root, twin.config)]:
        with pytest.raises(ConfigError, match="codec"):
            save_tree(GnatTree(root, config, ds), path)
        assert not path.exists()
