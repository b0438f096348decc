"""Versioned binary tree files.

Layout (little endian): magic ``GNTF``, u32 version (2; others are
refused), a length-prefixed JSON echo of the build config, u64 object
count, pre-order node records, then the u32 ``zlib.crc32`` of every byte
before it.  Every table is in the config's codec, float64 bounds or uint16
fixed-point codes, and round-trips as stored; nothing is re-encoded on
load.  The dataset itself is not stored, the caller supplies it again
(object count is checked).
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib

import numpy as np

from .datasets import Dataset
from .errors import ConfigError
from .fixedpoint import FixedPointParams
from .tree import Bucket, BuildConfig, ConstantArity, GnatNode, GnatTree, PowerArity, RangeTable

_MAGIC = b"GNTF"
_VERSION = 2

_KIND_BUCKET = 0
_KIND_NODE = 1
_ARITY_KINDS = {"constant": ConstantArity, "power": PowerArity}


def _config_json(config: BuildConfig) -> bytes:
    doc = dataclasses.asdict(config)
    doc["arity"]["kind"] = "constant" if isinstance(config.arity, ConstantArity) else "power"
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _config_from_json(raw: bytes) -> BuildConfig:
    doc = json.loads(raw.decode("utf-8"))
    arity = dict(doc["arity"])
    arity_cls = _ARITY_KINDS[arity.pop("kind")]
    fp = doc["fixed_point"]
    return BuildConfig(**{**doc, "arity": arity_cls(**arity),
                          "fixed_point": None if fp is None else FixedPointParams(**fp)})


def _write_node(out: list[bytes], root, fp: FixedPointParams | None, path) -> None:
    """Append the records of root's subtree in pre-order (a node, then each
    child's subtree in turn); an explicit stack keeps deep trees off
    Python's recursion limit.  Every table must be in the codec fp."""
    dtype = np.float64 if fp is None else np.uint16
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Bucket):
            out.append(struct.pack("<BI", _KIND_BUCKET, len(node.object_ids)))
            out.append(np.asarray(node.object_ids, dtype=np.uint32).tobytes())
            continue
        table = node.table
        if table.fixed_point != fp:
            raise ConfigError(f"{path}: table codec {table.fixed_point} is not the config's {fp}")
        out.append(struct.pack("<BI", _KIND_NODE, len(node.centers)))
        out.append(np.asarray(node.centers, dtype=np.uint32).tobytes())
        out.append(struct.pack("<I", len(node.measuring_set)))
        out.append(np.asarray(node.measuring_set, dtype=np.uint32).tobytes())
        out.append(table.lo.astype(dtype, copy=False).tobytes())
        out.append(table.hi.astype(dtype, copy=False).tobytes())
        stack.extend(reversed(node.children))


def save_tree(tree: GnatTree, path) -> None:
    config_blob = _config_json(tree.config)
    out = [_MAGIC, struct.pack("<I", _VERSION),
           struct.pack("<I", len(config_blob)), config_blob,
           struct.pack("<Q", tree.size)]
    _write_node(out, tree.root, tree.config.fixed_point, path)
    body = b"".join(out)
    with open(path, "wb") as handle:
        handle.write(body)
        handle.write(struct.pack("<I", zlib.crc32(body)))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.end = len(blob)
        self.path = path

    def _take(self, size: int) -> int:
        """Offset of the next size bytes, which the reader moves past."""
        if self.pos + size > self.end:
            raise ConfigError(f"{self.path}: truncated tree file")
        self.pos += size
        return self.pos - size

    def unpack(self, fmt: str):
        return struct.unpack_from(fmt, self.blob, self._take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        offset = self._take(np.dtype(dtype).itemsize * count)
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=offset).copy()


def _read_node(reader: _Reader, fp: FixedPointParams | None, size: int):
    """Read the pre-order records of one tree over objects [0, size).

    Checks what the search relies on: every object id in [0, size) appears
    exactly once, each measuring set is non-empty, strictly ascending and
    within the node's centers, and no fixed-point code exceeds max_code.
    """
    dtype = np.float64 if fp is None else np.uint16
    ids = []
    top = [None]
    stack = [(top, 0)]
    while stack:
        siblings, slot = stack.pop()
        kind, count = reader.unpack("<BI")
        if kind == _KIND_BUCKET:
            members = reader.array(np.uint32, count)
            ids.append(members)
            siblings[slot] = Bucket(members.astype(int).tolist())
            continue
        if kind != _KIND_NODE:
            raise ConfigError(f"{reader.path}: corrupt node record (kind={kind})")
        centers = reader.array(np.uint32, count)
        ids.append(centers)
        (n_rows,) = reader.unpack("<I")
        measuring = reader.array(np.uint32, n_rows).astype(int).tolist()
        if (not measuring or measuring[-1] >= count
                or any(a >= b for a, b in zip(measuring, measuring[1:]))):
            raise ConfigError(f"{reader.path}: measuring set {measuring} is not "
                              f"a non-empty ascending subset of [0, {count})")
        bounds = reader.array(dtype, 2 * n_rows * count).reshape(2, n_rows, count)
        if fp is not None and bounds.max() > fp.max_code:
            raise ConfigError(f"{reader.path}: code {bounds.max()} exceeds max_code {fp.max_code}")
        node = GnatNode(centers.astype(int).tolist(), RangeTable(*bounds, fp), [None] * count,
                        measuring)
        siblings[slot] = node
        stack.extend((node.children, j) for j in reversed(range(count)))
    stored = np.concatenate(ids).astype(np.int64)
    if len(stored) and stored.max() >= size:
        raise ConfigError(f"{reader.path}: object id {int(stored.max())} outside [0, {size})")
    counts = np.bincount(stored, minlength=size)
    if (counts != 1).any():
        bad = int(np.flatnonzero(counts != 1)[0])
        raise ConfigError(f"{reader.path}: object id {bad} appears {int(counts[bad])} times, "
                          "not exactly once")
    return top[0]


def load_tree(path, dataset: Dataset) -> GnatTree:
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != _MAGIC:
        raise ConfigError(f"{path}: not a tree file (bad magic)")
    reader = _Reader(blob, path)
    reader.pos = 4
    (version,) = reader.unpack("<I")
    if version != _VERSION:
        raise ConfigError(f"{path}: unsupported tree file version {version}")
    reader.end -= 4  # the checksum; reading the version left at least 4 bytes
    (crc,) = struct.unpack_from("<I", blob, reader.end)
    if zlib.crc32(memoryview(blob)[:reader.end]) != crc:
        raise ConfigError(f"{path}: checksum mismatch, the tree file is corrupt")
    (config_len,) = reader.unpack("<I")
    try:
        config = _config_from_json(blob[reader.pos:reader.pos + config_len])
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: corrupt build config: {exc!r}") from exc
    reader.pos += config_len
    (size,) = reader.unpack("<Q")
    if size == 0:
        raise ConfigError(f"{path}: tree is over no objects, which build refuses")
    if size != len(dataset):
        raise ConfigError(
            f"{path}: tree was built over {size} objects, dataset has {len(dataset)}")
    root = _read_node(reader, config.fixed_point, size)
    if reader.pos != reader.end:
        raise ConfigError(f"{path}: {reader.end - reader.pos} trailing bytes after the tree")
    return GnatTree(root, config, dataset)
