"""Datasets: in-memory object collections, generators, loaders, query splits.

A dataset is an ordered list of objects with stable indices 0..n-1; index
structures store these indices, never the objects themselves.  All
randomness flows through named PCG64 streams derived from a single seed
(one stream per concern) so that every experiment is reproducible
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, DatasetFormatError

# Stream ids keep the per-concern generators independent of each other
# for any base seed.
_STREAMS = {
    "dataset": 101,
    "queries": 211,
    "pivots": 307,
    "reduce": 401,
}


def rng_stream(seed: int, concern: str) -> np.random.Generator:
    """A deterministic PCG64 generator for one named concern."""
    if not seed >= 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([int(seed), _STREAMS[concern]])


def finite_coordinates(objects) -> bool:
    """Whether every coordinate of every vector among objects is finite.

    Every object that is not a str is a vector: a tuple, list or array
    row of reals."""
    return all(map(math.isfinite, chain.from_iterable(
        obj for obj in objects if not isinstance(obj, str))))


@dataclass
class Dataset:
    """Ordered list of objects: strings are str, every other object is a
    vector of reals (a tuple, list or array row).

    Vector coordinates must be finite: a distance from an inf or nan
    coordinate is inf or nan, which no triangle bound can prune exactly.
    """

    objects: list = field(default_factory=list)

    def __post_init__(self):
        if not finite_coordinates(self.objects):
            bad = next(i for i, v in enumerate(self.objects) if not finite_coordinates([v]))
            raise ConfigError(f"vector {bad} has a non-finite coordinate: {self.objects[bad]}")

    def __len__(self) -> int:
        return len(self.objects)

    def __getitem__(self, index: int):
        return self.objects[index]

    def __iter__(self):
        return iter(self.objects)

    @property
    def dim(self) -> int | None:
        """Coordinate count for vector datasets, None for empty or string data."""
        if self.objects and isinstance(self.objects[0], tuple):
            return len(self.objects[0])
        return None


def generate_uniform_vectors(n: int, dim: int, seed: int) -> Dataset:
    """n vectors with coordinates independently uniform in [0, 1)."""
    if n < 0 or dim < 1:
        raise ConfigError(f"need n >= 0 and dim >= 1, got n={n}, dim={dim}")
    rng = rng_stream(seed, "dataset")
    coords = rng.random((n, dim))
    return Dataset([tuple(row) for row in coords.tolist()])


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def generate_random_words(n: int, seed: int, min_len: int = 3, max_len: int = 12) -> Dataset:
    """n random lowercase words, lengths uniform in [min_len, max_len]."""
    if n < 0 or min_len < 0 or max_len < min_len:
        raise ConfigError("invalid word-generation parameters")
    rng = rng_stream(seed, "dataset")
    words = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        letters = rng.integers(0, len(_ALPHABET), size=length)
        words.append("".join(_ALPHABET[i] for i in letters))
    return Dataset(words)


def load_vectors(path) -> Dataset:
    """Read a vector file: first line ``<dim> <n>``, then n lines of dim reals."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(path, 0, f"not valid UTF-8: {exc}") from exc
    if not lines:
        raise DatasetFormatError(path, 1, "missing header line '<dim> <n>'")
    header = lines[0].split()
    if len(header) != 2:
        raise DatasetFormatError(path, 1, f"header must be '<dim> <n>', got {lines[0]!r}")
    try:
        dim, n = int(header[0]), int(header[1])
    except ValueError:
        raise DatasetFormatError(path, 1, f"header must be two integers, got {lines[0]!r}") from None
    if dim < 1 or n < 0:
        raise DatasetFormatError(path, 1, f"need dim >= 1 and n >= 0, got dim={dim}, n={n}")
    body = [(line_no, line) for line_no, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != n:
        raise DatasetFormatError(path, len(lines), f"header promises {n} vectors, file has {len(body)}")
    objects = []
    for line_no, line in body:
        parts = line.split()
        if len(parts) != dim:
            raise DatasetFormatError(path, line_no, f"expected {dim} coordinates, got {len(parts)}")
        try:
            vector = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise DatasetFormatError(path, line_no, f"bad coordinate: {exc}") from None
        if not all(map(math.isfinite, vector)):
            raise DatasetFormatError(path, line_no, f"non-finite coordinate in {line.strip()!r}")
        objects.append(vector)
    return Dataset(objects)


def load_strings(path) -> Dataset:
    """Read a string file: one object per line (duplicates permitted)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # trailing newline, not an empty object
    objects = []
    for line_no, line in enumerate(lines, start=1):
        try:
            objects.append(line.rstrip(b"\r").decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(path, line_no, f"not valid UTF-8: {exc}") from None
    return Dataset(objects)


def split_queries(dataset: Dataset, q: int, seed: int) -> tuple[Dataset, Dataset]:
    """Split q uniformly chosen objects out as queries, keep the rest as database.

    The split is a disjoint partition, deterministic per seed; both halves
    preserve the original relative order.
    """
    n = len(dataset)
    if not 0 <= q <= n:
        raise ConfigError(f"cannot take {q} queries from {n} objects")
    rng = rng_stream(seed, "queries")
    picked = set(rng.choice(n, size=q, replace=False).tolist()) if q else set()
    queries = Dataset([dataset[i] for i in range(n) if i in picked])
    database = Dataset([dataset[i] for i in range(n) if i not in picked])
    return queries, database
