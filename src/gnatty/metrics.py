"""Metric abstraction and the two concrete metrics (Euclidean, Levenshtein).

All index structures in this package are generic over a :class:`MetricSpace`.
Distances are reported as floats at the interface even for integer-valued
metrics so that query and pruning code has a single numeric path.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import repeat

from .errors import ConfigError


class MetricSpace(ABC):
    """A distance function over some universe of objects.

    Implementations must satisfy the metric axioms: d(x,x) = 0,
    d(x,y) = d(y,x), and d(x,y) <= d(x,z) + d(z,y).  Instances are
    immutable and safe for concurrent reads.
    """

    name = "abstract"

    @abstractmethod
    def distance(self, a, b) -> float:
        """Return the distance between two objects (non-negative)."""

    def distances(self, a, objs) -> list[float]:
        """Distances from a to each object of the sequence objs, in order.

        The bulk paths (partitions, range tables, calibration, oracles,
        baseline builds) go through this one call.  The default makes one
        distance() call per object, so a subclass that defines only
        distance() keeps working and keeps seeing every evaluation;
        overrides must return exactly what distance(a, b) returns.
        """
        dist = self.distance
        return [dist(a, b) for b in objs]


def edit_distance(s: str, t: str) -> int:
    """Unit-cost Levenshtein distance (insert / delete / substitute).

    Classic dynamic program kept to a single working row of length
    min(|s|,|t|) + 1.
    """
    if len(s) > len(t):
        s, t = t, s
    if not s:
        return len(t)
    row = list(range(len(s) + 1))
    for i, tc in enumerate(t, start=1):
        prev_diag = row[0]
        row[0] = i
        for j, sc in enumerate(s, start=1):
            cost = prev_diag if sc == tc else prev_diag + 1
            prev_diag = row[j]
            row[j] = min(row[j] + 1, row[j - 1] + 1, cost)
    return row[-1]


class EuclideanMetric(MetricSpace):
    """Euclidean distance over real vectors (tuples or array rows)."""

    name = "euclidean"

    def distance(self, a, b) -> float:
        # math.dist validates the dimensions itself; keep the happy path free
        try:
            return math.dist(a, b)
        except ValueError:
            raise ConfigError(f"dimension mismatch: {len(a)} vs {len(b)}") from None

    def distances(self, a, objs) -> list[float]:
        # the same math.dist as distance(), minus the per-pair Python frames
        try:
            return list(map(math.dist, repeat(a), objs))
        except ValueError:
            bad = next((len(b) for b in objs if len(b) != len(a)), None)
            raise ConfigError(f"dimension mismatch: {len(a)} vs {bad}") from None


class EditDistanceMetric(MetricSpace):
    """Levenshtein distance over strings, surfaced as a float."""

    name = "edit"

    def distance(self, a, b) -> float:
        return float(edit_distance(a, b))


class DistanceCounter(MetricSpace):
    """Wraps a metric and counts evaluations.

    One counter per concern (build, calibration, one per in-flight query);
    results of the wrapped metric are returned unmodified.
    """

    name = "counter"

    def __init__(self, wrapped: MetricSpace):
        self.wrapped = wrapped
        self.count = 0
        self._fn = wrapped.distance
        self._fns = wrapped.distances

    def distance(self, a, b) -> float:
        self.count += 1
        return self._fn(a, b)

    def distances(self, a, objs) -> list[float]:
        self.count += len(objs)
        return self._fns(a, objs)


METRICS = {
    "euclidean": EuclideanMetric,
    "edit": EditDistanceMetric,
}


def metric_by_name(name: str) -> MetricSpace:
    try:
        return METRICS[name]()
    except KeyError:
        raise ConfigError(f"unknown metric {name!r}; choose from {sorted(METRICS)}") from None
