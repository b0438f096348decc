import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gnatty import (BuildConfig, ConfigError, ConstantArity, DistanceCounter,
                    EditDistanceMetric, EuclideanMetric, MetricSpace, RangeQuery, build,
                    edit_distance, generate_random_words, generate_uniform_vectors,
                    gnat_range_search, linear_scan_range, metric_by_name)


def edit_oracle(s: str, t: str) -> int:
    """Independent reference: memoized recursion over all edit scripts."""

    @functools.cache
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j) + 1,
                   go(i, j - 1) + 1,
                   go(i - 1, j - 1) + (s[i - 1] != t[j - 1]))

    return go(len(s), len(t))


def test_euclidean_examples():
    euclid = EuclideanMetric()
    assert euclid.distance((0, 0), (0, 0)) == 0.0
    assert euclid.distance((0, 0), (3, 4)) == 5.0
    assert euclid.distance((1, 1, 1), (2, 2, 2)) == pytest.approx(math.sqrt(3))


def test_euclidean_dimension_mismatch():
    with pytest.raises(ConfigError):
        EuclideanMetric().distance((1,), (1, 2))


def test_edit_examples():
    assert edit_distance("", "abc") == 3
    assert edit_distance("abc", "abc") == 0
    assert edit_oracle("kitten", "sitting") == 3
    assert edit_distance("kitten", "sitting") == 3


@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8))
def test_edit_matches_oracle(s, t):
    assert edit_distance(s, t) == edit_oracle(s, t)


@given(st.text(alphabet="abcdef", max_size=12), st.text(alphabet="abcdef", max_size=12))
def test_edit_properties(s, t):
    d = edit_distance(s, t)
    assert d == edit_distance(t, s)
    assert d <= max(len(s), len(t))
    assert edit_distance(s, "") == len(s)


def _axiom_check(metric, objects, n_triples, seed, tol):
    import numpy as np

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(objects), size=(n_triples, 3))
    for i, j, k in idx:
        x, y, z = objects[int(i)], objects[int(j)], objects[int(k)]
        assert metric.distance(x, x) == 0.0
        dxy = metric.distance(x, y)
        assert dxy >= 0.0
        assert dxy == metric.distance(y, x)
        assert dxy <= metric.distance(x, z) + metric.distance(z, y) + tol


def test_metric_axioms_euclidean(euclid):
    objects = generate_uniform_vectors(400, 8, seed=9).objects
    _axiom_check(euclid, objects, 10_000, seed=2, tol=1e-9)


def test_metric_axioms_edit(editm):
    objects = generate_random_words(300, seed=9).objects
    _axiom_check(editm, objects, 10_000, seed=2, tol=0)


def test_distance_counter_exact_and_repeatable(euclid):
    ds = generate_uniform_vectors(50, 4, seed=0)
    workload = [(ds[i], ds[j]) for i in range(10) for j in range(10)]

    def run():
        counter = DistanceCounter(euclid)
        for a, b in workload:
            assert counter.distance(a, b) == euclid.distance(a, b)
        return counter.count

    first, second = run(), run()
    assert first == second == len(workload)


def test_metric_by_name():
    assert isinstance(metric_by_name("euclidean"), EuclideanMetric)
    assert isinstance(metric_by_name("edit"), EditDistanceMetric)
    with pytest.raises(ConfigError):
        metric_by_name("cosine")


# ---------------------------------------------------------------- batched kernel


@pytest.mark.parametrize("metric,objects", [
    (EuclideanMetric(), generate_uniform_vectors(150, 7, seed=4).objects),
    (EditDistanceMetric(), generate_random_words(80, seed=4).objects),
])
def test_distances_is_the_scalar_kernel(metric, objects):
    # == on floats: the batch must reproduce distance() bit for bit, in
    # both argument orders, or oracle, calibration and index disagree
    for a in objects[:8]:
        batch = metric.distances(a, objects)
        assert batch == [metric.distance(a, b) for b in objects]
        assert batch == [metric.distance(b, a) for b in objects]
    assert metric.distances(objects[0], []) == []


@given(st.lists(st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150),
                          st.floats(-1e150, 1e150)), min_size=1, max_size=20))
def test_euclidean_distances_bitwise_symmetric(points):
    euclid = EuclideanMetric()
    for a in points[:3]:
        batch = euclid.distances(a, points)
        assert batch == [euclid.distance(b, a) for b in points]


@given(st.integers(1, 10).flatmap(lambda dim: st.tuples(
    *[st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim)] * 2)))
def test_euclidean_within_two_ulps_of_the_exact_distance(pair):
    # the rounding margin of gnatty.search rests on this bound: 2 ulps of
    # a normal float are at most 4 * 2**-53 of its value
    a, b = pair
    d = EuclideanMetric().distance(a, b)
    exact_square = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a, b))
    slack = 2 * Fraction(math.ulp(d))
    assert max(Fraction(d) - slack, 0) ** 2 <= exact_square <= (Fraction(d) + slack) ** 2


def test_distances_dimension_mismatch(euclid):
    with pytest.raises(ConfigError):
        euclid.distances((0.0, 0.0), [(1.0, 1.0), (1.0, 2.0, 3.0)])


def test_distance_counter_charges_batch_length(euclid):
    ds = generate_uniform_vectors(30, 3, seed=1)
    counter = DistanceCounter(euclid)
    assert counter.distances(ds[0], ds.objects) == euclid.distances(ds[0], ds.objects)
    assert counter.distances(ds[1], []) == []
    assert counter.count == 30


class _Manhattan(MetricSpace):
    """Defines only distance(); bulk paths must reach it through the default."""

    name = "l1"

    def __init__(self):
        self.calls = 0

    def distance(self, a, b) -> float:
        self.calls += 1
        return float(sum(abs(x - y) for x, y in zip(a, b)))


def test_distance_only_subclass_uses_default_batch():
    metric = _Manhattan()
    assert metric.distances((0, 0), [(1, 2), (3, -1)]) == [3.0, 4.0]
    assert metric.calls == 2
    counter = DistanceCounter(metric)
    counter.distances((0, 0), [(1, 1)] * 5)
    assert counter.count == metric.calls - 2 == 5

    ds = generate_uniform_vectors(120, 3, seed=6)
    tree = build(ds, metric, BuildConfig(arity=ConstantArity(4), partition="ball", seed=6))
    for q in ds.objects[:5]:
        stats = gnat_range_search(tree, RangeQuery(q, 0.4), metric)
        assert stats.results == linear_scan_range(ds, q, 0.4, metric)
