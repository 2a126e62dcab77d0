"""Batch kernels against their scalar forms, bit for bit.

Every stock and config kernel has a batch form that sweeps and audits
use; the scalar form stays the reference.  Outputs are compared as
uint64 bit patterns, so a signed zero or a last-bit difference counts.
The in-place stratified sampler is held to the expression it replaced,
and a ball sweep without batch kernels to one with them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgmetric import (GMetric, MultMetric, SelfMap, certify_region, get_fixture, gm_from_exp,
                      gm_from_product, load_fixture_config)
from mgmetric._jsonutil import dumps
from mgmetric.sampling import _stratified
from test_contraction import LEAVES_BALL

POINTS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
TRIPLES = st.lists(st.tuples(POINTS, POINTS, POINTS), min_size=1, max_size=40)
# both zeros by name, so that a product-pl pair distance can be -0.0
COEFFS = st.sampled_from([0.0, -0.0]) | st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def rows(draw, bounded_below: bool):
    """1 to 64 contiguous piecewise rows covering [0, inf) or the whole line."""
    cuts = sorted(set(draw(st.lists(st.floats(min_value=-20.0, max_value=20.0,
                                              allow_nan=False), max_size=63))))
    if bounded_below:
        cuts = [0.0] + [c for c in cuts if c > 0.0]
    edges = [None if not bounded_below else cuts.pop(0)] + cuts + [None]
    return [{"interval": [lo, hi], "slope": draw(COEFFS), "offset": draw(COEFFS)}
            for lo, hi in zip(edges, edges[1:])]


def _columns(triples):
    return [np.array(col, dtype=np.float64) for col in zip(*triples)]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_g_bitwise(g: GMetric, triples):
    x, y, z = _columns(triples)
    assert g.batch is not None
    scalar = [g(*t) for t in triples]
    assert np.array_equal(_bits(g.many(x, y, z)), _bits(scalar))


def _assert_map_bitwise(F: SelfMap, points):
    assert F.batch is not None
    x = np.array(points, dtype=np.float64)
    assert np.array_equal(_bits(F.many(x)), _bits([F(p) for p in points]))


@settings(max_examples=200, deadline=None)
@given(TRIPLES)
def test_stock_metrics_batch_is_bitwise_scalar(triples):
    for fixture in ("exp-usual", "product-exp"):
        _assert_g_bitwise(get_fixture(fixture).gmetric, triples)


@settings(max_examples=200, deadline=None)
@given(rows(bounded_below=False), TRIPLES)
def test_product_pl_batch_is_bitwise_scalar(space_rows, triples):
    fx = load_fixture_config({"space": {"kind": "product-pl", "rows": space_rows}})
    _assert_g_bitwise(fx.gmetric, triples)
    x, y, _ = _columns(triples)
    scalar = [fx.mult(a, b) for a, b, _ in triples]
    assert np.array_equal(_bits(fx.mult.many(x, y)), _bits(scalar))


def _skewed(x, y):
    # an asymmetric pair function with no batch form
    return abs(2.0 * x - y)


def test_pair_sum_batch_leaves_the_pair_metric_output_unchanged():
    # a pair batch form that returns one cached array for every call (g.many
    # never calls the scalar form): the sort writes arrays of its own
    cached = np.array([2.0, -0.0, 0.5, 1.0])
    before = _bits(cached).copy()
    g = gm_from_product(MultMetric(dist=lambda x, y: 0.0, batch=lambda x, y: cached))
    x, y, z = (np.linspace(0.0, 1.0, 4) + k for k in range(3))
    assert np.array_equal(_bits(g.many(x, y, z)), _bits([6.0, 0.0, 1.5, 3.0]))
    assert np.array_equal(_bits(cached), before)


@settings(max_examples=200, deadline=None)
@given(TRIPLES)
def test_pair_sum_of_a_scalar_pair_function_batch_is_bitwise_scalar(triples):
    # the batch form runs the pair function once per pair, on Python floats
    _assert_g_bitwise(gm_from_exp(_skewed), triples)


@settings(max_examples=200, deadline=None)
@given(rows(bounded_below=True),
       st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40))
def test_piecewise_map_batch_is_bitwise_scalar(map_rows, points):
    fx = load_fixture_config({"space": "exp-usual", "map": map_rows})
    _assert_map_bitwise(fx.map, points)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40))
def test_stock_maps_batch_is_bitwise_scalar(points):
    for fixture in ("ex33", "ex37"):
        _assert_map_bitwise(get_fixture(fixture).map, points + [1 / 3, 0.5, 0.0])


@settings(max_examples=40, deadline=None)
@given(rows(bounded_below=True) | rows(bounded_below=False),
       st.lists(st.floats(min_value=-50.0, max_value=50.0), max_size=40))
def test_piecewise_map_batch_is_bitwise_scalar_at_every_breakpoint(map_rows, extra):
    # every breakpoint, the floats either side of it and both zeros, at
    # every length up to 70 (the vector loops' tails) and at 10^4
    fx = load_fixture_config({"space": "exp-usual", "map": map_rows})
    cuts = [row["interval"][0] for row in map_rows[1:]]
    points = cuts + [math.nextafter(c, side) for c in cuts for side in (-math.inf, math.inf)]
    points = [p for p in points + [0.0, -0.0] + extra if fx.map.domain.contains(p)]
    x = np.resize(np.array(points, dtype=np.float64), 10_000)
    scalar = _bits([fx.map(p) for p in x.tolist()])
    for n in [*range(1, 71), x.size]:
        assert np.array_equal(_bits(fx.map.many(x[:n])), scalar[:n])


def _parent_stratified(rng, lo, hi, n):
    # the expression _stratified evaluated before it worked in place
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6), st.integers(min_value=1, max_value=3000))
def test_stratified_matches_the_parent_expression(seed, lo, width, n):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    hi = lo + width
    assert np.array_equal(_bits(_stratified(ours, lo, hi, n)),
                          _bits(_parent_stratified(theirs, lo, hi, n)))
    # the same draws in the same order: the generators end in one state
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("source", ["ex33", "ex37", "leaves-ball"])
@pytest.mark.parametrize("condition", ["root", "implicit"])
def test_ball_certify_without_batch_kernels_matches_stock(source, condition):
    # The scalar route calls tolist() on the broadcast ball centres; with
    # gamma 1 (ex33, ex37) or the leaves-ball map the invariance rule has
    # witnesses, whose centre column is such a view.
    fx = load_fixture_config(LEAVES_BALL) if source == "leaves-ball" else get_fixture(source)
    plain_g = GMetric(g=fx.gmetric.g)
    plain_map = SelfMap(apply=fx.map.apply, domain=fx.map.domain)
    assert plain_g.batch is None and plain_map.batch is None
    for gamma in (fx.params.gamma, 1.0):
        params = fx.params.replace(gamma=gamma)
        stock = certify_region(fx.gmetric, fx.map, params, condition, "ball", 300, seed=3)
        plain = certify_region(plain_g, plain_map, params, condition, "ball", 300, seed=3)
        assert plain.to_dict() == stock.to_dict()
        assert dumps(plain.to_dict()) == dumps(stock.to_dict())
