"""Batch kernels against their scalar forms, bit for bit.

Every stock and config kernel has a batch form that sweeps and audits
use; the scalar form stays the reference.  Outputs are compared as
uint64 bit patterns, so a signed zero or a last-bit difference counts.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mgmetric import GMetric, SelfMap, get_fixture, load_fixture_config

POINTS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
TRIPLES = st.lists(st.tuples(POINTS, POINTS, POINTS), min_size=1, max_size=40)
COEFFS = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def rows(draw, bounded_below: bool):
    """Contiguous piecewise rows covering [0, inf) or the whole line."""
    cuts = sorted(set(draw(st.lists(st.floats(min_value=-20.0, max_value=20.0,
                                              allow_nan=False), max_size=5))))
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
