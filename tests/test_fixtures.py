import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mgmetric import (
    DifferenceMetric,
    MultMetric,
    PairSumMetric,
    PiecewiseMap,
    PiecewiseRow,
    SelfMap,
    check_mult_axioms,
    get_fixture,
    half_shift_map,
    Interval,
    load_fixture_config,
    piecewise_map,
    quarter_shift_map,
    registry,
    solve_fixed_point,
    usual_metric,
)


# ---------------------------------------------------------------------------
# stock maps


def test_quarter_shift_branch_values():
    assert quarter_shift_map(1 / 3) == 0.0  # breakpoint belongs to the right branch
    assert quarter_shift_map(0.0) == 0.0
    assert quarter_shift_map(1.0) == pytest.approx(2 / 3)
    assert quarter_shift_map(0.2) == 0.05


def test_half_shift_branch_values():
    assert half_shift_map(1 / 3) == 1 / 6
    assert half_shift_map(0.5) == 0.25
    assert half_shift_map(0.0) == 0.0
    assert half_shift_map(2.0) == 1.75


def test_usual_metric_values():
    assert usual_metric(1 / 3, 0.0) == 1 / 3
    assert usual_metric(1 / 3, 1 / 6) == pytest.approx(1 / 6)
    assert usual_metric(2.0, 5.0) == 3.0


@pytest.mark.parametrize("F", [quarter_shift_map, half_shift_map],
                         ids=["quarter_shift_map", "half_shift_map"])
def test_maps_are_total_into_the_carrier(F):
    rng = np.random.default_rng(13)
    for x in rng.uniform(0.0, 100.0, size=2000):
        y = F(float(x))
        assert math.isfinite(y) and y >= 0.0


@pytest.mark.parametrize("F", [quarter_shift_map, half_shift_map],
                         ids=["quarter_shift_map", "half_shift_map"])
def test_single_fixed_point_on_grid(F):
    grid = np.linspace(0.0, 6.0, 10_000)
    fixed = [x for x in grid if abs(F(float(x)) - x) < 1e-12]
    assert fixed == [0.0]


def test_branch_continuity_audit():
    # quarter-shift jumps at its breakpoint, half-shift does not
    b33 = 1 / 3
    assert abs(quarter_shift_map(b33 - 1e-12) - quarter_shift_map(b33)) > 0.08
    assert quarter_shift_map(b33 - 1e-12) == pytest.approx(1 / 12, abs=1e-9)
    b37 = 0.5
    assert half_shift_map(b37 - 1e-12) == pytest.approx(half_shift_map(b37), abs=1e-9)


# ---------------------------------------------------------------------------
# registry


def test_registry_ids_and_uniqueness():
    ids = [fx.id for fx in registry()]
    assert ids == ["exp-usual", "product-exp", "ex33", "ex37"]
    assert len(set(ids)) == len(ids)


def test_registry_stock_parameters():
    for fid in ("ex33", "ex37"):
        params = get_fixture(fid).params
        assert params.eta == 0.625
        assert params.gamma == 5.5
        assert params.seed_point == 1 / 3


def test_registry_lookup_miss():
    assert get_fixture("nope") is None


def test_registry_metadata_continuity_flags():
    # ex33 jumps down at its breakpoint 1/3, ex37 is continuous at 1/2
    ex33, ex37 = get_fixture("ex33").map, get_fixture("ex37").map
    assert ex33(math.nextafter(1 / 3, 0.0)) == pytest.approx(1 / 12, abs=1e-15)
    assert ex33(1 / 3) == 0.0
    assert ex37(math.nextafter(0.5, 0.0)) == pytest.approx(0.25, abs=1e-15)
    assert ex37(0.5) == 0.25


_PL_CONFIG = {
    "id": "pl",
    "space": {"kind": "product-pl",
              "rows": [{"interval": [None, 0.0], "slope": -1.0, "offset": 0.0},
                       {"interval": [0.0, None], "slope": 1.0, "offset": 0.0}]},
    "map": [{"interval": [0.0, None], "slope": 0.5, "offset": 0.0}],
    "params": {"eta": 0.625, "gamma": 5.5, "x0": 1.0},
}

# every config space kind, without and with a map
_KIND_CONFIGS = [{"id": f"{kind}-config{suffix}", "space": space, **extra}
                 for kind, space in [("exp-usual", "exp-usual"), ("product-exp", "product-exp"),
                                     ("product-pl", _PL_CONFIG["space"])]
                 for suffix, extra in [("", {}), ("-map", {"map": _PL_CONFIG["map"],
                                                           "params": _PL_CONFIG["params"]})]]


@pytest.mark.parametrize("fx", [*registry(),
                                load_fixture_config({"space": "exp-usual"}),
                                load_fixture_config(_PL_CONFIG),
                                *map(load_fixture_config, _KIND_CONFIGS)], ids=lambda fx: fx.id)
def test_every_fixture_deep_copies(fx):
    clone = copy.deepcopy(fx)
    assert clone == fx
    assert copy.copy(fx) == fx and pickle.loads(pickle.dumps(fx)) == fx
    assert (clone.id, clone.mult, clone.params) == (fx.id, fx.mult, fx.params)
    x, y, z = np.array([0.0, 2.0]), np.array([0.25, -0.0]), np.array([1 / 3, 0.5])
    assert clone.gmetric.many(x, y, z).tolist() == fx.gmetric.many(x, y, z).tolist()
    if fx.map is not None:
        assert [clone.map(x) for x in (0.0, 0.4, 3.0)] == [fx.map(x) for x in (0.0, 0.4, 3.0)]


@pytest.mark.parametrize("doc", [_PL_CONFIG, *_KIND_CONFIGS], ids=lambda doc: doc["id"])
def test_every_config_kind_loads_equal_twice(doc):
    first, second = load_fixture_config(doc), load_fixture_config(doc)
    assert first == second and hash(first) == hash(second)
    assert first.gmetric == second.gmetric and first.mult == second.mult


def test_product_pl_space_is_a_record_of_its_rows():
    assert issubclass(DifferenceMetric, MultMetric) and DifferenceMetric._fields == ("map",)
    assert "__call__" not in DifferenceMetric.__dict__
    fx = load_fixture_config(_PL_CONFIG)
    assert fx.mult.map.rows == (PiecewiseRow(-math.inf, 0.0, -1.0, 0.0),
                                PiecewiseRow(0.0, math.inf, 1.0, 0.0))
    assert fx.mult == DifferenceMetric(piecewise_map(list(fx.mult.map.rows)))
    assert fx.mult.description == "piecewise log-distance of x - y"
    assert fx.gmetric == PairSumMetric(
        fx.mult, "pairwise product of piecewise log-distance of x - y")
    assert fx.gmetric.d is fx.mult
    assert (fx.mult(3.0, 1.0), fx.mult(1.0, 3.0)) == (2.0, 2.0)


def test_spaces_only_fixtures_have_no_map():
    assert get_fixture("exp-usual").map is None
    assert get_fixture("product-exp").mult is not None


# ---------------------------------------------------------------------------
# piecewise machinery and configs


def test_piecewise_map_breakpoint_ownership():
    F = piecewise_map([
        PiecewiseRow(lo=0.0, hi=1.0, slope=0.5, offset=0.0),
        PiecewiseRow(lo=1.0, hi=math.inf, slope=1.0, offset=-0.5),
    ])
    assert F(0.999) == pytest.approx(0.4995)
    assert F(1.0) == 0.5  # boundary point uses the right cell
    assert F.domain == Interval(0.0, math.inf)


def test_piecewise_map_domain_stops_below_finite_right_end():
    F = piecewise_map([PiecewiseRow(lo=0.0, hi=1.0, slope=0.5, offset=0.0)])
    assert F.domain == Interval(0.0, math.nextafter(1.0, -math.inf))
    assert not F.domain.contains(1.0)
    assert F(F.domain.hi) == 0.5 * F.domain.hi
    assert F.many(np.array([F.domain.hi]))[0] == 0.5 * F.domain.hi


def test_stock_maps_are_piecewise_rows():
    # the stock maps and their config clones are the same rows
    assert get_fixture("ex33").map is quarter_shift_map
    assert get_fixture("ex37").map is half_shift_map
    assert quarter_shift_map.rows == (PiecewiseRow(0.0, 1 / 3, 0.25, 0.0),
                                      PiecewiseRow(1 / 3, math.inf, 1.0, -1 / 3))
    clone = load_fixture_config(_ex33_config()).map
    assert clone == quarter_shift_map and clone.rows == quarter_shift_map.rows
    assert hash(clone) == hash(quarter_shift_map)
    points = np.array([0.0, 0.2, 1 / 3, 1.0, 5.5])
    assert np.array_equal(clone.many(points), quarter_shift_map.many(points))


def test_piecewise_map_is_a_record_of_its_rows():
    assert issubclass(PiecewiseMap, SelfMap) and PiecewiseMap._fields == ("rows",)
    # SelfMap.__call__ stays the one entry point of every map
    assert "__call__" not in PiecewiseMap.__dict__
    with pytest.raises(ValueError, match="contiguous"):
        PiecewiseMap(tuple(reversed(half_shift_map.rows)))


@st.composite
def shuffled_rows(draw):
    """1 to 16 contiguous rows, each end finite or infinite, in any order."""
    edges = sorted(set(draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                     min_size=1, max_size=15))))
    edges = [-math.inf] * draw(st.booleans()) + edges + [math.inf] * draw(st.booleans())
    assume(len(edges) >= 2)
    coeffs = st.floats(min_value=-4.0, max_value=4.0)
    rows = [PiecewiseRow(lo, hi, draw(coeffs), draw(coeffs)) for lo, hi in zip(edges, edges[1:])]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(shuffled_rows(), st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=40))
def test_piecewise_map_is_its_sorted_rows(rows, extra):
    ordered = sorted(rows, key=lambda r: r.lo)
    F = piecewise_map(rows)
    assert F == piecewise_map(ordered) and F.rows == tuple(ordered)
    clone = pickle.loads(pickle.dumps(F))
    assert clone == F and hash(clone) == hash(F)
    # the domain runs from the first lo to the last hi, less a finite hi
    lo, hi = ordered[0].lo, ordered[-1].hi
    assert F.domain.lo == lo
    if hi == math.inf:
        assert F.domain.hi == hi
    else:
        assert F.domain.hi < hi and math.nextafter(F.domain.hi, hi) == hi
    points = [p for p in [r.lo for r in ordered] + extra if F.domain.contains(p)]
    x = np.array(points, dtype=np.float64)
    assert F.many(x).view(np.uint64).tolist() == \
        np.array([F(p) for p in points], dtype=np.float64).view(np.uint64).tolist()


def test_piecewise_map_rejects_gaps():
    with pytest.raises(ValueError):
        piecewise_map([
            PiecewiseRow(lo=0.0, hi=1.0, slope=1.0, offset=0.0),
            PiecewiseRow(lo=2.0, hi=3.0, slope=1.0, offset=0.0),
        ])


@pytest.mark.parametrize("slope,offset", [(math.nan, 0.0), (0.5, math.inf),
                                           (-math.inf, 0.0)])
def test_piecewise_row_rejects_non_finite_coefficients(slope, offset):
    with pytest.raises(ValueError):
        PiecewiseRow(lo=0.0, hi=1.0, slope=slope, offset=offset)


def test_piecewise_map_rejects_empty_rows():
    with pytest.raises(ValueError):
        piecewise_map([])


def _ex33_config():
    third = 1 / 3
    return {
        "id": "ex33-clone",
        "space": "exp-usual",
        "map": [
            {"interval": [0.0, third], "slope": 0.25, "offset": 0.0},
            {"interval": [third, None], "slope": 1.0, "offset": -third},
        ],
        "params": {"eta": 0.625, "gamma": 5.5, "x0": third},
    }


def test_config_clone_matches_stock_fixture(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_ex33_config()))
    fx = load_fixture_config(path)
    assert fx.id == "ex33-clone"
    stock = get_fixture("ex33")
    for x in (0.0, 0.2, 1 / 3, 1.0, 5.5):
        assert fx.map(x) == pytest.approx(stock.map(x), abs=1e-15)
    r = solve_fixed_point(fx.gmetric, fx.map, fx.params)
    assert r.point == 0.0 and r.iterations_used == 1


def test_config_accepts_parsed_dict():
    fx = load_fixture_config(_ex33_config())
    assert fx.params.gamma == 5.5


def test_config_product_pl_space_can_break_symmetry():
    # signed log-distance x - y: fails the floor and symmetry axioms
    fx = load_fixture_config({
        "space": {"kind": "product-pl",
                  "rows": [{"interval": [None, None], "slope": 1.0, "offset": 0.0}]},
    })
    report = check_mult_axioms(fx.mult, Interval(0.0, 10.0), 500, seed=7)
    assert report.axioms["symmetry"] == "fail"
    assert report.axioms["floor"] == "fail"


def test_config_rejects_unknown_space():
    with pytest.raises(ValueError):
        load_fixture_config({"space": "hyperbolic"})


def test_config_requires_space_key():
    with pytest.raises(ValueError, match='config has no "space"'):
        load_fixture_config({"map": []})


_ROW = {"interval": [0.0, None], "slope": 0.5, "offset": 0.0}


def _float_error(value) -> str:
    # the wording of float()'s TypeError differs between Python versions
    try:
        float(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("doc,message", [
    ([{"space": "exp-usual"}], "config must be a JSON object"),
    ({"space": "exp-usual", "map": _ROW}, "map rows must be a JSON array"),
    ({"space": "exp-usual", "map": [[0.0, None, 0.5, 0.0]]}, "map row 1 must be a JSON object"),
    ({"space": "exp-usual", "map": [{"interval": [0.0, None], "slope": 0.5}]},
     'map row 1 has no "offset"'),
    ({"space": "exp-usual", "map": [{**_ROW, "interval": [0.0, 1.0]}, {"slope": 0.5}]},
     'map row 2 has no "interval"'),
    ({"space": "exp-usual", "map": [{**_ROW, "interval": [0.0]}]},
     'map row 1 "interval" must be a [lo, hi] pair'),
    ({"space": {"kind": "product-pl"}}, 'space has no "rows"'),
    ({"space": {"kind": "product-pl", "rows": {}}}, "space rows must be a JSON array"),
    ({"space": {"kind": "product-pl", "rows": [{"interval": [None, None], "offset": 0.0}]}},
     'space row 1 has no "slope"'),
    ({"space": "exp-usual", "params": [0.5, 5.5, 1.0]}, "params must be a JSON object"),
    ({"space": "exp-usual", "params": {"eta": 0.5, "gamma": 5.5}}, 'params has no "x0"'),
    ({"space": "exp-usual", "map": [{**_ROW, "slope": "half"}]},
     'map row 1 "slope" must be a number: could not convert string to float: \'half\''),
    ({"space": {"kind": "product-pl", "rows": [{**_ROW, "interval": [None, [0.0]]}]}},
     'space row 1 "interval" hi must be a number: ' + _float_error([0.0])),
    ({"space": "exp-usual", "params": {"eta": 0.5, "gamma": 10**400, "x0": 1.0}},
     'params "gamma" must be a number: int too large to convert to float'),
], ids=["doc", "map", "map-row", "offset", "row-2", "interval", "space-rows", "space-rows-type",
        "space-slope", "params", "x0", "string", "list", "huge-int"])
def test_config_errors_name_the_key_and_its_place(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_fixture_config(path)
    assert str(info.value) == message


def test_same_config_loaded_twice_is_equal(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_ex33_config()))
    first, second = load_fixture_config(path), load_fixture_config(path)
    assert first == second and hash(first) == hash(second)
    assert first == load_fixture_config(_ex33_config())
