import copy
import json
import math

import numpy as np
import pytest

from mgmetric import (
    PiecewiseRow,
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


@pytest.mark.parametrize("fx", [*registry(),
                                load_fixture_config({"space": "exp-usual"}),
                                load_fixture_config(_PL_CONFIG)], ids=lambda fx: fx.id)
def test_every_fixture_deep_copies(fx):
    clone = copy.deepcopy(fx)
    assert clone == fx
    assert (clone.id, clone.mult, clone.params) == (fx.id, fx.mult, fx.params)
    x, y, z = np.array([0.0, 2.0]), np.array([0.25, -0.0]), np.array([1 / 3, 0.5])
    assert clone.gmetric.many(x, y, z).tolist() == fx.gmetric.many(x, y, z).tolist()
    if fx.map is not None:
        assert [clone.map(x) for x in (0.0, 0.4, 3.0)] == [fx.map(x) for x in (0.0, 0.4, 3.0)]


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
    clone = load_fixture_config(_ex33_config()).map
    points = np.array([0.0, 0.2, 1 / 3, 1.0, 5.5])
    assert np.array_equal(clone.many(points), quarter_shift_map.many(points))


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
    with pytest.raises(KeyError):
        load_fixture_config({"map": []})
