import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mgmetric import (
    SLACK,
    ContractionParams,
    EmptyRegion,
    GMetric,
    Interval,
    SelfMap,
    certify_region,
    get_fixture,
    gm_from_exp,
    implicit_bound,
    implicit_contraction_holds,
    load_fixture_config,
    root_contraction_holds,
    seed_condition_holds,
    usual_metric,
)
from mgmetric.contraction import _implicit_majorant
from mgmetric.metric import LOG_FLOOR

G = gm_from_exp(usual_metric)
EX33 = get_fixture("ex33")
EX37 = get_fixture("ex37")
ETA = 5.0 / 8.0


def perimeter(x, y, z):
    return abs(x - y) + abs(y - z) + abs(z - x)


# ---------------------------------------------------------------------------
# pointwise root condition


def test_root_holds_on_scaling_branch():
    # F scales the perimeter by 1/4 below the breakpoint: 0.1 <= 0.25
    assert root_contraction_holds(G, EX33.map, ETA, 0.1, 0.2, 0.3)
    lhs = G(EX33.map(0.1), EX33.map(0.2), EX33.map(0.3))
    assert lhs == pytest.approx(0.1, abs=1e-12)
    assert ETA * G(0.1, 0.2, 0.3) == pytest.approx(0.25, abs=1e-12)


def test_root_fails_on_translation_branch():
    # F is a translation from the breakpoint up, so the perimeter is kept
    assert not root_contraction_holds(G, EX33.map, ETA, 1.0, 2.0, 1.0)
    assert G(EX33.map(1.0), EX33.map(2.0), EX33.map(1.0)) == 2.0
    assert ETA * G(1.0, 2.0, 1.0) == 1.25


def test_root_trivial_on_diagonal():
    assert root_contraction_holds(G, EX33.map, ETA, 0.7, 0.7, 0.7)


def test_root_validates_arguments():
    with pytest.raises(ValueError):
        root_contraction_holds(G, EX33.map, 1.0, 0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        root_contraction_holds(G, EX33.map, -0.5, 0.1, 0.2, 0.3)


# ---------------------------------------------------------------------------
# seed condition


def test_seed_condition_stock_parameters():
    assert seed_condition_holds(G, EX33.map, EX33.params)
    assert seed_condition_holds(G, EX37.map, EX37.params)


def test_seed_condition_reference_margins():
    # e^{2/3} ~ 1.9477 and e^{1/3} ~ 1.3956, both below 33/16 = 2.0625
    budget = (1.0 - ETA) * 5.5
    assert budget == 2.0625 == EX33.params.seed_budget == EX37.params.seed_budget
    assert G.value(1 / 3, EX33.map(1 / 3), EX33.map(1 / 3)) <= budget
    assert G.value(1 / 3, EX37.map(1 / 3), EX37.map(1 / 3)) <= budget


def test_seed_condition_fails_for_tight_budget():
    params = ContractionParams(eta=0.99, gamma=1.0, seed_point=1 / 3)
    assert not seed_condition_holds(G, EX33.map, params)


def test_seed_condition_false_when_budget_below_floor():
    # (1 - eta) * gamma < 1: nothing satisfies the condition, no error
    params = ContractionParams(eta=0.5, gamma=1.5, seed_point=1 / 3)
    assert not seed_condition_holds(G, EX33.map, params)


def test_seed_condition_false_when_budget_underflows():
    # (1 - eta) * gamma rounds to 0: False, not a math domain error
    params = ContractionParams(eta=ETA, gamma=5e-324, seed_point=1 / 3)
    assert params.seed_budget == 0.0
    assert not seed_condition_holds(G, EX33.map, params)


def test_seed_condition_false_outside_map_domain():
    # the seed 1 is the open right end of [0, 1): False, not an evaluation error
    F = load_fixture_config({"space": "exp-usual",
                             "map": [{"interval": [0, 1], "slope": 0.5, "offset": 0}]}).map
    params = ContractionParams(eta=ETA, gamma=10.0, seed_point=1.0)
    assert not F.domain.contains(params.seed_point)
    assert not seed_condition_holds(G, F, params)


@pytest.mark.parametrize("seed_log,holds", [(-0.5, False), (-SLACK / 2, True), (0.0, True)])
def test_seed_condition_false_below_the_floor(seed_log, holds):
    # every seed_log here is within the budget ln(2.0625); one below the
    # floor is no multiplicative distance, one within SLACK of it is
    g = GMetric(g=lambda x, y, z: seed_log, description="constant")
    assert seed_condition_holds(g, EX33.map, EX33.params) is holds


def test_seed_condition_monotone_in_gamma():
    rng = np.random.default_rng(17)
    for _ in range(200):
        g1, g2 = sorted(rng.uniform(0.1, 20.0, size=2))
        x0 = rng.uniform(0.0, 3.0)
        p1 = ContractionParams(eta=ETA, gamma=g1, seed_point=x0)
        p2 = ContractionParams(eta=ETA, gamma=g2, seed_point=x0)
        if seed_condition_holds(G, EX33.map, p1):
            assert seed_condition_holds(G, EX33.map, p2)


# ---------------------------------------------------------------------------
# implicit condition


def _implicit_terms_oracle(F, x, y, z):
    fx, fy = F(x), F(y)
    return (
        perimeter(x, y, z),
        perimeter(x, fx, fx),
        perimeter(y, fy, fy),
        perimeter(x, fy, fy),
        min(perimeter(z, fx, fx), perimeter(x, z, z)),
    )


def test_implicit_bound_term_by_term_small_triple():
    terms = _implicit_terms_oracle(EX37.map, 0.1, 0.2, 0.3)
    assert terms == pytest.approx((0.4, 0.1, 0.2, 0.0, 0.4), abs=1e-12)
    want = ETA * max(terms)
    assert implicit_bound(G, EX37.map, ETA, 0.1, 0.2, 0.3) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.25, abs=1e-12)


def test_implicit_bound_term_by_term_translation_triple():
    terms = _implicit_terms_oracle(EX37.map, 1.0, 2.0, 1.0)
    assert terms == pytest.approx((2.0, 0.5, 0.5, 1.5, 0.0), abs=1e-12)
    assert implicit_bound(G, EX37.map, ETA, 1.0, 2.0, 1.0) == 1.25


def test_implicit_bound_zero_at_fixed_diagonal():
    assert implicit_bound(G, EX37.map, ETA, 0.0, 0.0, 0.0) == 0.0


def test_implicit_holds_on_halving_branch():
    # F halves the perimeter there: 0.2 <= 0.25
    assert implicit_contraction_holds(G, EX37.map, ETA, 0.1, 0.2, 0.3)
    assert G(EX37.map(0.1), EX37.map(0.2), EX37.map(0.3)) == pytest.approx(0.2, abs=1e-12)


def test_implicit_fails_on_translation_branch():
    assert not implicit_contraction_holds(G, EX37.map, ETA, 1.0, 2.0, 1.0)
    assert G(EX37.map(1.0), EX37.map(2.0), EX37.map(1.0)) == 2.0


def test_implicit_trivial_on_fixed_diagonal():
    assert implicit_contraction_holds(G, EX37.map, ETA, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# cross-condition properties


@pytest.mark.parametrize("fixture", ["ex33", "ex37"])
def test_root_implies_implicit(fixture):
    fx = get_fixture(fixture)
    rng = np.random.default_rng(29)
    # half the triples from the contraction cell so both outcomes occur
    triples = np.concatenate([rng.random((500, 3)) * 0.33,
                              rng.random((500, 3)) * 5.5])
    seen_true = seen_false = 0
    for x, y, z in triples:
        if root_contraction_holds(G, fx.map, ETA, x, y, z):
            seen_true += 1
            assert implicit_contraction_holds(G, fx.map, ETA, x, y, z)
        else:
            seen_false += 1
    assert seen_true > 0 and seen_false > 0


# ---------------------------------------------------------------------------
# region certification


def test_certify_root_holds_below_breakpoint():
    report = certify_region(G, EX33.map, EX33.params, "root",
                            Interval(0.0, 0.3333), 10_000, seed=7)
    assert report.holds
    assert report.violations == 0
    assert report.seed_condition_ok
    assert report.samples >= 10_000


def test_certify_root_violated_above_breakpoint():
    report = certify_region(G, EX33.map, EX33.params, "root",
                            Interval(0.34, 5.5), 10_000, seed=7)
    assert report.verdict == "violated"
    assert report.witnesses
    for w in report.witnesses:
        x, y, z = w.points
        lhs = G(EX33.map(x), EX33.map(y), EX33.map(z))
        rhs = ETA * G(x, y, z)
        assert lhs > rhs + SLACK  # recomputed from scratch
        assert lhs == w.lhs_log and rhs == w.rhs_log


def test_certify_implicit_holds_on_halving_cell():
    report = certify_region(G, EX37.map, EX37.params, "implicit",
                            Interval(0.001, 0.499), 10_000, seed=7)
    assert report.holds
    assert report.violations == 0


def test_certify_implicit_violated_on_translation_cell():
    report = certify_region(G, EX37.map, EX37.params, "implicit",
                            Interval(0.5, 5.5), 10_000, seed=7)
    assert report.verdict == "violated"
    for w in report.witnesses:
        x, y, z = w.points
        lhs = G(EX37.map(x), EX37.map(y), EX37.map(z))
        assert lhs > implicit_bound(G, EX37.map, ETA, x, y, z) + SLACK


def test_certify_ball_mode_finds_translation_violation():
    # the literal ball reaches past the breakpoint, where root fails
    report = certify_region(G, EX33.map, EX33.params, "root", "ball", 2000, seed=7)
    assert report.verdict == "violated"
    assert report.region.startswith("ball(")


def test_certify_ball_empty_below_floor():
    params = EX33.params.replace(gamma=0.5)
    with pytest.raises(EmptyRegion):
        certify_region(G, EX33.map, params, "root", "ball", 100, seed=7)


def test_certify_ball_degenerate_single_point():
    # only the center 1/3 is in the ball, and F(1/3) = 0 is not
    params = EX33.params.replace(gamma=1.0)
    report = certify_region(G, EX33.map, params, "root", "ball", 200, seed=7)
    assert report.verdict == "violated"
    assert report.witnesses and {w.rule for w in report.witnesses} == {"invariance"}
    for w in report.witnesses:
        assert w.points == (1 / 3,)
        assert w.lhs_log == G(1 / 3, 0.0, 0.0) == 2 / 3 and w.rhs_log == 0.0
        assert not w.holds()
    assert not report.seed_condition_ok  # budget (1-eta)*1 < 1


def test_certify_ball_degenerate_single_point_fixed_by_the_map():
    constant = load_fixture_config({
        "space": "exp-usual", "map": [{"interval": [0.0, None], "slope": 0.0, "offset": 1 / 3}]})
    params = EX33.params.replace(gamma=1.0)
    report = certify_region(G, constant.map, params, "root", "ball", 200, seed=7)
    assert report.holds and report.violations == 0


# exp-usual, F(x) = x/2 + 4, eta 0.6, gamma e^10, x0 0: the root condition
# holds everywhere, but the ball is [0, 5] and F(5) = 6.5; the orbit runs
# to the fixed point 8, outside the ball.
LEAVES_BALL = {
    "space": "exp-usual",
    "map": [{"interval": [0.0, None], "slope": 0.5, "offset": 4.0}],
    "params": {"eta": 0.6, "gamma": 22026.465794806718, "x0": 0.0},
}


def test_certify_ball_the_map_leaves_is_violated():
    fx = load_fixture_config(LEAVES_BALL)
    report = certify_region(fx.gmetric, fx.map, fx.params, "root", "ball", 2000, seed=7)
    assert report.verdict == "violated" and report.seed_condition_ok
    assert {w.rule for w in report.witnesses} == {"invariance"}
    for w in report.witnesses:
        (rho,) = w.points
        image = fx.map(rho)
        assert w.lhs_log == G(0.0, image, image) > w.rhs_log == math.log(fx.params.gamma)
        assert not w.holds()
    # an interval sweep has no invariance rule
    interval = certify_region(fx.gmetric, fx.map, fx.params, "root", Interval(0.0, 5.0), 2000,
                              seed=7)
    assert interval.holds


@pytest.mark.parametrize("condition", ["root", "implicit"])
def test_certify_counts_nan_images_as_violations(condition):
    nan_map = SelfMap(apply=lambda x: math.nan, description="nan everywhere")
    report = certify_region(G, nan_map, EX33.params, condition,
                            Interval(0.0, 1.0), 200, seed=7)
    assert report.verdict == "violated"
    assert report.violations == report.samples
    assert all(not w.holds() for w in report.witnesses)


def _nan_off_diagonal(x, y, z):
    # perimeter, but NaN on triples (x, y, y) with x != y
    return math.nan if y == z != x else perimeter(x, y, z)


def test_implicit_nan_reference_term_is_a_violation():
    # g(x, Fx, Fx) is NaN for x > 0; a max that skips it would pass
    g = GMetric(g=_nan_off_diagonal, description="NaN off the diagonal")
    halving = SelfMap(apply=lambda x: x / 2.0, description="halving")
    assert not implicit_contraction_holds(g, halving, ETA, 0.1, 0.2, 0.3)
    report = certify_region(g, halving, EX37.params, "implicit",
                            Interval(0.001, 0.499), 200, seed=7)
    assert report.verdict == "violated"
    assert all(not w.holds() for w in report.witnesses)


@pytest.mark.parametrize("condition", ["root", "implicit"])
def test_certify_reports_metric_values_below_the_floor(condition):
    # the perimeter less 1/2: the condition holds on every sample, but the
    # metric is below its floor on every triple of perimeter under 1/2
    g = GMetric(g=lambda x, y, z: perimeter(x, y, z) - 0.5, description="shifted perimeter")
    halving = SelfMap(apply=lambda x: x / 2.0, description="halving")
    report = certify_region(g, halving, EX37.params, condition,
                            Interval(0.001, 0.499), 200, seed=7)
    assert report.verdict == "violated" and not report.holds
    assert report.violations > 0
    assert {w.rule for w in report.witnesses} == {"floor"}
    for w in report.witnesses:
        assert w.lhs_log == g(*w.points) < -SLACK
        assert not w.holds()


_PREDICATES = {"root": root_contraction_holds, "implicit": implicit_contraction_holds}


# the perimeter less 1/2 with a halving map: both predicates held at
# (0.1, 0.2, 0.3), where every value they use is below the floor
@example(shift=-0.5, slope=0.5, eta=0.625, xyz=(0.1, 0.2, 0.3), condition="root")
@example(shift=-0.5, slope=0.5, eta=0.625, xyz=(0.1, 0.2, 0.3), condition="implicit")
@settings(max_examples=300, deadline=None)
@given(shift=st.floats(-2.0, 0.5), slope=st.floats(0.0, 1.0),
       eta=st.floats(0.0, 1.0, exclude_max=True), xyz=st.tuples(*[st.floats(0.0, 2.0)] * 3),
       condition=st.sampled_from(sorted(_PREDICATES)))
def test_predicates_never_hold_on_a_value_below_the_floor(shift, slope, eta, xyz, condition):
    used = []

    def shifted(x, y, z):
        used.append(perimeter(x, y, z) + shift)
        return used[-1]

    g = GMetric(g=shifted, description="shifted perimeter")
    F = SelfMap(apply=lambda x: slope * x, description="scaling")
    holds = _PREDICATES[condition](g, F, eta, *xyz)
    if min(used) < LOG_FLOOR:
        assert not holds


def test_certify_is_deterministic():
    a = certify_region(G, EX33.map, EX33.params, "root", Interval(0.0, 0.3333), 500, seed=5)
    b = certify_region(G, EX33.map, EX33.params, "root", Interval(0.0, 0.3333), 500, seed=5)
    assert a == b


def test_certify_witness_cap_keeps_full_count():
    report = certify_region(G, EX33.map, EX33.params, "root",
                            Interval(0.34, 5.5), 1000, seed=7, max_witnesses=5)
    assert len(report.witnesses) == 5
    assert report.violations > 5


def test_certify_argument_validation():
    with pytest.raises(ValueError):
        certify_region(G, EX33.map, EX33.params, "weird", Interval(0, 1), 10, seed=1)
    with pytest.raises(ValueError):
        certify_region(G, EX33.map, EX33.params, "root", Interval(0, 1), 0, seed=1)
    with pytest.raises(ValueError):
        certify_region(G, EX33.map, EX33.params, "root", Interval(0.0, math.inf), 10, seed=1)


def test_certify_report_to_dict_shape():
    report = certify_region(G, EX33.map, EX33.params, "root", Interval(0.0, 0.3), 100, seed=1)
    doc = report.to_dict()
    assert doc["condition"] == "root"
    assert doc["verdict"] == "holds-on-sample"
    assert doc["holds"] is True
    assert doc["eta"] == 0.625 and doc["gamma"] == 5.5
    # the root index of the evaluated form, a constant of the schema
    assert list(doc)[-3:] == ["seed_point", "m", "holds"] and doc["m"] == 1


# ---------------------------------------------------------------------------
# params and self-map plumbing


def test_params_validation():
    with pytest.raises(ValueError):
        ContractionParams(eta=1.0, gamma=1.0, seed_point=0.0)
    with pytest.raises(ValueError):
        ContractionParams(eta=0.5, gamma=-1.0, seed_point=0.0)
    with pytest.raises(ValueError):
        ContractionParams(eta=0.5, gamma=1.0, seed_point=-0.5)


def test_params_ball_view():
    ball = EX33.params.ball
    assert ball.center == EX33.params.seed_point
    assert ball.radius == EX33.params.gamma


def test_selfmap_defaults_and_call():
    F = SelfMap(apply=lambda x: x / 2.0, description="halving")
    assert F(3.0) == 1.5
    assert F.domain.contains(1e9)


# ---------------------------------------------------------------------------
# non-finite sides and the scalar path


# The identity map with eta 1/2: g(0, 1.7e308, 0) overflows to inf, and
# inf <= 0.5 * inf must not count as a contraction.
IDENTITY = {
    "space": "exp-usual",
    "map": [{"interval": [0.0, None], "slope": 1.0, "offset": 0.0}],
    "params": {"eta": 0.5, "gamma": 5.5, "x0": 1.75e308},
}


def test_infinite_metric_values_never_hold():
    fx = load_fixture_config(IDENTITY)
    assert G(0.0, 1.7e308, 0.0) == math.inf
    for holds in (root_contraction_holds, implicit_contraction_holds):
        assert not holds(fx.gmetric, fx.map, 0.5, 0.0, 1.7e308, 0.0)
    report = certify_region(fx.gmetric, fx.map, fx.params, "root", Interval(0.0, 1.7e308), 1,
                            seed=8)
    assert report.verdict == "violated"
    assert all(not w.holds() for w in report.witnesses)


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from mgmetric import (get_fixture, implicit_bound, implicit_contraction_holds,
                      root_contraction_holds)
fx = get_fixture("ex37")
for t in ((0.1, 0.2, 0.3), (1.0, 2.0, 1.0)):
    print(repr(implicit_bound(fx.gmetric, fx.map, 0.625, *t)),
          implicit_contraction_holds(fx.gmetric, fx.map, 0.625, *t),
          root_contraction_holds(fx.gmetric, fx.map, 0.625, *t))
"""


def test_scalar_predicates_run_without_numpy():
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = "".join(f"{implicit_bound(G, EX37.map, ETA, *t)!r} "
                       f"{implicit_contraction_holds(G, EX37.map, ETA, *t)} "
                       f"{root_contraction_holds(G, EX37.map, ETA, *t)}\n"
                       for t in ((0.1, 0.2, 0.3), (1.0, 2.0, 1.0)))
    assert proc.stdout == expected


SPECIAL_FLOATS = (st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])
                  | st.floats())


# Stand-in labels for x, y, z, Fx, Fy: the triple and the five (a, b, b)
# pair triples the implicit majorant evaluates are distinct, so each
# looks up a term of its own.
_X, _Y, _Z, _FX, _FY = 0.0, 1.0, 2.0, 3.0, 4.0
_TRIPLES = ((_X, _Y, _Z), (_X, _FX, _FX), (_Y, _FY, _FY), (_X, _FY, _FY), (_X, _Z, _Z),
            (_Z, _FX, _FX))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[SPECIAL_FLOATS] * 6), min_size=1, max_size=40))
def test_implicit_majorant_scalar_is_the_batch_bitwise(rows):
    scalar = [_implicit_majorant(lambda *abc: t[_TRIPLES.index(abc)], _X, _Y, _Z, _FX, _FY)
              for t in rows]
    cols = [np.array(c, dtype=np.float64) for c in zip(*rows)]
    n = len(rows)
    batch = _implicit_majorant(lambda *abc: cols[_TRIPLES.index(tuple(v[0] for v in abc))],
                               *(np.full(n, v) for v in (_X, _Y, _Z, _FX, _FY)))
    assert all(type(v) is float for v in scalar)
    scalar = np.array(scalar, dtype=np.float64)
    nan = np.isnan(batch)
    assert np.array_equal(np.isnan(scalar), nan)
    assert np.array_equal(scalar[~nan].view(np.uint64), batch[~nan].view(np.uint64))
