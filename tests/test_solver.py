import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mgmetric import (
    SLACK,
    BelowFloor,
    ClosedBall,
    ContractionParams,
    DomainExit,
    FixedPointResult,
    GMetric,
    InexactFixedPoint,
    Interval,
    MaxIterationsExceeded,
    NonFiniteStep,
    PairSumMetric,
    PerimeterMetric,
    PiecewiseMap,
    PiecewiseRow,
    SeedConditionViolated,
    SelfMap,
    SolveError,
    a_priori_iterations,
    ball_contains,
    get_fixture,
    gm_from_exp,
    load_fixture_config,
    mu_class,
    mu_of,
    seed_condition_holds,
    solve_fixed_point,
    usual_metric,
)
from mgmetric._jsonutil import dumps
from mgmetric.fixtures import exact_step
from mgmetric.solver import _orbit
from test_golden import _load_workloads

G = gm_from_exp(usual_metric)
EX33 = get_fixture("ex33")
EX37 = get_fixture("ex37")
TOL = 1e-6


def brute_force_bound(log_g01, rate, epsilon, cap=10_000):
    # independent oracle: scan for the first index meeting the tail bound
    tol = math.log1p(epsilon)
    for j in range(cap):
        if (rate ** j) * log_g01 / (1.0 - rate) <= tol:
            return j
    raise AssertionError("no index within cap")


# ---------------------------------------------------------------------------
# traces


def test_trace_one_step_orbit():
    trace = solve_fixed_point(G, EX33.map, EX33.params, epsilon=TOL).trace
    assert trace.iterates == (1 / 3, 0.0)
    assert trace.step_logs == (pytest.approx(2 / 3, abs=1e-15),)
    assert trace.monotone
    assert all(trace.in_ball)


def test_trace_halving_orbit():
    trace = solve_fixed_point(G, EX37.map, EX37.params, epsilon=TOL).trace
    assert trace.iterates[:3] == (1 / 3, 1 / 6, 1 / 12)


def test_trace_length_consistency():
    params = EX37.params.replace(seed_point=1.0, gamma=10.0)
    trace = solve_fixed_point(G, EX37.map, params, epsilon=TOL).trace
    assert len(trace.step_logs) == len(trace.iterates) - 1
    assert len(trace.in_ball) == len(trace.iterates)


def test_trace_domain_exit():
    F = SelfMap(apply=lambda x: x - 1.0, domain=Interval(0.0, math.inf))
    params = ContractionParams(eta=0.5, gamma=100.0, seed_point=0.5)
    with pytest.raises(DomainExit) as err:
        solve_fixed_point(G, F, params, epsilon=TOL)
    assert err.value.index == 1
    assert err.value.point == -0.5


def test_trace_overflow_is_domain_exit():
    # x -> 4x overflows to inf, which the unbounded domain [0, inf) bounds
    # but does not contain
    F = load_fixture_config({"space": "exp-usual",
                             "map": [{"interval": [0, None], "slope": 4, "offset": 0}]}).map
    params = ContractionParams(eta=0.5, gamma=1e300, seed_point=1.0)
    with pytest.raises(DomainExit) as err:
        solve_fixed_point(G, F, params, epsilon=TOL, max_iter=600)
    assert err.value.index == 512
    assert err.value.point == math.inf


def test_ball_flags_are_bools_for_a_metric_of_numpy_scalars():
    # the flags come from the scalar kernel; a g returning numpy floats
    # still gives bool flags, which a report can render.  A ball of radius
    # 60 about 3.0 admits the seed and loses the orbit's tail.
    g = GMetric(g=lambda x, y, z: np.float64(G(x, y, z)))
    params = EX37.params.replace(seed_point=3.0, gamma=60.0)
    trace = solve_fixed_point(g, EX37.map, params, epsilon=TOL).trace
    assert trace.in_ball == solve_fixed_point(G, EX37.map, params, epsilon=TOL).trace.in_ball
    assert {type(flag) for flag in trace.in_ball} == {bool}
    assert False in trace.in_ball
    assert '"in_ball": [' in dumps(trace.to_dict())


def test_trace_csv_round_trip():
    trace = solve_fixed_point(G, EX37.map, EX37.params, epsilon=TOL).trace
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "index,value,step_log,in_ball"
    assert len(lines) == 1 + len(trace.iterates)
    first = lines[1].split(",")
    assert float(first[1]) == 1 / 3
    assert lines[-1].split(",")[2] == ""  # final row carries no step


# ---------------------------------------------------------------------------
# bounds


def test_a_priori_iterations_reference_case():
    assert a_priori_iterations(1 / 3, 5 / 8, 1e-6) == 30
    assert brute_force_bound(1 / 3, 5 / 8, 1e-6) == 30


def test_a_priori_iterations_edge_cases():
    assert a_priori_iterations(0.0, 0.5, 1e-6) == 0
    assert a_priori_iterations(0.5, 0.0, 1e-6) == 1  # one step clears the tail
    assert a_priori_iterations(1e-9, 0.5, 1.0) == 0  # seed already within tolerance
    with pytest.raises(ValueError, match="rate"):
        a_priori_iterations(0.5, 1.0, 1e-6)
    with pytest.raises(ValueError, match="rate"):
        a_priori_iterations(0.5, 1.7, 1e-6)
    with pytest.raises(ValueError):
        a_priori_iterations(0.5, 0.5, 0.0)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=0.0, max_value=0.999),
       st.floats(min_value=-12.0, max_value=1.0))
def test_a_priori_iterations_is_the_least_index_meeting_the_tail(log_g01, rate, log10_epsilon):
    epsilon = 10.0 ** log10_epsilon
    tol = math.log1p(epsilon)
    j = a_priori_iterations(log_g01, rate, epsilon)

    def tail(i):
        return rate ** i * log_g01 / (1.0 - rate)

    assert tail(j) <= tol
    assert j == 0 or tail(j - 1) > tol


def test_a_priori_iterations_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(300):
        log_g01 = float(rng.uniform(0.0, 5.0))
        rate = float(rng.uniform(0.0, 0.95))
        epsilon = float(10.0 ** rng.uniform(-9, 0))
        assert a_priori_iterations(log_g01, rate, epsilon) == \
            brute_force_bound(log_g01, rate, epsilon)


@pytest.mark.parametrize("log_g01", [math.nan, math.inf])
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_a_priori_iterations_rejects_a_non_finite_distance(log_g01, rate):
    # no geometric tail of an infinite or NaN first step certifies a bound
    with pytest.raises(ValueError, match="log distance"):
        a_priori_iterations(log_g01, rate, 1e-6)


def test_a_priori_iterations_takes_the_logs_apart():
    # tol / tail0 underflows to 0 here, and its log has no value
    assert a_priori_iterations(2.0, 0.5, 5e-324) == 1075
    assert a_priori_iterations(2.0, 0.625, 5e-324) == 1586


def test_a_priori_iterations_rejects_a_tail_past_the_largest_float():
    with pytest.raises(ValueError, match="overflows"):
        a_priori_iterations(1e300, 1 - 2 ** -53, 1e-6)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.7976931348623157e308),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True) | st.sampled_from([5e-324, 0.5]),
       st.floats(min_value=5e-324, max_value=1e300) | st.sampled_from([5e-324, 1e-320, 1e-300]))
def test_a_priori_iterations_is_the_least_index_for_every_finite_tail(log_g01, rate, epsilon):
    tail0 = log_g01 / (1.0 - rate)
    if tail0 == math.inf:
        return
    tol = math.log1p(epsilon)
    j = a_priori_iterations(log_g01, rate, epsilon)
    assert rate ** j * tail0 <= tol
    assert j == 0 or rate ** (j - 1) * tail0 > tol


def test_mu_values_and_classes():
    assert mu_of(0.25) == pytest.approx(1 / 3)
    assert mu_of(0.0) == 0.0
    assert mu_of(5 / 8) == pytest.approx(5 / 3)
    assert mu_class(mu_of(0.25)) == "below_half"
    assert mu_class(mu_of(0.4)) == "below_one"
    assert mu_class(mu_of(5 / 8)) == "at_least_one"


# ---------------------------------------------------------------------------
# solve: stock fixtures


def test_solve_quarter_shift_one_step():
    r = solve_fixed_point(G, EX33.map, EX33.params, epsilon=TOL)
    assert r.point == 0.0
    assert r.iterations_used == 1
    assert r.residual_log == 0.0
    assert r.rate == 0.625 and r.rate_certified
    assert r.certified_bound == a_priori_iterations(G(1 / 3, 0.0, 0.0), 0.625, TOL)
    assert not r.ball_exited
    assert r.order_monotone


def test_solve_halving_orbit_within_certified_bound():
    r = solve_fixed_point(G, EX37.map, EX37.params, epsilon=TOL)
    assert r.residual_log <= math.log1p(TOL)
    assert r.certified_bound == 30
    assert r.iterations_used <= r.certified_bound
    # halving orbit stops at the first iterate at or below tolerance
    expected = next(j for j in range(100) if (1 / 3) * 0.5 ** j <= math.log1p(TOL))
    assert r.iterations_used == expected
    assert r.point == pytest.approx((1 / 3) * 0.5 ** expected)


def test_solve_implicit_uncertified_rate_still_converges():
    r = solve_fixed_point(G, EX37.map, EX37.params, mode="implicit",
                          epsilon=TOL)
    assert r.mu == pytest.approx(5 / 3)
    assert r.mu_class == "at_least_one"
    assert not r.rate_certified
    assert r.certified_bound is None
    assert r.residual_log <= math.log1p(TOL)


def test_solve_implicit_certified_when_rate_below_one():
    # eta = 0.34 gives mu ~ 0.515, certifiable and above the halving factor
    params = EX37.params.replace(eta=0.34)
    r = solve_fixed_point(G, EX37.map, params, mode="implicit",
                          epsilon=TOL)
    assert r.mu_class == "below_one"
    assert r.rate_certified
    assert r.iterations_used <= r.certified_bound


def test_solve_implicit_below_half_class():
    # quarter-shift orbit contracts steps by 1/4 <= mu = 1/3
    params = EX33.params.replace(eta=0.25, seed_point=0.25)
    r = solve_fixed_point(G, EX33.map, params, mode="implicit",
                          epsilon=TOL)
    assert r.mu == pytest.approx(1 / 3)
    assert r.mu_class == "below_half"
    assert r.iterations_used <= r.certified_bound


def test_solve_seed_condition_violated():
    params = ContractionParams(eta=0.99, gamma=1.0, seed_point=1 / 3)
    with pytest.raises(SeedConditionViolated):
        solve_fixed_point(G, EX33.map, params, epsilon=TOL)


@pytest.mark.parametrize("max_iter", [0, 1, 3])
def test_solve_max_iterations_exceeded(max_iter):
    with pytest.raises(MaxIterationsExceeded) as err:
        solve_fixed_point(G, EX37.map, EX37.params, epsilon=TOL,
                          max_iter=max_iter)
    # the halving orbit from 1/3: x_j = (1/3) / 2**j, residual 2|x_j - x_j/2| = x_j
    x = (1 / 3) * 0.5 ** max_iter
    assert err.value.iterations == max_iter
    assert err.value.last_point == x
    assert err.value.last_residual_log == x
    assert err.value.last_residual_log > math.log1p(TOL)


def test_solve_domain_exit():
    F = SelfMap(apply=lambda x: x - 1.0, domain=Interval(0.0, math.inf))
    params = ContractionParams(eta=0.1, gamma=1e6, seed_point=0.5)
    with pytest.raises(DomainExit):
        solve_fixed_point(G, F, params, epsilon=TOL)


def test_solve_idempotent_on_fixed_seed():
    params = EX33.params.replace(seed_point=0.0)
    r = solve_fixed_point(G, EX33.map, params, epsilon=TOL)
    assert r.point == 0.0
    assert r.iterations_used == 0
    assert r.trace.iterates == (0.0,)


def test_solve_validates_arguments():
    with pytest.raises(ValueError):
        solve_fixed_point(G, EX33.map, EX33.params, mode="secant")
    for epsilon in (0.0, math.nan):
        with pytest.raises(ValueError):
            solve_fixed_point(G, EX33.map, EX33.params, epsilon=epsilon)
        with pytest.raises(ValueError):
            a_priori_iterations(1.0, 0.5, epsilon)
    with pytest.raises(ValueError):
        solve_fixed_point(G, EX33.map, EX33.params, max_iter=-1)


@pytest.mark.parametrize("epsilon", [math.inf, -math.inf])
def test_non_finite_epsilon_is_rejected(epsilon):
    # an infinite tolerance would "converge" at once and certify nothing
    with pytest.raises(ValueError, match="epsilon"):
        solve_fixed_point(G, EX33.map, EX33.params, epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        a_priori_iterations(1.0, 0.5, epsilon)


def test_non_finite_step_ends_the_orbit():
    # 3 -> 1.5 -> 1e308: the second step has log-distance inf between two
    # iterates of the domain; the orbit would go on to 0.5 and converge
    F = load_fixture_config({"space": "exp-usual", "map": [
        {"interval": [0, 1], "slope": 0.5, "offset": 0},
        {"interval": [1, 2], "slope": 0, "offset": 1e308},
        {"interval": [2, 10], "slope": 0, "offset": 1.5},
        {"interval": [10, None], "slope": 0, "offset": 0.5}]}).map
    params = ContractionParams(eta=0.5, gamma=1e3, seed_point=3.0)
    with pytest.raises(NonFiniteStep) as err:
        solve_fixed_point(G, F, params, epsilon=TOL)
    assert (err.value.index, err.value.point, err.value.step_log) == (1, 1.5, math.inf)


def test_below_floor_step_ends_the_orbit():
    # ln G = -1.5 on every triple off the diagonal: the first step is below
    # the floor, and its residual below any tolerance
    g = GMetric(g=lambda x, y, z: 0.0 if x == y == z else -1.5, description="negative")
    F = SelfMap(apply=lambda x: x + 5.0)
    params = ContractionParams(eta=0.5, gamma=10.0, seed_point=3.0)
    with pytest.raises(BelowFloor) as err:
        solve_fixed_point(g, F, params, epsilon=TOL)
    assert (err.value.index, err.value.point, err.value.step_log) == (0, 3.0, -1.5)


@pytest.mark.parametrize("eta,gamma", [(0.6, 10.0), (0.99, 1.0)])
def test_seed_step_below_the_floor_is_reported_before_the_rate(eta, gamma):
    # implicit mode with eta >= 0.5 has rate mu >= 1, and the budget of the
    # second case is below the floor: BelowFloor comes first either way
    g = GMetric(g=lambda x, y, z: 0.0 if x == y == z else -1.5, description="negative")
    F = SelfMap(apply=lambda x: x + 5.0)
    params = ContractionParams(eta=eta, gamma=gamma, seed_point=3.0)
    with pytest.raises(BelowFloor) as err:
        solve_fixed_point(g, F, params, mode="implicit", epsilon=TOL)
    assert (err.value.index, err.value.point, err.value.step_log) == (0, 3.0, -1.5)


def test_step_on_the_floor_within_slack_is_accepted():
    # -SLACK itself is on the floor: a solve converges at once with the
    # a-priori bound of a first step of 0
    g = GMetric(g=lambda x, y, z: 0.0 if x == y == z else -1e-12, description="slack")
    F = SelfMap(apply=lambda x: x + 5.0)
    params = ContractionParams(eta=0.5, gamma=10.0, seed_point=3.0)
    r = solve_fixed_point(g, F, params, epsilon=TOL)
    assert (r.point, r.residual_log, r.iterations_used, r.certified_bound) == (3.0, -1e-12, 0, 0)


def test_every_solve_failure_is_a_solve_error():
    for error in (DomainExit, NonFiniteStep, BelowFloor, SeedConditionViolated,
                  MaxIterationsExceeded, InexactFixedPoint):
        assert issubclass(error, SolveError)


def test_mu_class_is_derived_from_mu():
    r = solve_fixed_point(G, EX37.map, EX37.params, mode="implicit", epsilon=TOL)
    assert "mu_class" not in FixedPointResult._fields
    assert r.replace(mu=0.25).mu_class == "below_half"
    assert r.replace(mu=None).mu_class is None
    keys = list(r.to_dict())
    assert keys[keys.index("mu") + 1] == "mu_class"


# ---------------------------------------------------------------------------
# solve: the exact last step


def _exact_residual(F, x):
    # the perimeter's G(x, Fx, Fx) = 2|x - Fx| with Fx on x's row, in rationals
    row = next(r for r in F.rows if r.lo <= x < r.hi)
    x = Fraction(x)
    return 2 * abs(x - (Fraction(row.slope) * x + Fraction(row.offset)))


def test_a_step_the_float_map_absorbs_is_no_fixed_point():
    # x - 1/3 rounds back to 1e17, so the float residual is 0; the map
    # x - 1/3 has no fixed point, and the exact residual is 2/3
    params = EX33.params.replace(seed_point=1e17)
    assert EX33.map(1e17) == 1e17
    with pytest.raises(InexactFixedPoint) as info:
        solve_fixed_point(G, EX33.map, params, epsilon=TOL)
    assert (info.value.index, info.value.point) == (0, 1e17)
    assert info.value.exact_residual == float(_exact_residual(EX33.map, 1e17))
    assert _exact_residual(EX33.map, 1e17) == 2 * Fraction(1 / 3)


def test_other_metrics_keep_the_float_certificate():
    params = EX33.params.replace(seed_point=1e17)
    r = solve_fixed_point(GMetric(g=G.g), EX33.map, params, epsilon=TOL)
    assert (r.point, r.residual_log, r.iterations_used) == (1e17, 0.0, 0)


@st.composite
def translating_configs(draw):
    """A PL map on [0, inf) whose rows mix contractions and translations
    by small offsets, and a seed up to 1e18, where such a translation
    rounds away in floats."""
    cuts = sorted(set(draw(st.lists(st.floats(min_value=1e-3, max_value=1e18), max_size=3))))
    edges = [0.0] + cuts + [None]
    rows = [{"interval": [lo, hi],
             "slope": draw(st.sampled_from([1.0, 0.5]) | st.floats(min_value=0.0, max_value=1.0)),
             "offset": draw(st.floats(min_value=-1.0, max_value=1.0))}
            for lo, hi in zip(edges, edges[1:])]
    space = draw(st.sampled_from(["exp-usual", "product-exp"]))
    x0 = draw(st.sampled_from([1e17, 1e18]) | st.floats(min_value=0.0, max_value=1e18))
    return {"space": space, "map": rows}, x0


@settings(max_examples=200, deadline=None)
@given(translating_configs(), st.floats(min_value=-12.0, max_value=0.0))
def test_a_returned_perimeter_solve_is_exact_within_tolerance(config, log10_epsilon):
    doc, x0 = config
    fx = load_fixture_config(doc)
    g, F = fx.gmetric, fx.map
    epsilon = 10.0 ** log10_epsilon
    # a radius that admits the seed whenever its first step is finite
    params = ContractionParams(eta=0.5, gamma=4.0 * math.exp(min(g(x0, F(x0), F(x0)), 700.0)),
                               seed_point=x0)
    try:
        r = solve_fixed_point(g, F, params, epsilon=epsilon, max_iter=200)
    except SolveError:
        return
    assert _exact_residual(F, r.point) <= Fraction(math.log1p(epsilon))


def _exact_pl_residual(M, F, x):
    # a product-pl space's G(x, Fx, Fx) in rationals: its map M of the
    # signed difference at the canonical pairs, 2 M(-|x - Fx|) + M(0),
    # with Fx on x's row
    def exact(rows, t):
        row = next(r for r in rows if r.lo <= t < r.hi)
        return Fraction(row.slope) * t + Fraction(row.offset)

    x = Fraction(x)
    return 2 * exact(M.rows, -abs(x - exact(F.rows, x))) + exact(M.rows, Fraction(0))


def test_an_exact_residual_past_the_largest_float_is_reported_as_inf():
    # 1e27 - 1e10 rounds back to 1e27, and the space's slope 1e300 makes
    # the exact residual 2e310: the seed's step, so the seed is rejected
    fx = load_fixture_config({
        "space": {"kind": "product-pl", "rows": [
            {"interval": [None, 0], "slope": -1e300, "offset": 0},
            {"interval": [0, None], "slope": 1, "offset": 0}]},
        "map": [{"interval": [0, None], "slope": 1, "offset": -1e10}],
        "params": {"eta": 0.625, "gamma": 5.5, "x0": 1e27}})
    with pytest.raises(SeedConditionViolated, match="log-distance inf to its image"):
        solve_fixed_point(fx.gmetric, fx.map, fx.params, epsilon=TOL)


@st.composite
def product_pl_spaces(draw):
    """product-pl rows over the whole line, cut left of 0 and at 0, with
    slopes of either sign and offsets of a few ulps' size at most, so that
    the distance of a step the float map absorbs is small but not 0."""
    cuts = sorted(set(draw(st.lists(st.floats(min_value=-2.0, max_value=-1e-3), max_size=2))))
    edges = [None] + cuts + [0.0, None]
    return {"kind": "product-pl", "rows": [
        {"interval": [lo, hi],
         "slope": draw(st.sampled_from([-1.0, -0.5, 1.0]) | st.floats(min_value=-4.0,
                                                                      max_value=4.0)),
         "offset": draw(st.sampled_from([0.0, -0.0]) | st.floats(min_value=-1e-12,
                                                                 max_value=1e-12))}
        for lo, hi in zip(edges, edges[1:])]}


@settings(max_examples=200, deadline=None)
@given(translating_configs(), product_pl_spaces(), st.floats(min_value=-12.0, max_value=0.0))
def test_a_returned_product_pl_solve_is_exact_within_tolerance(config, space, log10_epsilon):
    doc, x0 = config
    fx = load_fixture_config({**doc, "space": space})
    g, F = fx.gmetric, fx.map
    epsilon = 10.0 ** log10_epsilon
    # a radius of at least 4 that admits the seed whenever its first step is finite
    step = min(max(g(x0, F(x0), F(x0)), 0.0), 700.0)
    params = ContractionParams(eta=0.5, gamma=4.0 * math.exp(step), seed_point=x0)
    try:
        r = solve_fixed_point(g, F, params, epsilon=epsilon, max_iter=200)
    except SolveError:
        return
    assert _exact_pl_residual(fx.mult.map, F, r.point) <= Fraction(math.log1p(epsilon))


@st.composite
def exact_view_cases(draw):
    """A perimeter or product-pl space, a PL map and a point of its
    domain, often a breakpoint of the map; for a product-pl space the
    map is at times a translation by a breakpoint c of M, which puts
    -|x - Fx| on c."""
    doc, x0 = draw(translating_configs())
    space = draw(st.just(doc["space"]) | product_pl_spaces())
    rows = doc["map"]
    if isinstance(space, dict) and draw(st.booleans()):
        c = draw(st.sampled_from([r["interval"][1] for r in space["rows"][:-1]]))
        rows = [{**r, "slope": 1.0, "offset": draw(st.sampled_from([c, -c]))} for r in rows]
    fx = load_fixture_config({"space": space, "map": rows})
    x = draw(st.sampled_from([r.lo for r in fx.map.rows] + [x0])
             | st.floats(min_value=0.0, max_value=1e18))
    return fx, x


def _exact_reference(fx, x):
    # the Fraction reference of the fixture's space
    if isinstance(fx.gmetric, PerimeterMetric):
        return _exact_residual(fx.map, x)
    return _exact_pl_residual(fx.mult.map, fx.map, x)


@settings(max_examples=300, deadline=None)
@given(exact_view_cases())
def test_the_exact_view_is_the_fraction_reference(case):
    fx, x = case
    num, den = exact_step(fx.gmetric, fx.map, x)
    assert den > 0
    assert Fraction(num, den) == _exact_reference(fx, x)


def test_the_exact_view_takes_the_row_right_of_a_breakpoint():
    # -|x - Fx| = -1 is M's breakpoint: M is 5t on its left, 2t + 3 from it on
    fx = load_fixture_config({
        "space": {"kind": "product-pl", "rows": [
            {"interval": [None, -1], "slope": 5, "offset": 0},
            {"interval": [-1, None], "slope": 2, "offset": 3}]},
        "map": [{"interval": [0, None], "slope": 1, "offset": -1}]})
    num, den = exact_step(fx.gmetric, fx.map, 1e17)
    assert Fraction(num, den) == 2 * (2 * -1 + 3) + 3
    assert exact_step(GMetric(g=G.g), fx.map, 1e17) is None


@settings(max_examples=300, deadline=None)
@given(translating_configs(), st.none() | product_pl_spaces(),
       st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=0.0, max_value=3.0))
@example(config=({"space": "exp-usual",
                  "map": [{"interval": [0.0, None], "slope": 1.0, "offset": -1.0}]}, 1e17),
         space=None, eta=0.625, log_budget=math.log(2.0625))
def test_an_admitted_seed_step_is_exactly_within_budget(config, space, eta, log_budget):
    # seed_condition_ok: true implies the exact seed step is within budget
    doc, x0 = config
    fx = load_fixture_config(doc if space is None else {**doc, "space": space})
    params = ContractionParams(eta=eta, gamma=math.exp(log_budget) / (1.0 - eta),
                               seed_point=x0)
    if seed_condition_holds(fx.gmetric, fx.map, params):
        budget = Fraction(math.log(params.seed_budget) + SLACK)
        assert _exact_reference(fx, x0) <= budget


# ---------------------------------------------------------------------------
# solve: certified properties


def test_rate_met_exactly_is_certified():
    # x -> x/2 halves every step exactly: a rate equal to the slope holds
    F = SelfMap(apply=lambda x: x / 2.0)
    params = ContractionParams(eta=0.5, gamma=10.0, seed_point=1.0)
    r = solve_fixed_point(G, F, params, epsilon=TOL)
    assert r.rate_certified
    assert r.iterations_used <= r.certified_bound


@pytest.mark.parametrize("slope,eta,x0,epsilon", [(0.95, 0.05, 1.1e-11, 1e-12),
                                                  (0.99999, 0.9995, 1e-4, 1e-9)])
def test_steps_within_the_slack_of_the_rate_do_not_certify_it(slope, eta, x0, epsilon):
    # every step exceeds eta times the one before by less than SLACK, and
    # the orbit still needs more steps than the bound computed from eta
    F = load_fixture_config({"space": "exp-usual", "map": [
        {"interval": [0, None], "slope": slope, "offset": 0}]}).map
    params = ContractionParams(eta=eta, gamma=4000.0, seed_point=x0)
    r = solve_fixed_point(G, F, params, epsilon=epsilon, max_iter=100_000)
    steps = r.trace.step_logs
    assert all(after <= eta * before + SLACK for before, after in zip(steps, steps[1:]))
    assert r.iterations_used > a_priori_iterations(steps[0], eta, epsilon)
    assert not r.rate_certified and r.certified_bound is None


def test_step_logs_dominated_by_geometric_bound():
    r = solve_fixed_point(G, EX37.map, EX37.params, epsilon=TOL)
    first = r.trace.step_logs[0]
    for j, step in enumerate(r.trace.step_logs):
        assert step <= (0.625 ** j) * first + 1e-12


def test_residual_bounds_the_next_move():
    r = solve_fixed_point(G, EX37.map, EX37.params, epsilon=TOL)
    p = r.point
    assert G(p, EX37.map(p), EX37.map(p)) == r.residual_log
    assert abs(EX37.map(p) - p) <= r.residual_log


@pytest.mark.parametrize("fixture", ["ex33", "ex37"])
def test_uniqueness_surrogate_across_admissible_seeds(fixture):
    fx = get_fixture(fixture)
    log_r = math.log(fx.params.gamma)
    seeds = [s for s in np.linspace(0.0, 1.18, 10)
             if G(fx.params.seed_point, s, s) <= log_r]
    assert len(seeds) == 10
    points = []
    for s in seeds:
        params = fx.params.replace(seed_point=float(s))
        assert G(params.seed_point, fx.map(params.seed_point),
                 fx.map(params.seed_point)) <= math.log((1 - params.eta) * params.gamma)
        points.append(solve_fixed_point(G, fx.map, params,
                                        epsilon=TOL).point)
    for p in points:
        for q in points:
            assert G(p, q, q) <= 2 * TOL


@pytest.mark.parametrize("fixture,seed", [("ex33", 0.2), ("ex33", 1 / 3),
                                          ("ex37", 0.3), ("ex37", 0.45)])
def test_monotone_trace_on_contraction_branch(fixture, seed):
    fx = get_fixture(fixture)
    params = fx.params.replace(seed_point=seed)
    r = solve_fixed_point(G, fx.map, params, epsilon=TOL)
    assert r.order_monotone


def test_result_to_dict_shape():
    r = solve_fixed_point(G, EX33.map, EX33.params, epsilon=TOL)
    doc = r.to_dict()
    assert doc["point"] == 0.0
    assert doc["ball_exited"] is False
    assert doc["trace"]["iterates"] == (1 / 3, 0.0)


# ---------------------------------------------------------------------------
# the solve's trace is the orbit


@st.composite
def contracting_configs(draw):
    """A PL map on [0, inf) with slopes in [0, 0.95) and no offsets, so
    every orbit falls toward 0, plus a seed and an eta."""
    cuts = sorted(set(draw(st.lists(st.floats(min_value=0.01, max_value=20.0),
                                    max_size=4))))
    edges = [0.0] + cuts + [None]
    rows = [{"interval": [lo, hi], "offset": 0.0,
             "slope": draw(st.floats(min_value=0.0, max_value=0.95, exclude_max=True))}
            for lo, hi in zip(edges, edges[1:])]
    space = draw(st.sampled_from(["exp-usual", "product-exp"]))
    x0 = draw(st.floats(min_value=0.0, max_value=20.0))
    eta = draw(st.floats(min_value=0.05, max_value=0.95))
    return {"space": space, "map": rows}, x0, eta


@settings(max_examples=150, deadline=None)
@given(contracting_configs(), st.floats(min_value=1.0, max_value=8.0),
       st.sampled_from(["root", "implicit"]), st.booleans())
def test_solve_trace_is_the_orbit(config, slack, mode, batched):
    doc, x0, eta = config
    fx = load_fixture_config(doc)
    # without a batch form the ball flags come from the scalar fallback
    g = fx.gmetric if batched else GMetric(g=fx.gmetric.g)
    F = fx.map
    # a radius that admits the seed, so that later iterates may leave the ball
    gamma = math.exp(g(x0, F(x0), F(x0))) * slack / (1.0 - eta)
    params = ContractionParams(eta=eta, gamma=gamma, seed_point=x0)
    r = solve_fixed_point(g, F, params, mode=mode, epsilon=TOL)
    trace = r.trace
    for x, flag in zip(trace.iterates, trace.in_ball):
        assert flag == ball_contains(g, params.ball, x)
    # bitwise, so that -0.0 and 0.0 differ: each iterate is F of the one
    # before, and each step log is g(x_j, x_{j+1}, x_{j+1})
    for j, (x, nxt) in enumerate(zip(trace.iterates, trace.iterates[1:])):
        assert nxt.hex() == F(x).hex()
        assert trace.step_logs[j].hex() == g(x, nxt, nxt).hex()
    last = trace.iterates[-1]
    assert r.residual_log.hex() == g(last, F(last), F(last)).hex()


def _trace_bits(trace):
    # the floats by their bits, so that -0.0 and 0.0 differ
    return (tuple(map(float.hex, trace.iterates)), tuple(map(float.hex, trace.step_logs)),
            trace.in_ball, trace.monotone)


@pytest.mark.parametrize("mode", ["root", "implicit"])
def test_pair_kernel_solves_bitwise_like_the_generic_route(mode):
    # The stock fixtures at the README's epsilon, and the benchmark's
    # slow orbit configs (about 6,500 steps) at its 1e-9.  The stock
    # perimeter takes its written-out steps; the generic metric calls the
    # same g through a function of its own, so its residuals and ball
    # flags are g(x, y, y) itself.
    orbit_config = _load_workloads().orbit_config
    cases = [(EX33, 1e-6), (EX37, 1e-6)]
    for seed in range(2):
        rng = random.Random(f"orbits:{seed}")
        for space in ("exp-usual", "product-exp"):
            cases.append((load_fixture_config(orbit_config(rng, space, False)), 1e-9))
    for fx, epsilon in cases:
        generic = GMetric(g=lambda x, y, z, g=fx.gmetric.g: g(x, y, z))
        stock, plain = (solve_fixed_point(g, fx.map, fx.params, mode=mode, epsilon=epsilon,
                                          max_iter=1_000_000) for g in (fx.gmetric, generic))
        assert isinstance(fx.gmetric, PerimeterMetric)
        assert _trace_bits(stock.trace) == _trace_bits(plain.trace)
        last, image = stock.point, fx.map(stock.point)
        assert stock.residual_log.hex() == fx.gmetric.g(last, image, image).hex()
        assert stock.residual_log.hex() == plain.residual_log.hex()
        assert stock.certified_bound == plain.certified_bound
        assert stock == plain


@settings(max_examples=300, deadline=None)
@given(contracting_configs(), st.sampled_from(["root", "implicit"]),
       st.floats(min_value=-12.0, max_value=0.0))
def test_certified_rate_bounds_the_iterations(config, mode, log10_epsilon):
    # the slopes may exceed eta, and the rate is then mostly not certified;
    # a certified one must be a true a-priori bound
    doc, x0, eta = config
    fx = load_fixture_config(doc)
    g, F = fx.gmetric, fx.map
    gamma = 2.0 * math.exp(g(x0, F(x0), F(x0))) / (1.0 - eta)
    params = ContractionParams(eta=eta, gamma=gamma, seed_point=x0)
    r = solve_fixed_point(g, F, params, mode=mode, epsilon=10.0 ** log10_epsilon)
    if r.rate_certified:
        assert r.iterations_used <= r.certified_bound


@st.composite
def signed_pl_spaces(draw):
    """A product-pl space whose log-distance is linear in x - y on each
    side of 0, with slopes and offsets of either sign, so that ln G may
    lie below the floor; a map s * x + t on [0, inf); and a seed."""
    def row(lo, hi):
        return {"interval": [lo, hi], "slope": draw(st.floats(min_value=-2.0, max_value=2.0)),
                "offset": draw(st.floats(min_value=-1.0, max_value=1.0))}
    space = {"kind": "product-pl", "rows": [row(None, 0.0), row(0.0, None)]}
    F = [{"interval": [0.0, None], "slope": draw(st.floats(min_value=0.0, max_value=0.95)),
          "offset": draw(st.floats(min_value=0.0, max_value=5.0))}]
    return {"space": space, "map": F}, draw(st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=150, deadline=None)
@given(signed_pl_spaces(), st.sampled_from(["root", "implicit"]))
def test_solve_never_accepts_a_step_below_the_floor(config, mode):
    # implicit mode with eta 0.6 is uncertified, so no a-priori bound
    # looks at the first step either
    doc, x0 = config
    fx = load_fixture_config(doc)
    params = ContractionParams(eta=0.4 if mode == "root" else 0.6, gamma=1e6, seed_point=x0)
    try:
        r = solve_fixed_point(fx.gmetric, fx.map, params, mode=mode,
                              epsilon=TOL, max_iter=200)
    # a float fixed point the real map moves off ends in InexactFixedPoint
    except (BelowFloor, SeedConditionViolated, MaxIterationsExceeded, NonFiniteStep,
            InexactFixedPoint):
        return
    assert min(r.trace.step_logs, default=0.0) >= -SLACK
    assert r.residual_log >= -SLACK


# ---------------------------------------------------------------------------
# the affine loop of a piecewise-linear map on the perimeter


AFFINE_SLOPES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]) | st.floats(-2.0, 2.0)
AFFINE_OFFSETS = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)


@st.composite
def affine_orbits(draw):
    """A piecewise-linear map whose first cell may start at -inf and whose
    last may end at a finite point, with negative, zero and huge slopes
    and signed-zero offsets, or else a contraction of the whole line
    whose orbits cross its rows; a seed among +-inf, NaN, -0.0, the
    breakpoints and the floats next to them; a ball, a step budget and a
    tolerance."""
    edges = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=5, unique=True)))
    contracting = draw(st.booleans())
    if contracting or draw(st.booleans()):
        edges[0] = -math.inf
    if contracting or draw(st.booleans()):
        edges[-1] = math.inf
    slopes = st.floats(-0.9, 0.9) if contracting else AFFINE_SLOPES
    F = PiecewiseMap(tuple(PiecewiseRow(lo, hi, draw(slopes), draw(AFFINE_OFFSETS))
                           for lo, hi in zip(edges, edges[1:])))
    near = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    x0 = draw(st.floats(-60.0, 60.0)
              | st.sampled_from(edges + near + [-0.0, 0.0, math.inf, -math.inf, math.nan]))
    ball = ClosedBall(center=draw(st.floats(0.0, 60.0)), radius=draw(st.floats(1e-3, 1e30)))
    tol = draw(st.sampled_from([1e-9, 1e-3, 1e-12, 0.0, 1.0, 100.0]))
    return F, ball, x0, draw(st.integers(0, 60)), tol


def _orbit_outcome(F, g, ball, x0, steps, tol):
    try:
        trace, residual = _orbit(F, g, ball, x0, steps, tol)
    except Exception as err:  # the error, type and message, is the outcome
        return type(err), str(err)
    return _trace_bits(trace), residual.hex()


@settings(max_examples=1000, deadline=None)
@given(affine_orbits())
# a step that overflows past the step budget: its residual is NaN, not inf
@example((PiecewiseMap((PiecewiseRow(0.0, math.inf, 1e300, 0.0),)),
          ClosedBall(center=1.0, radius=2.0), 1e10, 0, 1e-9))
# the same on the cached row, whose written-out step must give NaN too
@example((PiecewiseMap((PiecewiseRow(0.0, math.inf, 1e300, 0.0),)),
          ClosedBall(center=1.0, radius=2.0), 1.0, 1, 1e-9))
# a ball of radius 1 holds its centre, the seed, on its boundary
@example((PiecewiseMap((PiecewiseRow(-math.inf, math.inf, 0.5, 0.0),)),
          ClosedBall(center=1.0, radius=1.0), 1.0, 60, 1e-9))
def test_the_affine_orbit_is_bitwise_the_generic_loop(case):
    F, ball, x0, steps, tol = case
    assert isinstance(G, PerimeterMetric)
    generic = (SelfMap(apply=F.apply, domain=F.domain), GMetric(g=G.g))
    assert _orbit_outcome(F, G, ball, x0, steps, tol) == \
        _orbit_outcome(*generic, ball, x0, steps, tol)


def test_a_perimeter_orbit_makes_no_kernel_call_per_step(monkeypatch):
    # a benchmark orbit at two tolerances: the calls to the map and the
    # scalar g do not grow with the orbit's length
    calls = {"apply": 0, "g": 0}
    apply, g = PiecewiseMap.apply, PairSumMetric.g

    def counted_apply(self, x):
        calls["apply"] += 1
        return apply(self, x)

    def counted_g(self, x, y, z):
        calls["g"] += 1
        return g(self, x, y, z)

    monkeypatch.setattr(PiecewiseMap, "apply", counted_apply)
    monkeypatch.setattr(PairSumMetric, "g", counted_g)
    fx = load_fixture_config(_load_workloads().orbit_config(random.Random("orbits:0"),
                                                            "exp-usual", False))
    seen = []
    for epsilon in (1e-3, 1e-9):
        calls.update(apply=0, g=0)
        r = solve_fixed_point(fx.gmetric, fx.map, fx.params, epsilon=epsilon, max_iter=10 ** 6)
        seen.append((r.iterations_used, dict(calls)))
    (short, short_calls), (long, long_calls) = seen
    assert long > short + 1000
    assert short_calls == long_calls


def test_an_orbit_off_the_perimeter_calls_its_kernels_per_step(monkeypatch):
    # the benchmark orbit on a product-pl space whose rows are |t|: the
    # same distances as the perimeter's, but no PerimeterMetric, so the
    # loop takes F.apply and g.g at every step
    config = _load_workloads().orbit_config(random.Random("orbits:0"), "exp-usual", False)
    config["space"] = {"kind": "product-pl", "rows": [
        {"interval": [None, 0.0], "slope": -1.0, "offset": 0.0},
        {"interval": [0.0, None], "slope": 1.0, "offset": 0.0}]}
    fx = load_fixture_config(config)
    assert not isinstance(fx.gmetric, PerimeterMetric)
    calls = {"apply": 0, "g": 0}
    apply, g = PiecewiseMap.apply, PairSumMetric.g

    def counted_apply(self, x):
        # the space's own rows are a PiecewiseMap too; count F's calls only
        calls["apply"] += self is fx.map
        return apply(self, x)

    def counted_g(self, x, y, z):
        calls["g"] += 1
        return g(self, x, y, z)

    monkeypatch.setattr(PiecewiseMap, "apply", counted_apply)
    monkeypatch.setattr(PairSumMetric, "g", counted_g)
    seen = []
    for epsilon in (1e-3, 1e-9):
        calls.update(apply=0, g=0)
        r = solve_fixed_point(fx.gmetric, fx.map, fx.params, epsilon=epsilon, max_iter=10 ** 6)
        seen.append((r.iterations_used, dict(calls)))
    (short, short_calls), (long, long_calls) = seen
    assert long > short + 1000
    for kernel in calls:
        assert long_calls[kernel] - short_calls[kernel] >= long - short
