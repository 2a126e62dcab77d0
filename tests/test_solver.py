import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgmetric import (
    SLACK,
    BelowFloor,
    ClosedBall,
    ContractionParams,
    DomainExit,
    GMetric,
    Interval,
    MaxIterationsExceeded,
    NonFiniteStep,
    RateOutOfRange,
    SeedConditionViolated,
    SelfMap,
    SolveError,
    a_priori_iterations,
    ball_contains,
    converged,
    get_fixture,
    gm_from_exp,
    load_fixture_config,
    mu_class,
    mu_of,
    picard_trace,
    solve_fixed_point,
    step_bound,
    usual_metric,
)
from mgmetric._jsonutil import dumps

G = gm_from_exp(usual_metric)
EX33 = get_fixture("ex33")
EX37 = get_fixture("ex37")
BALL = ClosedBall(center=1 / 3, radius=5.5)
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
    trace = picard_trace(EX33.map, 1 / 3, 3, G, BALL)
    assert trace.iterates == (1 / 3, 0.0, 0.0, 0.0)
    assert trace.step_logs[0] == pytest.approx(2 / 3, abs=1e-15)
    assert trace.step_logs[1:] == (0.0, 0.0)
    assert trace.monotone
    assert all(trace.in_ball)


def test_trace_halving_orbit():
    trace = picard_trace(EX37.map, 1 / 3, 2, G, BALL)
    assert trace.iterates == (1 / 3, 1 / 6, 1 / 12)


def test_trace_constant_at_fixed_point():
    trace = picard_trace(EX33.map, 0.0, 5, G, BALL)
    assert set(trace.iterates) == {0.0}
    assert set(trace.step_logs) == {0.0}


def test_trace_length_consistency():
    trace = picard_trace(EX37.map, 1.0, 7, G, BALL)
    assert len(trace.step_logs) == len(trace.iterates) - 1
    assert len(trace.in_ball) == len(trace.iterates)


def test_trace_domain_exit():
    F = SelfMap(apply=lambda x: x - 1.0, description="escapes", domain=Interval(0.0, math.inf))
    with pytest.raises(DomainExit) as err:
        picard_trace(F, 0.5, 3, G, BALL)
    assert err.value.index == 1
    assert err.value.point == -0.5


def test_trace_overflow_is_domain_exit():
    # x -> 4x overflows to inf, which the unbounded domain [0, inf) bounds
    # but does not contain
    F = load_fixture_config({"space": "exp-usual",
                             "map": [{"interval": [0, None], "slope": 4, "offset": 0}]}).map
    with pytest.raises(DomainExit) as err:
        picard_trace(F, 1.0, 600, G, BALL)
    assert err.value.index == 512
    assert err.value.point == math.inf


def test_ball_flags_are_bools_for_a_metric_of_numpy_scalars():
    # the flags come from the scalar kernel; a g returning numpy floats
    # still gives bool flags, which a report can render
    g = GMetric(g=lambda x, y, z: np.float64(G(x, y, z)))
    trace = picard_trace(EX37.map, 3.0, 6, g, BALL)
    assert trace.in_ball == picard_trace(EX37.map, 3.0, 6, G, BALL).in_ball
    assert {type(flag) for flag in trace.in_ball} == {bool}
    assert False in trace.in_ball
    assert '"in_ball": [' in dumps(trace.to_dict())


def test_trace_csv_round_trip():
    trace = picard_trace(EX37.map, 1 / 3, 4, G, BALL)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "index,value,step_log,in_ball"
    assert len(lines) == 1 + len(trace.iterates)
    first = lines[1].split(",")
    assert float(first[1]) == 1 / 3
    assert lines[-1].split(",")[2] == ""  # final row carries no step


# ---------------------------------------------------------------------------
# bounds


def test_step_bound_values():
    assert step_bound(2 / 3, 5 / 8, 2) == pytest.approx(25 / 64 * 2 / 3, abs=1e-15)
    assert step_bound(0.42, 0.9, 0) == 0.42
    assert step_bound(0.42, 0.0, 3) == 0.0
    with pytest.raises(ValueError):
        step_bound(0.1, 1.0, 1)


def test_a_priori_iterations_reference_case():
    assert a_priori_iterations(1 / 3, 5 / 8, 1e-6) == 30
    assert brute_force_bound(1 / 3, 5 / 8, 1e-6) == 30


def test_a_priori_iterations_edge_cases():
    assert a_priori_iterations(0.0, 0.5, 1e-6) == 0
    assert a_priori_iterations(0.5, 0.0, 1e-6) == 1  # one step clears the tail
    assert a_priori_iterations(1e-9, 0.5, 1.0) == 0  # seed already within tolerance
    with pytest.raises(RateOutOfRange):
        a_priori_iterations(0.5, 1.0, 1e-6)
    with pytest.raises(RateOutOfRange):
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


def test_convergence_criterion():
    assert converged(G, 0.42, 0.42, 1e-12)
    assert converged(G, 1e-7, 0.0, 1e-6)
    assert not converged(G, 0.1, 0.0, 1e-6)
    with pytest.raises(ValueError):
        converged(G, 0.0, 0.0, 0.0)


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
    F = SelfMap(apply=lambda x: x - 1.0, description="escapes",
                domain=Interval(0.0, math.inf))
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
            converged(G, 0.0, 0.0, epsilon)
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
        converged(G, 0.0, 0.0, epsilon)
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
    for run in (lambda: picard_trace(F, 3.0, 10, G, BALL),
                lambda: solve_fixed_point(G, F, params, epsilon=TOL)):
        with pytest.raises(NonFiniteStep) as err:
            run()
        assert (err.value.index, err.value.point, err.value.step_log) == (1, 1.5, math.inf)
    # the steps before it are recorded as usual
    assert picard_trace(F, 3.0, 1, G, BALL).step_logs == (3.0,)


def test_below_floor_step_ends_the_orbit():
    # ln G = -1.5 on every triple off the diagonal: the first step is below
    # the floor, and its residual below any tolerance
    g = GMetric(g=lambda x, y, z: 0.0 if x == y == z else -1.5, description="negative")
    F = SelfMap(apply=lambda x: x + 5.0, description="shift")
    params = ContractionParams(eta=0.5, gamma=10.0, seed_point=3.0)
    for run in (lambda: picard_trace(F, 3.0, 10, g, BALL),
                lambda: solve_fixed_point(g, F, params, epsilon=TOL)):
        with pytest.raises(BelowFloor) as err:
            run()
        assert (err.value.index, err.value.point, err.value.step_log) == (0, 3.0, -1.5)


@pytest.mark.parametrize("eta,gamma", [(0.6, 10.0), (0.99, 1.0)])
def test_seed_step_below_the_floor_is_reported_before_the_rate(eta, gamma):
    # implicit mode with eta >= 0.5 has rate mu >= 1, and the budget of the
    # second case is below the floor: BelowFloor comes first either way
    g = GMetric(g=lambda x, y, z: 0.0 if x == y == z else -1.5, description="negative")
    F = SelfMap(apply=lambda x: x + 5.0, description="shift")
    params = ContractionParams(eta=eta, gamma=gamma, seed_point=3.0)
    with pytest.raises(BelowFloor) as err:
        solve_fixed_point(g, F, params, mode="implicit", epsilon=TOL)
    assert (err.value.index, err.value.point, err.value.step_log) == (0, 3.0, -1.5)


def test_step_on_the_floor_within_slack_is_accepted():
    # -SLACK itself is on the floor: the steps are recorded, and a solve
    # converges at once with the a-priori bound of a first step of 0
    g = GMetric(g=lambda x, y, z: 0.0 if x == y == z else -1e-12, description="slack")
    F = SelfMap(apply=lambda x: x + 5.0, description="shift")
    trace = picard_trace(F, 3.0, 2, g, BALL)
    assert trace.step_logs == (-1e-12, -1e-12)
    params = ContractionParams(eta=0.5, gamma=10.0, seed_point=3.0)
    r = solve_fixed_point(g, F, params, epsilon=TOL)
    assert (r.point, r.residual_log, r.iterations_used, r.certified_bound) == (3.0, -1e-12, 0, 0)


def test_every_solve_failure_is_a_solve_error():
    for error in (DomainExit, NonFiniteStep, BelowFloor, SeedConditionViolated,
                  MaxIterationsExceeded):
        assert issubclass(error, SolveError)
    # a rate >= 1 is a bad argument of the bound, not a failed solve
    assert not issubclass(RateOutOfRange, SolveError)


# ---------------------------------------------------------------------------
# solve: certified properties


def test_rate_met_exactly_is_certified():
    # x -> x/2 halves every step exactly: a rate equal to the slope holds
    F = SelfMap(apply=lambda x: x / 2.0, description="halving")
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
        assert step <= step_bound(first, 0.625, j) + 1e-12


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
# solve and picard_trace walk the same orbit


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
def test_solve_trace_is_the_fixed_step_trace(config, slack, mode, batched):
    doc, x0, eta = config
    fx = load_fixture_config(doc)
    # without a batch form the ball flags come from the scalar fallback
    g = fx.gmetric if batched else GMetric(g=fx.gmetric.g)
    F = fx.map
    # a radius that admits the seed, so that later iterates may leave the ball
    gamma = math.exp(g(x0, F(x0), F(x0))) * slack / (1.0 - eta)
    params = ContractionParams(eta=eta, gamma=gamma, seed_point=x0)
    r = solve_fixed_point(g, F, params, mode=mode, epsilon=TOL)
    trace = picard_trace(F, x0, r.iterations_used, g, params.ball)
    assert r.trace == trace
    for x, flag in zip(trace.iterates, trace.in_ball):
        assert flag == ball_contains(g, params.ball, x)


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
    except (BelowFloor, SeedConditionViolated, MaxIterationsExceeded, NonFiniteStep):
        return
    assert min(r.trace.step_logs, default=0.0) >= -SLACK
    assert r.residual_log >= -SLACK
