import copy
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mgmetric import (
    SLACK,
    BelowFloor,
    ClosedBall,
    ContractionParams,
    DifferenceMetric,
    GMetric,
    Interval,
    MultMetric,
    PairSumMetric,
    PerimeterMetric,
    PiecewiseMap,
    PiecewiseRow,
    SeedConditionViolated,
    SelfMap,
    ball_contains,
    check_gm_axioms,
    check_gm_properties,
    check_mult_axioms,
    gm_from_exp,
    gm_from_product,
    usual_metric,
    EXP_ABS_METRIC,
    load_fixture_config,
    get_fixture,
    Witness,
    seed_condition_holds,
    solve_fixed_point,
)
from mgmetric.metric import _RELATIONS, _at, _perimeter_batch
from mgmetric.sampling import _Recorder

DOMAIN = Interval(0.0, 10.0)


def perimeter(x, y, z):
    # independent oracle for both constructions on |x - y|
    return abs(x - y) + abs(y - z) + abs(z - x)


# ---------------------------------------------------------------------------
# constructions


def test_product_construction_direct_values():
    g = gm_from_product(EXP_ABS_METRIC)
    assert g(0.0, 1.0, 2.0) == 4.0
    assert g.value(0.0, 1.0, 2.0) == pytest.approx(math.exp(4.0))
    assert g(3.7, 3.7, 3.7) == 0.0


def test_product_construction_symmetry_of_product():
    g = gm_from_product(EXP_ABS_METRIC)
    assert g(0.0, 1.0, 2.0) == g(2.0, 0.0, 1.0) == g(1.0, 2.0, 0.0)


def test_exp_construction_matches_perimeter():
    g = gm_from_exp(usual_metric)
    rng = np.random.default_rng(5)
    for x, y, z in rng.random((100, 3)) * 10.0:
        assert g(x, y, z) == pytest.approx(perimeter(x, y, z), abs=1e-12)


def test_exp_construction_reference_points():
    g = gm_from_exp(usual_metric)
    assert g.value(1 / 3, 0.0, 0.0) == pytest.approx(1.9477, abs=1e-4)
    assert g.value(1 / 3, 1 / 6, 1 / 6) == pytest.approx(1.3956, abs=1e-4)
    assert g(2.25, 2.25, 2.25) == 0.0


def test_constructions_agree_on_shared_route():
    ge = gm_from_exp(usual_metric)
    gp = gm_from_product(EXP_ABS_METRIC)
    rng = np.random.default_rng(11)
    for x, y, z in rng.random((200, 3)) * 10.0:
        assert ge(x, y, z) == gp(x, y, z)


def test_permutation_invariance_is_bitwise():
    g = gm_from_exp(usual_metric)
    rng = np.random.default_rng(3)
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for pts in rng.random((1000, 3)) * 10.0:
        vals = {g(pts[i], pts[j], pts[k]) for i, j, k in perms}
        assert len(vals) == 1


def _sorted_pair_sum(pairfn, x, y, z):
    # the scalar g before its sort became compare-and-swaps; a pair
    # distance enters the sum plus 0.0, so -0.0 counts as 0.0
    a = (pairfn(x, y) if x <= y else pairfn(y, x)) + 0.0
    b = (pairfn(y, z) if y <= z else pairfn(z, y)) + 0.0
    c = (pairfn(z, x) if z <= x else pairfn(x, z)) + 0.0
    t0, t1, t2 = sorted((a, b, c))
    return t0 + t1 + t2


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


# Carrier points, weighted toward the cases a sort can get wrong: signed
# zeros, subnormals, and (below) ties between the three points.
_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e308]),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.7976931348623157e308),
)
_COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
                          st.floats(min_value=-1e3, max_value=1e3),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _triples(draw, points=_POINTS):
    """Three points drawn from a pool of one to three, so ties and equal
    points are common."""
    pool = draw(st.lists(points, min_size=1, max_size=3))
    return tuple(draw(st.sampled_from(pool)) for _ in range(3))


def _abs_pair(x, y):
    return abs(x - y)


@st.composite
def _spaces(draw):
    """A ternary metric and the pair function it sums: exp-usual, exp of
    a symmetric pair function that is not ``usual_metric``, product-exp,
    or a product-pl space with random rows over the signed difference,
    which is not symmetric."""
    kind = draw(st.sampled_from(["exp-usual", "exp-abs", "product-exp", "product-pl"]))
    if kind == "exp-usual":
        return gm_from_exp(usual_metric), usual_metric
    if kind == "exp-abs":
        # |x - y| as a new function takes the generic canonical route
        return gm_from_exp(_abs_pair), _abs_pair
    if kind == "product-exp":
        return gm_from_product(EXP_ABS_METRIC), EXP_ABS_METRIC.dist
    cuts = sorted(set(draw(st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=3))))
    edges = [None] + cuts + [None]
    rows = [{"interval": [lo, hi], "slope": draw(_COEFFICIENTS), "offset": draw(_COEFFICIENTS)}
            for lo, hi in zip(edges, edges[1:])]
    fx = load_fixture_config({"space": {"kind": "product-pl", "rows": rows}})
    return fx.gmetric, fx.mult.dist


@settings(max_examples=300, deadline=None)
@given(_spaces(), _triples())
def test_scalar_g_is_the_sorted_sum_and_permutation_symmetric_bitwise(space, xyz):
    g, pairfn = space
    x, y, z = xyz
    value = g(x, y, z)
    assert _bits(value) == _bits(_sorted_pair_sum(pairfn, x, y, z))
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for i, j, k in perms:
        assert _bits(g(xyz[i], xyz[j], xyz[k])) == _bits(value)


@pytest.mark.parametrize("right_slope", [1.0, -1.0])
def test_a_negative_zero_pair_distance_sums_as_positive_zero(right_slope):
    # |x - y| as product-pl rows with offset -0.0: the pair distance of
    # equal points is right_slope * 0.0 + -0.0, which is -0.0 when that
    # slope is -1, yet G of equal points is +0.0 in g and g.many alike
    rows = [{"interval": [None, 0], "slope": -1.0, "offset": -0.0},
            {"interval": [0, None], "slope": right_slope, "offset": -0.0}]
    g = load_fixture_config({"space": {"kind": "product-pl", "rows": rows}}).gmetric
    triples = [(x, x, x) for x in (1 / 3, 2.5, 1e17, -7.0)]
    triples += [(a, b, c) for a in (0.0, -0.0) for b in (0.0, -0.0) for c in (0.0, -0.0)]
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for xyz in triples:
        for i, j, k in perms:
            assert _bits(g(xyz[i], xyz[j], xyz[k])) == _bits(0.0)
    columns = (np.array(col) for col in zip(*triples))
    assert np.array_equal(g.many(*columns).view(np.uint64), np.zeros(len(triples), np.uint64))


def test_stock_spaces_carry_the_perimeter_kernel():
    spaces = [get_fixture(fx).gmetric for fx in ("exp-usual", "product-exp", "ex33", "ex37")]
    spaces += [gm_from_exp(usual_metric), gm_from_product(EXP_ABS_METRIC)]
    spaces += [load_fixture_config({"space": space}).gmetric
               for space in ("exp-usual", "product-exp")]
    for g in spaces:
        assert type(g) is PerimeterMetric and g._fields == ("d", "description")
        assert g.d.dist is usual_metric
        # the pair sum's one scalar kernel, and the perimeter's batch
        # kernel itself, with no bound-method layer
        assert type(g).g is PairSumMetric.g and g.batch is _perimeter_batch
    generic = [gm_from_product(MultMetric(dist=_abs_pair, batch=_abs_pair)),
               gm_from_exp(_abs_pair),
               load_fixture_config({"space": {"kind": "product-pl", "rows": [
                   {"interval": [None, None], "slope": 1.0, "offset": 0.0}]}}).gmetric]
    for g in generic:
        assert type(g) is PairSumMetric and g.batch is not None
        assert g.batch is not _perimeter_batch


def test_pair_sum_metric_is_a_record_of_its_pair_metric():
    assert issubclass(PairSumMetric, GMetric) and PairSumMetric._fields == ("d", "description")
    with pytest.raises(TypeError, match="missing"):
        PairSumMetric(MultMetric(dist=_abs_pair))
    g = gm_from_exp(_abs_pair)
    same = gm_from_product(MultMetric(dist=_abs_pair), "exp of pairwise perimeter")
    assert g == same == PairSumMetric(MultMetric(dist=_abs_pair), "exp of pairwise perimeter")
    assert hash(g) == hash(same)
    assert g != gm_from_exp(_abs_pair, "other label")
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert clone == g and clone(0.5, 2.0, -1.0) == g(0.5, 2.0, -1.0)


def _assert_same_floats(kernel, reference):
    # NaN by isnan, whatever its payload; every other float by its bits
    kernel, reference = np.asarray(kernel), np.asarray(reference)
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(kernel), nan)
    assert np.array_equal(kernel[~nan].view(np.uint64), reference[~nan].view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.lists(_triples(st.one_of(_POINTS, st.just(math.inf))), min_size=1, max_size=20),
       st.one_of(st.none(), st.integers(min_value=64, max_value=300)))
def test_perimeter_kernel_is_bitwise_the_generic_route(triples, length):
    # the generic route of the same |x - y|: canonical pair order, then
    # the same sort and sum; the points include inf, so inf - inf and
    # overflowing differences give NaN and inf.  numpy's vectorised
    # minimum and maximum run their unrolled loops only on longer arrays,
    # so a drawn length tiles the triples to 64-300 of them.
    if length is not None:
        triples = (triples * (length // len(triples) + 1))[:length]
    generic = gm_from_product(MultMetric(dist=_abs_pair, batch=_abs_pair))
    x, y, z = (np.array(col, dtype=np.float64) for col in zip(*triples))
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_floats(_perimeter_batch(x, y, z), generic.many(x, y, z))
    stock = gm_from_exp(usual_metric)
    _assert_same_floats([stock.g(*t) for t in triples], [generic(*t) for t in triples])


def test_perimeter_batch_is_the_scalar_kernel_on_a_seeded_sample():
    # 10^4 triples: uniform points, with a tenth of each coordinate
    # replaced by a special value and a tenth of z tied to x or y
    rng = np.random.default_rng(20261018)
    n = 10_000
    special = np.array([0.0, -0.0, 5e-324, 1e-310, 1.0, 1e308, math.inf])
    x, y, z = (np.where(rng.random(n) < 0.1, rng.choice(special, n), rng.uniform(0.0, 10.0, n))
               for _ in range(3))
    z = np.where(rng.random(n) < 0.1, np.where(rng.random(n) < 0.5, x, y), z)
    inputs = x.copy(), y.copy(), z.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _perimeter_batch(x, y, z)
    scalar = gm_from_exp(usual_metric).g
    _assert_same_floats(batch, list(map(scalar, x.tolist(), y.tolist(), z.tolist())))
    assert np.isnan(batch).any() and np.isinf(batch).any()
    # the kernel writes only into arrays of its own
    for before, after in zip(inputs, (x, y, z)):
        assert np.array_equal(before.view(np.uint64), after.view(np.uint64))


# ---------------------------------------------------------------------------
# the pair form G(x, y, y)

# A second point may be any float: signed zeros, subnormals, overflowing
# differences, infinities and NaN.  A ball's centre, or a seed, is a
# nonnegative finite float.
_PAIR_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1 / 3, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(),
)
_CENTRES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1 / 3, 1e308]),
                     st.floats(min_value=0.0, max_value=10.0),
                     st.floats(min_value=0.0, allow_infinity=False))


def _lopsided(x, y, z):
    # asymmetric, so g(x, y, y), g(y, x, x) and g(x, x, y) all differ
    return x - 2.0 * y + 0.5 * z * z


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_CENTRES, _PAIR_POINTS), min_size=1, max_size=20))
def test_the_pair_form_calls_g_of_x_y_y(pairs):
    # the ball, the seed condition and the solver's seed message read
    # G(a, b, b) as one call g(a, b, b) and go by its float; the seed
    # rule takes g and F once each, also in a failed solve
    calls, images = [], []

    def g(*args):
        calls.append(args)
        return _lopsided(*args)

    def hexes(triples):
        # NaN compares by its text; everything else by its bits
        return [tuple(map(float.hex, t)) for t in triples]

    metric = GMetric(g=g)
    for a, b in pairs:
        value = _lopsided(a, b, b)
        F = SelfMap(apply=lambda x, b=b: images.append(x) or b)
        params = ContractionParams(eta=0.5, gamma=2.0, seed_point=a)
        del calls[:], images[:]
        assert ball_contains(metric, ClosedBall(center=a, radius=2.0), b) == \
            (value <= math.log(2.0))
        holds = seed_condition_holds(metric, F, params)
        # the exact budget (1 - 0.5) * 2 is 1: only a zero step meets it
        assert holds == (value == 0.0)
        assert hexes(calls) == hexes([(a, b, b)] * 2) and len(images) == 1
        if holds:
            continue
        del calls[:], images[:]
        with pytest.raises((SeedConditionViolated, BelowFloor)) as err:
            solve_fixed_point(metric, F, params)
        assert hexes(calls) == hexes([(a, b, b)]) and len(images) == 1
        if err.type is BelowFloor:
            assert err.value.step_log.hex() == value.hex()
        else:
            assert f"log-distance {value} to its image" in str(err.value)


def _no_scalar(*args):
    raise AssertionError("the scalar kernel was called")


@pytest.mark.parametrize("build", [lambda: gm_from_exp(usual_metric),
                                   lambda: GMetric(g=_lopsided, batch=_lopsided)])
def test_axiom_audits_never_call_the_scalar_kernel(build, monkeypatch):
    # the audits test the floats of the batch kernel alone
    g = build()
    reports = [check(g, DOMAIN, 500, seed=5) for check in (check_gm_axioms, check_gm_properties)]
    if isinstance(g, PairSumMetric):
        monkeypatch.setattr(PairSumMetric, "g", _no_scalar)
    else:
        g = g.replace(g=_no_scalar)
    assert [check(g, DOMAIN, 500, seed=5)
            for check in (check_gm_axioms, check_gm_properties)] == reports
    # the trap is armed: the ball calls the scalar kernel
    with pytest.raises(AssertionError, match="scalar kernel"):
        ball_contains(g, ClosedBall(center=1.0, radius=2.0), 1.5)


def test_log_floor_on_samples():
    rng = np.random.default_rng(9)
    for g in (gm_from_exp(usual_metric), gm_from_product(EXP_ABS_METRIC)):
        for x, y, z in rng.random((500, 3)) * 10.0:
            v = g(x, y, z)
            assert v >= 0.0
            assert g.value(x, y, z) >= 1.0


# ---------------------------------------------------------------------------
# balls


def test_ball_membership_examples():
    g = gm_from_exp(usual_metric)
    ball = ClosedBall(center=1 / 3, radius=5.5)
    assert ball_contains(g, ball, 1 / 3)
    assert ball_contains(g, ball, 1.0)
    assert not ball_contains(g, ball, 2.0)


def test_ball_membership_log_threshold():
    # e^{4/3} ~ 3.794 <= 5.5 but e^{10/3} ~ 28.03 > 5.5
    g = gm_from_exp(usual_metric)
    assert g.value(1 / 3, 1.0, 1.0) == pytest.approx(3.7936678946831774)
    assert g.value(1 / 3, 2.0, 2.0) == pytest.approx(28.031624894526125)


@pytest.mark.parametrize("radius,expected", [(0.2, False), (0.999, False),
                                             (1.0, True), (1.5, True), (5.5, True)])
def test_center_membership_iff_radius_at_least_one(radius, expected):
    g = gm_from_exp(usual_metric)
    ball = ClosedBall(center=2.0, radius=radius)
    assert ball_contains(g, ball, ball.center) is expected


def test_ball_validation():
    with pytest.raises(ValueError):
        ClosedBall(center=-1.0, radius=2.0)
    with pytest.raises(ValueError):
        ClosedBall(center=1.0, radius=0.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    assert Interval(0.0, math.inf).contains(1e18)
    assert not Interval(0.0, 1.0).contains(1.5)
    # an infinite end bounds the interval but is not one of its points
    assert not Interval(0.0, math.inf).contains(math.inf)
    assert not Interval(-math.inf, math.inf).contains(-math.inf)
    assert not Interval(-math.inf, math.inf).contains(math.nan)


# ---------------------------------------------------------------------------
# axiom suites: valid constructions


def test_mult_axioms_pass_for_exp_abs():
    report = check_mult_axioms(EXP_ABS_METRIC, DOMAIN, 1000, seed=7)
    assert report.passed
    assert report.witnesses == ()
    assert all(v == 0 for v in report.violations.values())


@pytest.mark.parametrize("seed", [7, 2026])
def test_gm_axioms_pass_for_both_constructions(seed):
    for g in (gm_from_exp(usual_metric), gm_from_product(EXP_ABS_METRIC)):
        report = check_gm_axioms(g, DOMAIN, 10_000, seed=seed)
        assert report.passed, report.axioms
        assert report.witnesses == ()


def test_gm_properties_pass_for_both_constructions():
    for g in (gm_from_exp(usual_metric), gm_from_product(EXP_ABS_METRIC)):
        report = check_gm_properties(g, DOMAIN, 10_000, seed=7)
        assert report.passed, report.axioms


def test_swap_doubling_direct_case():
    # g(0,1,1) = 2 <= 2 * g(1,0,0) = 4
    g = gm_from_exp(usual_metric)
    assert g(0.0, 1.0, 1.0) == pytest.approx(2.0)
    assert g(1.0, 0.0, 0.0) == pytest.approx(2.0)
    assert g(0.0, 1.0, 1.0) <= 2.0 * g(1.0, 0.0, 0.0) + SLACK


def test_properties_hold_with_equality_on_diagonal():
    g = gm_from_exp(usual_metric)
    for p in (0.0, 1 / 3, 7.25):
        assert g(p, p, p) == 0.0
        assert g(p, p, p) <= g(p, p, p) + g(p, p, p)


# ---------------------------------------------------------------------------
# axiom suites: planted broken metrics


def test_unsymmetrized_exp_fails_floor_and_symmetry():
    d = MultMetric(dist=lambda x, y: x - y, description="e^(x-y), not symmetrized")
    report = check_mult_axioms(d, DOMAIN, 1000, seed=7)
    assert report.axioms["floor"] == "fail"
    assert report.axioms["symmetry"] == "fail"
    floor_w = [w for w in report.witnesses if w.rule == "floor"]
    assert floor_w
    for w in floor_w:
        x, y = w.points
        assert d(x, y) < -SLACK  # re-check from scratch
        assert not w.holds()


def test_constant_one_metric_fails_separation():
    d = MultMetric(dist=lambda x, y: 0.0, description="constant 1")
    report = check_mult_axioms(d, DOMAIN, 1000, seed=7)
    assert report.axioms["separation"] == "fail"
    w = next(w for w in report.witnesses if w.rule == "separation")
    x, y = w.points
    assert x != y
    assert d(x, y) <= SLACK


def test_gm_ignoring_coordinate_fails_separation():
    g = GMetric(g=lambda x, y, z: abs(x - y), description="ignores z")
    report = check_gm_axioms(g, DOMAIN, 1000, seed=7)
    assert report.axioms["separation"] == "fail"
    w = next(w for w in report.witnesses if w.rule == "separation")
    x, xx, y = w.points
    assert x == xx and x != y
    assert g(x, x, y) <= SLACK


def test_constant_gm_fails_separation():
    g = GMetric(g=lambda x, y, z: 0.0, description="constant 1")
    report = check_gm_axioms(g, DOMAIN, 500, seed=7)
    assert report.axioms["separation"] == "fail"


def test_all_witnesses_reevaluate_as_violations():
    d = MultMetric(dist=lambda x, y: x - y)
    report = check_mult_axioms(d, DOMAIN, 500, seed=3)
    assert not report.passed
    assert report.witnesses
    for w in report.witnesses:
        assert not w.holds()


# ---------------------------------------------------------------------------
# report plumbing


def test_reports_are_deterministic_given_seed():
    a = check_gm_axioms(gm_from_exp(usual_metric), DOMAIN, 500, seed=42)
    b = check_gm_axioms(gm_from_exp(usual_metric), DOMAIN, 500, seed=42)
    assert a == b


def test_report_to_dict_shape():
    report = check_mult_axioms(EXP_ABS_METRIC, DOMAIN, 100, seed=1)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert set(doc["axioms"]) == {"floor", "identity", "separation", "symmetry", "triangle"}
    assert doc["samples"] == 100
    assert doc["seed"] == 1


def test_checker_argument_validation():
    with pytest.raises(ValueError):
        check_mult_axioms(EXP_ABS_METRIC, DOMAIN, 0, seed=1)
    with pytest.raises(ValueError):
        check_gm_axioms(gm_from_exp(usual_metric), Interval(0.0, math.inf), 10, seed=1)


# ---------------------------------------------------------------------------
# relations


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_RELATIONS)), FINITE, FINITE)
@example("==", 1.7976931348623157e308, -1.7976931348623157e308)
@example("==", 1.7976931348623157e308, 1.7976931348623157e308)
def test_relation_slack_is_never_above_slack_and_the_same_on_arrays(relation, lhs, rhs):
    holds = _RELATIONS[relation](lhs, rhs)
    assert type(holds) is bool  # from floats, without numpy
    with np.errstate(over="ignore"):  # "==" of opposite huge sides: inf > SLACK
        assert _RELATIONS[relation](np.array([lhs]), np.array([rhs]))[0] == holds
    absolute = {"<=": lhs <= rhs + SLACK, ">=": lhs >= rhs - SLACK,
                ">": lhs > rhs + SLACK, "==": abs(lhs - rhs) <= SLACK}[relation]
    assert absolute or not holds
    if lhs == rhs:  # also where |lhs| + |rhs| passes the largest float
        assert holds is (relation != ">")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_RELATIONS)), st.sampled_from([math.inf, -math.inf, math.nan]),
       st.floats(), st.booleans())
def test_no_relation_holds_with_a_non_finite_side(relation, bad, other, bad_on_left):
    lhs, rhs = (bad, other) if bad_on_left else (other, bad)
    holds = _RELATIONS[relation](lhs, rhs)
    assert holds is False  # a bool from floats, without numpy
    assert not Witness("r", (), lhs, rhs, relation).holds()
    with np.errstate(invalid="ignore"):  # "==" subtracts inf from inf
        assert not _RELATIONS[relation](np.array([lhs, lhs]), np.array([rhs, rhs])).any()
        assert not _RELATIONS[relation](np.array([lhs]), rhs).any()


# ---------------------------------------------------------------------------
# the floor: ln G >= 0 with no slack

# Slopes, offsets and differences at every scale from subnormal to 1e300,
# signed zeros included
_SCALES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                     1e-300, -1e-300, 1e300, -1e300]),
                    st.floats(min_value=-1e300, max_value=1e300))


@st.composite
def _signed_rows(draw):
    """Contiguous rows over the whole line, so every float difference has one."""
    inner = sorted(draw(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=3,
                                 unique=True)))
    ends = [-math.inf, *inner, math.inf]
    return PiecewiseMap(tuple(PiecewiseRow(lo, hi, draw(_SCALES), draw(_SCALES))
                              for lo, hi in zip(ends, ends[1:])))


def _exact_below_zero(M: PiecewiseMap, t: float) -> bool:
    # the sign of slope * t + offset on t's row, in integer ratios
    return _at(M.rows, *t.as_integer_ratio())[0] < 0


@settings(max_examples=300, deadline=None)
@given(_signed_rows(), st.lists(_SCALES, min_size=1, max_size=8))
@example(PiecewiseMap((PiecewiseRow(-math.inf, math.inf, 0.0, -2e-13),)), [0.0])
@example(PiecewiseMap((PiecewiseRow(-math.inf, math.inf, -1.0, 1e-310),)), [1e-310, 5e-324])
@example(PiecewiseMap((PiecewiseRow(-math.inf, math.inf, 1e300, -1e300),)), [1.0, -1e300])
def test_a_row_value_is_below_zero_only_where_its_exact_value_is(M, ts):
    # apply rounds s * t, then adds o: each rounding is monotone and o a
    # float, so the float is below 0 only where s * t + o is
    with np.errstate(over="ignore"):
        batch = M.batch(np.array(ts)).tolist()
    for t, b in zip(ts, batch):
        value = M.apply(t)
        assert b.hex() == value.hex()
        assert not value < 0.0 or _exact_below_zero(M, t)


@settings(max_examples=300, deadline=None)
@given(_signed_rows(), st.lists(st.tuples(*[_SCALES] * 3), min_size=1, max_size=8))
@example(PiecewiseMap((PiecewiseRow(-math.inf, 0.0, 0.0, -2e-13),
                       PiecewiseRow(0.0, math.inf, 0.0, 0.0))), [(0.0, 0.5, 0.25)])
def test_a_pair_sum_is_below_zero_only_where_an_exact_pair_term_is(M, triples):
    # G is a sum of three pair terms, each M at the float difference of
    # its canonical pair; a sum of floats >= 0 is >= 0
    g = gm_from_product(DifferenceMetric(M))
    x, y, z = (np.array(column) for column in zip(*triples))
    with np.errstate(over="ignore", invalid="ignore"):
        batch = g.batch(x, y, z).tolist()
    for (a, b, c), value in zip(triples, batch):
        assert value.hex() == g(a, b, c).hex()
        if value < 0.0:
            assert any(_exact_below_zero(M, min(u, v) - max(u, v))
                       for u, v in ((a, b), (b, c), (c, a)))


@settings(max_examples=300, deadline=None)
@given(FINITE)
@example(-0.0)
@example(-5e-324)
@example(-SLACK / 2)
@example(-1.7976931348623157e308)
def test_the_recorded_floor_is_the_relation_of_its_witness(v):
    # a value is a floor witness exactly when the ">=" against 0 it
    # records fails on re-checking
    rec = _Recorder(("floor",))
    rec.require_floor(0, (np.array([0.0]),), np.array([v]))
    witness = Witness("floor", (0.0,), v, 0.0, ">=")
    assert rec.counts["floor"] == (not witness.holds())
    assert rec.witnesses() == ((witness,) if rec.counts["floor"] else ())
