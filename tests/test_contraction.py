import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        root_contraction_holds(G, EX33.map, 0.5, 0.1, 0.2, 0.3, m=0)


# ---------------------------------------------------------------------------
# seed condition


def test_seed_condition_stock_parameters():
    assert seed_condition_holds(G, EX33.map, EX33.params)
    assert seed_condition_holds(G, EX37.map, EX37.params)


def test_seed_condition_reference_margins():
    # e^{2/3} ~ 1.9477 and e^{1/3} ~ 1.3956, both below 33/16 = 2.0625
    budget = (1.0 - ETA) * 5.5
    assert budget == 2.0625
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
    assert (1.0 - params.eta) * params.gamma == 0.0
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


def test_implicit_bound_root_scaling():
    b1 = implicit_bound(G, EX37.map, ETA, 0.1, 0.2, 0.3, m=1)
    b3 = implicit_bound(G, EX37.map, ETA, 0.1, 0.2, 0.3, m=3)
    assert b3 == pytest.approx(b1 / 3.0, abs=1e-15)


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
def test_m_independence_of_both_predicates(fixture):
    fx = get_fixture(fixture)
    rng = np.random.default_rng(23)
    for x, y, z in rng.random((1000, 3)) * 5.5:
        root = [root_contraction_holds(G, fx.map, ETA, x, y, z, m=m) for m in (1, 2, 3)]
        impl = [implicit_contraction_holds(G, fx.map, ETA, x, y, z, m=m) for m in (1, 2, 3)]
        assert root[0] == root[1] == root[2]
        assert impl[0] == impl[1] == impl[2]


@st.composite
def pl_configs_and_triples(draw):
    """A PL map on [0, inf) with slopes in [0, 2] and offsets in [0, 3], so
    both outcomes of each condition occur, an eta and a triple."""
    cuts = sorted(set(draw(st.lists(st.floats(min_value=0.01, max_value=10.0), max_size=3))))
    edges = [0.0] + cuts + [None]
    rows = [{"interval": [lo, hi], "slope": draw(st.floats(min_value=0.0, max_value=2.0)),
             "offset": draw(st.floats(min_value=0.0, max_value=3.0))}
            for lo, hi in zip(edges, edges[1:])]
    space = draw(st.sampled_from(["exp-usual", "product-exp"]))
    eta = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    triple = draw(st.tuples(*[st.floats(min_value=0.0, max_value=12.0)] * 3))
    return {"space": space, "map": rows}, eta, triple


@settings(max_examples=200, deadline=None)
@given(pl_configs_and_triples())
def test_m_independence_of_both_predicates_on_random_maps(config):
    doc, eta, (x, y, z) = config
    fx = load_fixture_config(doc)
    for holds in (root_contraction_holds, implicit_contraction_holds):
        first = holds(fx.gmetric, fx.map, eta, x, y, z)
        assert all(holds(fx.gmetric, fx.map, eta, x, y, z, m=m) == first
                   for m in range(1, 11))


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
    params = EX33.params.replace(gamma=1.0)
    report = certify_region(G, EX33.map, params, "root", "ball", 200, seed=7)
    assert report.holds  # only the center is in the ball
    assert not report.seed_condition_ok  # budget (1-eta)*1 < 1


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


# ---------------------------------------------------------------------------
# params and self-map plumbing


def test_params_validation():
    with pytest.raises(ValueError):
        ContractionParams(eta=1.0, gamma=1.0, seed_point=0.0)
    with pytest.raises(ValueError):
        ContractionParams(eta=0.5, gamma=-1.0, seed_point=0.0)
    with pytest.raises(ValueError):
        ContractionParams(eta=0.5, gamma=1.0, seed_point=-0.5)
    with pytest.raises(ValueError):
        ContractionParams(eta=0.5, gamma=1.0, seed_point=0.0, m=0)


def test_params_ball_view():
    ball = EX33.params.ball
    assert ball.center == EX33.params.seed_point
    assert ball.radius == EX33.params.gamma


def test_selfmap_defaults_and_call():
    F = SelfMap(apply=lambda x: x / 2.0, description="halving")
    assert F(3.0) == 1.5
    assert F.domain.contains(1e9)
