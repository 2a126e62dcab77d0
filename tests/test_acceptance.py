"""Acceptance criteria, one test per criterion.

Each test asserts its criterion at the stated tolerance (and runtime
budget where one applies) and prints a one-line PASS on success; a
failed assert is the FAIL line.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the PASS lines).
"""

import math
import time

import numpy as np

from mgmetric import (
    ContractionParams,
    Interval,
    MultMetric,
    GMetric,
    SLACK,
    a_priori_iterations,
    certify_region,
    check_gm_axioms,
    check_gm_properties,
    check_mult_axioms,
    get_fixture,
    gm_from_exp,
    gm_from_product,
    implicit_bound,
    implicit_contraction_holds,
    root_contraction_holds,
    seed_condition_holds,
    solve_fixed_point,
    usual_metric,
    EXP_ABS_METRIC,
)

G = gm_from_exp(usual_metric)
EX33 = get_fixture("ex33")
EX37 = get_fixture("ex37")
EPS = 1e-6


def _report(name, started=None):
    suffix = f" ({time.perf_counter() - started:.3f}s)" if started is not None else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_01_reference_value_regression():
    t0 = time.perf_counter()
    budget = (1.0 - EX33.params.eta) * EX33.params.gamma
    d33 = G.value(1 / 3, EX33.map(1 / 3), EX33.map(1 / 3))
    d37 = G.value(1 / 3, EX37.map(1 / 3), EX37.map(1 / 3))
    elapsed = time.perf_counter() - t0
    assert budget == 2.0625
    assert abs(d33 - 1.9477) <= 1e-4
    assert abs(d37 - 1.3956) <= 1e-4
    assert elapsed < 1e-3, f"took {elapsed:.6f}s, budget 1ms"
    _report("reference-value regression")


def test_02_seed_condition_outcomes():
    assert seed_condition_holds(G, EX33.map, EX33.params) is True
    assert seed_condition_holds(G, EX37.map, EX37.params) is True
    bad = ContractionParams(eta=0.99, gamma=1.0, seed_point=1 / 3)
    assert seed_condition_holds(G, EX33.map, bad) is False
    assert seed_condition_holds(G, EX37.map, bad) is False
    _report("seed condition outcomes")


def test_03_root_region_scan():
    t0 = time.perf_counter()
    holds = certify_region(G, EX33.map, EX33.params, "root",
                           Interval(0.0, 0.3333), 10_000, seed=7)
    assert holds.verdict == "holds-on-sample"
    assert holds.violations == 0
    violated = certify_region(G, EX33.map, EX33.params, "root",
                              Interval(0.34, 5.5), 10_000, seed=7)
    assert violated.verdict == "violated"
    w = violated.witnesses[0]
    x, y, z = w.points
    assert len({x, y, z}) >= 2
    assert G(EX33.map(x), EX33.map(y), EX33.map(z)) > 0.625 * G(x, y, z) + SLACK
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _report("root-condition region scan", t0)


def test_04_implicit_region_scan():
    t0 = time.perf_counter()
    holds = certify_region(G, EX37.map, EX37.params, "implicit",
                           Interval(0.001, 0.499), 10_000, seed=7)
    assert holds.violations == 0
    violated = certify_region(G, EX37.map, EX37.params, "implicit",
                              Interval(0.5, 5.5), 10_000, seed=7)
    assert violated.verdict == "violated"
    assert violated.witnesses
    # the named witness triple, both sides pinned to 1e-12
    lhs = G(EX37.map(1.0), EX37.map(2.0), EX37.map(1.0))
    bound = implicit_bound(G, EX37.map, 0.625, 1.0, 2.0, 1.0)
    assert abs(lhs - 2.0) <= 1e-12
    assert abs(bound - 1.25) <= 1e-12
    assert not implicit_contraction_holds(G, EX37.map, 0.625, 1.0, 2.0, 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _report("implicit-condition region scan", t0)


def test_05_solver_quarter_shift_exact():
    r = solve_fixed_point(G, EX33.map, EX33.params, epsilon=EPS)
    assert r.point == 0.0
    assert r.iterations_used == 1
    assert r.residual_log == 0.0
    _report("one-step solve on the quarter-shift fixture")


def test_06_solver_half_shift_certified_bound():
    r = solve_fixed_point(G, EX37.map, EX37.params, epsilon=EPS)
    assert r.residual_log <= math.log1p(EPS)
    assert r.certified_bound == 30
    assert r.iterations_used <= r.certified_bound
    assert a_priori_iterations(1 / 3, 5 / 8, EPS) == 30
    # brute-force scan of the geometric tail over j = 0..100
    tol = math.log1p(EPS)
    scan = next(j for j in range(101)
                if (0.625 ** j) * (1 / 3) / (1 - 0.625) <= tol)
    assert scan == 30
    _report("certified solve on the half-shift fixture")


def test_07_step_bound_soundness():
    r = solve_fixed_point(G, EX37.map, EX37.params, epsilon=EPS)
    first = r.trace.step_logs[0]
    for j, step in enumerate(r.trace.step_logs):
        assert step <= (0.625 ** j) * first + 1e-12
    _report("per-step geometric bound soundness")


def test_08_axiom_suites():
    t0 = time.perf_counter()
    domain = Interval(0.0, 10.0)
    for g in (gm_from_exp(usual_metric), gm_from_product(EXP_ABS_METRIC)):
        axioms = check_gm_axioms(g, domain, 10_000, seed=7)
        assert axioms.passed
        assert all(v == 0 for v in axioms.violations.values())
        props = check_gm_properties(g, domain, 10_000, seed=7)
        assert props.passed
        assert all(v == 0 for v in props.violations.values())
    assert check_mult_axioms(EXP_ABS_METRIC, domain, 10_000, seed=7).passed

    # planted broken metric 1: unsymmetrized signed exponent
    broken_pair = MultMetric(dist=lambda x, y: x - y)
    rep1 = check_mult_axioms(broken_pair, domain, 1000, seed=7)
    assert rep1.axioms["symmetry"] == "fail" and rep1.axioms["floor"] == "fail"
    w = next(w for w in rep1.witnesses if w.rule == "floor")
    assert broken_pair(*w.points) < -SLACK and not w.holds()

    # planted broken metric 2: third argument ignored
    broken_triple = GMetric(g=lambda x, y, z: abs(x - y))
    rep2 = check_gm_axioms(broken_triple, domain, 1000, seed=7)
    assert rep2.axioms["separation"] == "fail"
    w = next(w for w in rep2.witnesses if w.rule == "separation")
    assert w.points[0] == w.points[1] != w.points[2]
    assert broken_triple(*w.points) <= SLACK and not w.holds()

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"
    _report("axiom suites with planted failures", t0)


def test_09_m_independence():
    rng = np.random.default_rng(41)
    for fx in (EX33, EX37):
        for x, y, z in rng.random((1000, 3)) * 5.5:
            root = {root_contraction_holds(G, fx.map, 0.625, x, y, z, m=m)
                    for m in (1, 2, 3)}
            impl = {implicit_contraction_holds(G, fx.map, 0.625, x, y, z, m=m)
                    for m in (1, 2, 3)}
            assert len(root) == 1
            assert len(impl) == 1
    _report("root-index independence of both predicates")


def test_10_uniqueness_surrogate():
    for fx in (EX33, EX37):
        ball_log = math.log(fx.params.gamma)
        seeds = np.linspace(0.0, 1.18, 10)
        points = []
        for s in seeds:
            assert G(fx.params.seed_point, s, s) <= ball_log
            params = fx.params.replace(seed_point=float(s))
            assert seed_condition_holds(G, fx.map, params)
            r = solve_fixed_point(G, fx.map, params, epsilon=EPS)
            points.append(r.point)
        for p in points:
            for q in points:
                assert G(p, q, q) <= 2 * EPS
    _report("uniqueness surrogate across admissible seeds")
