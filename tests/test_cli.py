import contextlib
import errno
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from mgmetric import Witness, cli, load_fixture_config
from mgmetric.cli import main
from test_contraction import IDENTITY, LEAVES_BALL
from test_golden import GOLDEN, README_COMMANDS, _imported_modules


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# axioms


def test_axioms_valid_fixture_passes(capsys):
    code, doc, err = run_json(capsys, "axioms", "--fixture", "exp-usual",
                              "--n", "1000", "--seed", "7")
    assert code == 0
    assert doc["passed"] is True
    assert set(doc["reports"]) == {"gm", "properties"}
    assert "all pass" in err


def test_axioms_product_fixture_includes_mult_suite(capsys):
    code, doc, _ = run_json(capsys, "axioms", "--fixture", "product-exp",
                            "--n", "500", "--seed", "7")
    assert code == 0
    assert set(doc["reports"]) == {"mult", "gm", "properties"}


def test_axioms_unknown_fixture_usage_error(capsys):
    code, out, err = run_cli(capsys, "axioms", "--fixture", "nope")
    assert (code, out) == (2, "")
    last = err.splitlines()[-1]
    assert "argument --fixture: invalid choice: 'nope'" in last
    for fixture_id in ("ex33", "ex37", "exp-usual", "product-exp"):
        assert fixture_id in last


def test_axioms_broken_config_reports_symmetry_witness(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({
        "space": {"kind": "product-pl",
                  "rows": [{"interval": [None, None], "slope": 1.0, "offset": 0.0}]},
    }))
    code, doc, _ = run_json(capsys, "axioms", "--config", str(cfg),
                            "--n", "500", "--seed", "7")
    assert code == 1
    assert doc["reports"]["mult"]["axioms"]["symmetry"] == "fail"
    witnesses = doc["reports"]["mult"]["witnesses"]
    assert any(w["rule"] == "symmetry" for w in witnesses)


def test_axioms_rejects_ball_region(capsys):
    code, _, err = run_cli(capsys, "axioms", "--fixture", "exp-usual",
                           "--region", "ball")
    assert code == 2


# ---------------------------------------------------------------------------
# certify


def test_certify_root_holds_below_breakpoint(capsys):
    code, doc, _ = run_json(capsys, "certify", "--fixture", "ex33",
                            "--condition", "root", "--region", "0:0.3333",
                            "--n", "10000", "--seed", "7")
    assert code == 0
    assert doc["verdict"] == "holds-on-sample"
    assert doc["seed_condition_ok"] is True


def test_certify_root_violated_above_breakpoint(capsys):
    code, doc, err = run_json(capsys, "certify", "--fixture", "ex33",
                              "--condition", "root", "--region", "0.34:5.5",
                              "--n", "10000", "--seed", "7")
    assert code == 1
    assert doc["verdict"] == "violated"
    assert doc["witnesses"]
    assert "first witness" in err


def test_certify_implicit_holds_on_halving_cell(capsys):
    code, doc, _ = run_json(capsys, "certify", "--fixture", "ex37",
                            "--condition", "implicit", "--region", "0.001:0.499",
                            "--n", "10000", "--seed", "7")
    assert code == 0
    assert doc["violations"] == 0


def test_certify_empty_ball_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "certify", "--fixture", "ex33",
                             "--condition", "root", "--region", "ball",
                             "--gamma", "0.5")
    assert code == 2
    assert "empty region" in err


# a product-pl space whose M is |t| + 1: G(c, c, c) = 3 M(0) = 3 > ln 5.5
SHIFTED_ABS = {"space": {"kind": "product-pl", "rows": [
    {"interval": [None, 0], "slope": -1, "offset": 1},
    {"interval": [0, None], "slope": 1, "offset": 1}]},
    "map": [{"interval": [0, None], "slope": 0.5, "offset": 0}],
    "params": {"eta": 0.625, "gamma": 5.5, "x0": 1}}


@pytest.mark.parametrize("source, reason", [
    (("--fixture", "ex33", "--gamma", "0.5"),
     "ball(center=0.3333333333333333, radius=0.5) does not hold its centre, whose "
     "log-distance to itself, 0.0, is above ln(gamma) = -0.6931471805599453"),
    (("--config", SHIFTED_ABS),
     "ball(center=1.0, radius=5.5) does not hold its centre, whose log-distance to itself, "
     "3.0, is above ln(gamma) = 1.7047480922384253"),
], ids=["ex33", "product-pl"])
def test_an_empty_ball_names_its_centre_log_distance(capsys, tmp_path, source, reason):
    if source[0] == "--config":
        cfg = tmp_path / "shifted.json"
        cfg.write_text(json.dumps(source[1]))
        source = ("--config", str(cfg))
    code, out, err = run_cli(capsys, "certify", *source, "--condition", "root",
                             "--region", "ball", "--n", "10")
    assert code == 2
    assert out == ""
    assert err == f"error: empty region: {reason}\n"


@pytest.mark.parametrize("argv", [
    ("certify", "--fixture", "ex33", "--condition", "root", "--region", "0:1", "--n", "10"),
    ("axioms", "--fixture", "exp-usual", "--n", "10"),
], ids=["certify", "axioms"])
def test_a_negative_seed_is_named(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_certify_requires_condition(capsys):
    code, _, _ = run_cli(capsys, "certify", "--fixture", "ex33")
    assert code == 2


def test_certify_fixture_without_map(capsys):
    code, _, err = run_cli(capsys, "certify", "--fixture", "exp-usual",
                           "--condition", "root")
    assert code == 2
    assert "no self-map" in err


def _write_config(tmp_path, doc) -> str:
    cfg = tmp_path / "fixture.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


# F doubles every distance; an absolute slack of 1e-12 certified it on
# regions narrower than about 1e-13, where the slack swamps the sides
DOUBLING = {"space": "exp-usual", "map": [{"interval": [0, None], "slope": 2, "offset": 0}],
            "params": {"eta": 0.5, "gamma": 4, "x0": 1e-14}}
# M(t) = |t| - 1e-13, so d(x, x) = e^(-1e-13) < 1: identity fails
SUNKEN_ABS = {"space": {"kind": "product-pl", "rows": [
    {"interval": [None, 0], "slope": -1, "offset": -1e-13},
    {"interval": [0, None], "slope": 1, "offset": -1e-13}]}}


def test_a_map_that_doubles_distances_does_not_certify_a_narrow_region(capsys, tmp_path):
    code, doc, err = run_json(capsys, "certify", "--config", _write_config(tmp_path, DOUBLING),
                              "--condition", "root", "--region", "0:1e-13", "--n", "1000")
    assert code == 1
    assert doc["verdict"] == "violated"
    assert "first witness" in err


def test_a_self_distance_just_below_one_fails_identity(capsys, tmp_path):
    code, doc, err = run_json(capsys, "axioms", "--config", _write_config(tmp_path, SUNKEN_ABS),
                              "--region", "0:10", "--n", "1000")
    assert code == 1
    assert {name: r["axioms"]["identity"] for name, r in doc["reports"].items()} == \
        {"mult": "fail", "gm": "fail", "properties": "fail"}


# M(t) is 2e-13 below 0 left of 0, so G(x, y, y) = e^(-4e-13) < 1 for
# x < y: a floor 1e-12 below 0 certified x/2 on [0, 1] and took its seed
# 0.5 for a fixed point
JUST_BELOW_FLOOR = str(Path(__file__).with_name("data") / "just_below_floor.json")
CERTIFY_JUST_BELOW_FLOOR = ("certify", "--config", JUST_BELOW_FLOOR, "--condition", "root",
                            "--region", "0:1", "--n", "1000")


def test_a_distance_just_below_one_voids_the_certificate(capsys):
    code, doc, err = run_json(capsys, *CERTIFY_JUST_BELOW_FLOOR)
    assert code == 1
    assert (doc["verdict"], doc["seed_condition_ok"]) == ("violated", False)
    assert {w["rule"] for w in doc["witnesses"]} == {"floor"}
    assert all(not Witness(**w).holds() for w in doc["witnesses"])
    assert "\n  seed condition: violated\n" in err


def test_a_distance_just_below_one_is_no_fixed_point(capsys):
    code, doc, err = run_json(capsys, "solve", "--config", JUST_BELOW_FLOOR)
    assert code == 1
    assert "point" not in doc
    assert doc["error"] == {
        "type": "BelowFloor",
        "message": "step 0 from iterate 0.5 has log-distance -4e-13 below the floor 0"}
    assert err.startswith("solve config: BelowFloor: ")


# eta 0.5 and gamma 2 give the budget ln 1 = 0 exactly, and the seed 1 is
# 3.3e-13 from the fixed point: a budget with a whole SLACK admitted it
SEED_ABOVE_BUDGET = str(Path(__file__).with_name("data") / "seed_step_above_budget.json")
CERTIFY_SEED_ABOVE_BUDGET = ("certify", "--config", SEED_ABOVE_BUDGET, "--condition", "root",
                             "--region", "0:2", "--n", "1000")


def test_a_seed_step_just_above_the_budget_voids_the_certificate(capsys):
    code, doc, err = run_json(capsys, *CERTIFY_SEED_ABOVE_BUDGET)
    assert code == 1
    assert (doc["verdict"], doc["seed_condition_ok"]) == ("holds-on-sample", False)
    assert "\n  seed condition: violated\n" in err


def test_a_seed_step_just_above_the_budget_is_no_solve(capsys):
    code, doc, err = run_json(capsys, "solve", "--config", SEED_ABOVE_BUDGET)
    assert code == 1
    assert "point" not in doc
    assert doc["error"]["type"] == "SeedConditionViolated"
    assert doc["error"]["message"].endswith(
        "the budget ln((1 - 0.5) * 2.0) or within a few ulps of it")
    assert err.startswith("solve config: SeedConditionViolated: ")


@pytest.mark.parametrize("argv,marker", [(CERTIFY_SEED_ABOVE_BUDGET, "seed condition: violated"),
                                         (("solve", "--config", SEED_ABOVE_BUDGET),
                                          "SeedConditionViolated")], ids=["certify", "solve"])
def test_a_seed_step_just_above_the_budget_exits_one_as_a_module(argv, marker):
    proc = subprocess.run([sys.executable, "-m", "mgmetric", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert marker in proc.stderr


# Two product-pl spaces whose certified steps are -2e-400 exactly, which
# rounds to -0.0: the last step of an orbit from 2 to 1, where F(1) =
# 1 + 1e-200 rounds back to 1, and the seed step of x + 1e-200 at 1.
LAST_STEP_BELOW_FLOOR = str(Path(__file__).with_name("data") / "last_step_below_floor.json")
SEED_STEP_BELOW_FLOOR = str(Path(__file__).with_name("data") / "seed_step_below_floor.json")


@pytest.mark.parametrize("config,index", [(LAST_STEP_BELOW_FLOOR, 1), (SEED_STEP_BELOW_FLOOR, 0)],
                         ids=["last-step", "seed-step"])
def test_a_certified_step_below_the_floor_is_no_solve(capsys, config, index):
    code, doc, err = run_json(capsys, "solve", "--config", config)
    assert code == 1
    assert "point" not in doc
    assert doc["error"]["type"] == "BelowFloor"
    message = doc["error"]["message"]
    prefix = f"step {index} from iterate 1.0 has log-distance "
    assert message.startswith(prefix) and message.endswith(" below the floor 0")
    # rounded toward -inf, the step log re-checks below the floor
    assert float(message[len(prefix):].split()[0]) < 0
    assert err.startswith("solve config: BelowFloor: ")


# The exact residual of x + 1.4999992500005002e-06 at 1e17 in a product-pl
# space of slope 1/3 is just above log1p(1e-6), and rounds to it.
INEXACT_AT_TOLERANCE = str(Path(__file__).with_name("data") / "inexact_at_tolerance.json")


def test_an_inexact_residual_is_reported_above_the_tolerance(capsys):
    code, doc, err = run_json(capsys, "solve", "--config", INEXACT_AT_TOLERANCE)
    assert code == 1
    assert "point" not in doc
    assert doc["error"]["type"] == "InexactFixedPoint"
    message = doc["error"]["message"]
    prefix = "iterate 0 = 1e+17 has exact residual log "
    assert message.startswith(prefix) and message.endswith(" to its image, above the tolerance")
    # rounded toward +inf, the exact residual re-checks above the tolerance
    assert float(message[len(prefix):].split()[0]) > math.log1p(1e-6)
    assert err.startswith("solve config: InexactFixedPoint: ")


# A product-pl space whose pair distance is -1 at differences in (-1, 0),
# below the floor, and the map 10 x: on [0, 0.5] most samples fail both
# the root condition and the floor, by the triple or by its image.
FLOOR_AND_CONDITION = str(Path(__file__).with_name("data") / "floor_and_condition.json")
CERTIFY_FLOOR_AND_CONDITION = ("certify", "--config", FLOOR_AND_CONDITION, "--condition", "root",
                               "--region", "0:0.5", "--n", "100")


def test_a_sample_meets_its_floor_witnesses_before_its_condition_witness(capsys):
    code, doc, err = run_json(capsys, *CERTIFY_FLOOR_AND_CONDITION)
    assert (code, doc["violations"]) == (1, 216)
    witnesses = [Witness(**w) for w in doc["witnesses"]]
    assert all(not w.holds() for w in witnesses)
    assert [(w.rule, w.points[0]) for w in witnesses[:4]] == [
        ("floor", 0), ("root", 0), ("floor", 0.5), ("root", 0.5)]
    assert err.splitlines()[2] == "  first witness: (0, 0.5, 0) lhs=-2 rhs=0"
    # a floor witness is of a sample's triple or of its image; where the
    # sample has a root witness too, the floor witness comes first
    F = load_fixture_config(FLOOR_AND_CONDITION).map
    triples = [tuple(w.points) for w in witnesses]
    pairs = [(k, r) for k, w in enumerate(witnesses) if w.rule == "floor"
             for r, v in enumerate(witnesses) if v.rule == "root"
             and triples[k] in (triples[r], tuple(map(F.apply, triples[r])))]
    assert len(pairs) >= 20 and all(k < r for k, r in pairs)


# a map without params: certify and solve take all three from the overrides
UNPARAMETRISED = {"space": "exp-usual",
                  "map": [{"interval": [0, None], "slope": 0.5, "offset": 0}]}
RUNS_THE_MAP = [("certify", "--condition", "root", "--n", "100"), ("solve",)]


@pytest.mark.parametrize("command", RUNS_THE_MAP, ids=["certify", "solve"])
@pytest.mark.parametrize("overrides", [
    (), ("--eta", "0.6", "--gamma", "4"), ("--gamma", "4", "--x0", "0.1"),
    ("--eta", "0.6", "--x0", "0.1"),
], ids=["none", "no-x0", "no-eta", "no-gamma"])
def test_a_fixture_without_params_needs_all_three_overrides(capsys, tmp_path, command,
                                                             overrides):
    code, out, err = run_cli(capsys, command[0], "--config",
                             _write_config(tmp_path, UNPARAMETRISED), *command[1:], *overrides)
    assert (code, out) == (2, "")
    assert err == "error: fixture 'config' carries no parameters; pass --eta, --gamma and --x0\n"


@pytest.mark.parametrize("command", RUNS_THE_MAP, ids=["certify", "solve"])
def test_a_fixture_without_params_runs_on_the_three_overrides(capsys, tmp_path, command):
    code, doc, _ = run_json(capsys, command[0], "--config",
                            _write_config(tmp_path, UNPARAMETRISED), *command[1:],
                            "--eta", "0.6", "--gamma", "4", "--x0", "0.1")
    assert code == 0
    assert doc["command"] == command[0]


# ---------------------------------------------------------------------------
# solve


def test_solve_quarter_shift(capsys):
    code, doc, _ = run_json(capsys, "solve", "--fixture", "ex33",
                            "--mode", "root", "--epsilon", "1e-6")
    assert code == 0
    assert doc["point"] == 0
    assert doc["iterations_used"] == 1
    assert doc["residual_log"] == 0


def test_solve_halving_orbit(capsys):
    code, doc, _ = run_json(capsys, "solve", "--fixture", "ex37",
                            "--mode", "root", "--epsilon", "1e-6")
    assert code == 0
    assert doc["point"] <= 1e-6
    assert doc["iterations_used"] <= 30
    assert doc["certified_bound"] == 30


def test_solve_implicit_flags_uncertified_rate(capsys):
    code, doc, err = run_json(capsys, "solve", "--fixture", "ex37",
                              "--mode", "implicit", "--epsilon", "1e-6")
    assert code == 0
    assert doc["mu"] == pytest.approx(5 / 3)
    assert doc["mu_class"] == "at_least_one"
    assert doc["certified_bound"] is None
    assert "uncertified rate" in err


def test_solve_seed_the_float_map_fixes_is_inexact(capsys):
    # x - 1/3 rounds back to 1e17: the float map fixes the seed, the map does not
    code, doc, err = run_json(capsys, "solve", "--fixture", "ex33", "--x0", "1e17")
    assert code == 1
    assert doc["error"]["type"] == "InexactFixedPoint"
    assert "InexactFixedPoint" in err


# |x - y| as two product-pl rows, with ex33's translation x - 1/3 and a
# seed where it rounds away
ABSORBED_PL = {
    "space": {"kind": "product-pl", "rows": [
        {"interval": [None, 0], "slope": -1, "offset": 0},
        {"interval": [0, None], "slope": 1, "offset": 0}]},
    "map": [{"interval": [0, None], "slope": 1, "offset": -1 / 3}],
    "params": {"eta": 0.625, "gamma": 5.5, "x0": 1e17},
}


def test_solve_product_pl_seed_the_float_map_fixes_is_inexact(capsys, tmp_path):
    cfg = tmp_path / "absorbed.json"
    cfg.write_text(json.dumps(ABSORBED_PL))
    code, doc, err = run_json(capsys, "solve", "--config", str(cfg))
    assert code == 1
    assert doc["error"]["type"] == "InexactFixedPoint"
    assert "exact residual log 0.6666666666666666" in doc["error"]["message"]
    assert "InexactFixedPoint" in err


def test_solve_at_the_smallest_epsilon_certifies_its_bound(capsys, tmp_path):
    # tol / tail0 underflows to 0 here, so the a-priori bound must not
    # take its log ("math domain error", exit 2)
    cfg = tmp_path / "tiny-epsilon.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, None], "slope": 0, "offset": 0}],
        "params": {"eta": 0.625, "gamma": 1e10, "x0": 1}}))
    code, doc, err = run_json(capsys, "solve", "--config", str(cfg), "--epsilon", "5e-324")
    assert code == 0
    assert doc["rate_certified"] is True
    assert doc["certified_bound"] == 1586
    assert "certified bound: 1586" in err


def test_solve_with_a_slow_rate_and_a_subnormal_tolerance_ends(tmp_path):
    # the a-priori bound is about 7.2e10 steps; where the tail is
    # subnormal the closed form misses it by about 4e8, too far to walk
    # one step at a time
    cfg = tmp_path / "slow-rate.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, None], "slope": 0, "offset": 0}],
        "params": {"eta": 0.999999999, "gamma": 1e10, "x0": 1e-301}}))
    proc = subprocess.run([sys.executable, "-m", "mgmetric", "solve", "--config", str(cfg),
                           "--epsilon", "5e-324"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["certified_bound"] == 72372908879


def test_no_solve_imports_fractions(tmp_path):
    # the exact view of both spaces works in integer ratios
    proc, imported = _imported_modules("-m", "mgmetric", "solve", "--fixture", "ex33",
                                       "--x0", "1e17")
    assert proc.returncode == 1 and "fractions" not in imported
    cfg = tmp_path / "absorbed.json"
    cfg.write_text(json.dumps(ABSORBED_PL))
    proc, imported = _imported_modules("-m", "mgmetric", "solve", "--config", str(cfg))
    assert proc.returncode == 1 and "fractions" not in imported


# The translation x - 1 rounds away at the seed 1e17, where the floats are
# 16 apart: the float seed step is 0, the exact one 2 > ln 2.0625
ABSORBED_SEED = {
    "space": "exp-usual",
    "map": [{"interval": [0, None], "slope": 1, "offset": -1}],
    "params": {"eta": 0.625, "gamma": 5.5, "x0": 1e17},
}


def test_certify_rejects_a_seed_step_the_float_map_absorbs(capsys, tmp_path):
    cfg = tmp_path / "absorbed-seed.json"
    cfg.write_text(json.dumps(ABSORBED_SEED))
    code, doc, err = run_json(capsys, "certify", "--config", str(cfg), "--condition", "root",
                              "--region", "ball", "--n", "100")
    assert code == 1
    assert doc["seed_condition_ok"] is False
    assert "seed condition: violated" in err
    # ex33's x - 1/3 also rounds away at 1e17, but its exact seed step
    # 2/3 is within the budget
    _, doc, _ = run_json(capsys, "certify", "--fixture", "ex33", "--x0", "1e17",
                         "--condition", "root", "--region", "ball", "--n", "100")
    assert doc["seed_condition_ok"] is True


def test_solve_rejects_a_seed_step_the_float_map_absorbs(capsys, tmp_path):
    cfg = tmp_path / "absorbed-seed.json"
    cfg.write_text(json.dumps(ABSORBED_SEED))
    code, doc, err = run_json(capsys, "solve", "--config", str(cfg))
    assert code == 1
    assert doc["error"]["type"] == "SeedConditionViolated"
    assert "log-distance 2.0 to its image" in doc["error"]["message"]
    assert "SeedConditionViolated" in err


def test_solve_seed_violation_exits_one(capsys):
    code, doc, err = run_json(capsys, "solve", "--fixture", "ex33",
                              "--eta", "0.99", "--gamma", "1")
    assert code == 1
    assert doc["error"]["type"] == "SeedConditionViolated"
    assert "SeedConditionViolated" in err


def test_solve_nan_epsilon_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--fixture", "ex33", "--epsilon", "nan")
    assert code == 2
    assert out == ""
    assert "epsilon" in err


@pytest.mark.parametrize("field,literal", [("slope", "NaN"), ("offset", "Infinity"),
                                           ("offset", "-Infinity")])
def test_non_finite_config_row_is_usage_error(capsys, tmp_path, field, literal):
    row = {"interval": [0.0, None], "slope": 0.5, "offset": 0.0}
    text = json.dumps({"space": "exp-usual", "map": [row],
                       "params": {"eta": 0.625, "gamma": 5.5, "x0": 0.5}})
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(text.replace(f'"{field}": {row[field]}', f'"{field}": {literal}'))
    assert literal in cfg.read_text()
    code, out, err = run_cli(capsys, "certify", "--config", str(cfg), "--condition", "root",
                             "--region", "0:1", "--n", "10")
    assert code == 2
    assert out == ""
    assert "finite" in err


def _bounded_map_config(tmp_path):
    # one half-open row [0, 1): the right end 1 is not in the map's domain
    cfg = tmp_path / "bounded.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, 1], "slope": 0.5, "offset": 0}],
        "params": {"eta": 0.6, "gamma": 10, "x0": 1},
    }))
    return str(cfg)


def test_solve_seed_at_open_right_end_is_domain_exit(capsys, tmp_path):
    code, doc, err = run_json(capsys, "solve", "--config", _bounded_map_config(tmp_path))
    assert code == 1
    assert doc["error"]["type"] == "DomainExit"
    assert "DomainExit" in err


def test_certify_ball_stops_below_open_right_end(capsys, tmp_path):
    # the ball around 0.5 reaches past 1; its probe must stay inside [0, 1)
    code, doc, _ = run_json(capsys, "certify", "--config", _bounded_map_config(tmp_path),
                            "--condition", "root", "--region", "ball", "--x0", "0.5",
                            "--n", "200")
    assert code == 0
    assert doc["verdict"] == "holds-on-sample"
    assert doc["samples"] > 0


@pytest.mark.parametrize("region", ["0:0.5", "ball"])
def test_certify_seed_outside_domain_reports_seed_violation(capsys, tmp_path, region):
    # x0 = 1 is the open right end: the seed has no image, the sweep still runs
    code, doc, err = run_json(capsys, "certify", "--config", _bounded_map_config(tmp_path),
                              "--condition", "root", "--region", region, "--n", "200")
    assert code == 1
    assert doc["seed_condition_ok"] is False
    assert doc["verdict"] == "holds-on-sample"
    assert "seed condition: violated" in err


def test_certify_ball_outside_domain_is_empty_region(capsys, tmp_path):
    # the ball of radius 10 around 5 ends above 3.8, past the domain [0, 1)
    code, out, err = run_cli(capsys, "certify", "--config", _bounded_map_config(tmp_path),
                             "--condition", "root", "--region", "ball", "--x0", "5")
    assert code == 2
    assert out == ""
    assert "does not meet the map's domain" in err


def test_certify_ball_with_no_sampled_point_in_the_domain_is_empty_region(capsys, tmp_path):
    # the ball [0.25, 0.75] lies left of the domain [1, inf): no draw of
    # the probe interval lands in it
    cfg = tmp_path / "left.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual", "map": [{"interval": [1, None], "slope": 0.5, "offset": 0.5}],
        "params": {"eta": 0.5, "gamma": 1.6487212707001282, "x0": 0.5}}))
    code, out, err = run_cli(capsys, "certify", "--config", str(cfg), "--condition", "root",
                             "--region", "ball", "--n", "100")
    assert code == 2
    assert out == ""
    assert err == ("error: empty region: no sampled point lies in "
                   "ball(center=0.5, radius=1.6487212707001282)\n")


def test_certify_infinite_metric_values_exit_two(tmp_path):
    # the identity map: g overflows to inf on the region, which is no
    # contraction, and a report cannot carry it
    cfg = tmp_path / "identity.json"
    cfg.write_text(json.dumps(IDENTITY))
    proc = subprocess.run([sys.executable, "-m", "mgmetric", "certify", "--config", str(cfg),
                           "--condition", "root", "--region", "0:1.7e308", "--n", "1",
                           "--seed", "8"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: non-finite float inf is not representable in a report\n"


def test_axioms_overflowing_metric_exits_two_without_warnings():
    # the perimeter and the rules' sums overflow to inf on this region;
    # they fail their rules quietly, and only the report's error is shown
    proc = subprocess.run([sys.executable, "-m", "mgmetric", "axioms", "--fixture", "exp-usual",
                           "--region", "0:1.7e308", "--n", "100"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: non-finite float inf is not representable in a report\n"


def test_certify_ball_the_map_leaves_exits_one(capsys, tmp_path):
    cfg = tmp_path / "leaves.json"
    cfg.write_text(json.dumps(LEAVES_BALL))
    code, doc, err = run_json(capsys, "certify", "--config", str(cfg), "--condition", "root",
                              "--region", "ball", "--n", "10000")
    assert code == 1
    assert doc["verdict"] == "violated" and doc["seed_condition_ok"] is True
    assert doc["witnesses"] and {w["rule"] for w in doc["witnesses"]} == {"invariance"}
    for w in doc["witnesses"]:
        assert not Witness(w["rule"], tuple(w["points"]), w["lhs_log"], w["rhs_log"],
                           w["relation"]).holds()
    assert "violated" in err


def test_solve_overflowing_orbit_is_domain_exit(capsys, tmp_path):
    # x -> 4x from 1 reaches inf after 512 steps; inf is in no domain
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, None], "slope": 4, "offset": 0}],
        "params": {"eta": 0.5, "gamma": 1e300, "x0": 1},
    }))
    code, doc, err = run_json(capsys, "solve", "--config", str(cfg), "--max-iter", "2000")
    assert code == 1
    assert doc["error"] == {"type": "DomainExit",
                            "message": "iterate 512 = inf left the map's domain"}
    assert "DomainExit" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_infinite_epsilon_is_usage_error(capsys, fmt):
    # an infinite tolerance certifies nothing: rejected before any work
    code, out, err = run_cli(capsys, "solve", "--fixture", "ex33", "--epsilon", "inf",
                             "--format", fmt)
    assert code == 2
    assert out == ""
    assert "epsilon" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_non_finite_step_is_reported(capsys, tmp_path, fmt):
    # 1.5 -> 1e308 -> 0.5: both steps overflow to a residual of inf, then
    # the orbit converges; the first such step ends the solve
    cfg = tmp_path / "overflowing-step.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, 1], "slope": 0.5, "offset": 0},
                {"interval": [1, 2], "slope": 0, "offset": 1e308},
                {"interval": [2, 10], "slope": 0, "offset": 1.5},
                {"interval": [10, None], "slope": 0, "offset": 0.5}],
        "params": {"eta": 0.5, "gamma": 1e3, "x0": 3},
    }))
    code, doc, err = run_json(capsys, "solve", "--config", str(cfg), "--format", fmt)
    assert code == 1
    assert doc["error"] == {
        "type": "NonFiniteStep",
        "message": "step 1 from iterate 1.5 has non-finite log-distance inf"}
    assert err == ("solve config: NonFiniteStep: step 1 from iterate 1.5 has non-finite "
                   "log-distance inf\n")


# A product-pl space whose pair log-distance is -1 everywhere, so
# ln G = -3 on every triple: below the floor ln 1 = 0.
BELOW_FLOOR_CONFIG = {
    "space": {"kind": "product-pl",
              "rows": [{"interval": [None, None], "slope": 0, "offset": -1}]},
    "map": [{"interval": [0, None], "slope": 1, "offset": 5}],
    "params": {"eta": 0.5, "gamma": 10, "x0": 3},
}


@pytest.mark.parametrize("mode", ["root", "implicit"])
def test_solve_below_floor_residual_is_reported(capsys, tmp_path, mode):
    # F(3) = 8, yet the residual g(3, 8, 8) = -3 is below any tolerance
    cfg = tmp_path / "below-floor.json"
    cfg.write_text(json.dumps(BELOW_FLOOR_CONFIG))
    code, doc, err = run_json(capsys, "solve", "--config", str(cfg), "--mode", mode,
                              "--eta", "0.6")
    assert code == 1
    assert "point" not in doc
    assert doc["error"] == {
        "type": "BelowFloor",
        "message": "step 0 from iterate 3.0 has log-distance -3.0 below the floor 0"}
    assert err.startswith("solve config: BelowFloor: ")


@pytest.mark.parametrize("condition", ["root", "implicit"])
def test_certify_below_floor_metric_is_violated(capsys, tmp_path, condition):
    # both sides of the condition are negative and the condition holds;
    # every metric value it used is below the floor
    cfg = tmp_path / "below-floor.json"
    cfg.write_text(json.dumps(BELOW_FLOOR_CONFIG))
    code, doc, _ = run_json(capsys, "certify", "--config", str(cfg), "--condition", condition,
                            "--region", "0:10", "--n", "100")
    assert code == 1
    assert doc["verdict"] == "violated"
    assert doc["violations"] > 0
    assert {w["rule"] for w in doc["witnesses"]} == {"floor"}
    for w in doc["witnesses"]:
        assert (w["lhs_log"], w["rhs_log"], w["relation"]) == (-3.0, 0.0, ">=")
    # g(3, 8, 8) = -3 is below the floor too, not within the seed budget
    assert doc["seed_condition_ok"] is False


def test_solve_does_not_certify_a_rate_the_map_breaks(capsys, tmp_path):
    # x -> 0.9x contracts each step by 0.9, not by eta = 0.5: the bound 19
    # computed from eta is wrong, since the orbit needs 116 steps
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, None], "slope": 0.9, "offset": 0}],
        "params": {"eta": 0.5, "gamma": 10, "x0": 1},
    }))
    code, doc, err = run_json(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert doc["iterations_used"] == 116
    assert (doc["rate"], doc["rate_certified"], doc["certified_bound"]) == (0.5, False, None)
    assert "certified bound: none (uncertified rate 0.5)" in err


@pytest.mark.parametrize("flag,value,name", [("--gamma", "-1", "gamma"),
                                             ("--gamma", "nan", "gamma"),
                                             ("--x0", "-0.5", "seed point"),
                                             ("--x0", "inf", "seed point")])
@pytest.mark.parametrize("command", [["solve"], ["certify", "--condition", "root"]])
def test_bad_ball_override_is_usage_error(capsys, command, flag, value, name):
    code, out, err = run_cli(capsys, *command, "--fixture", "ex33", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ball ") and name in err


def test_solve_underflowing_seed_budget_is_seed_violation(capsys):
    # (1 - eta) * gamma underflows to 0 for the smallest positive gamma
    code, doc, _ = run_json(capsys, "solve", "--fixture", "ex33", "--gamma", "5e-324")
    assert code == 1
    assert doc["error"]["type"] == "SeedConditionViolated"


def test_certify_underflowing_seed_budget_reports_violation(capsys):
    code, doc, _ = run_json(capsys, "certify", "--fixture", "ex33", "--condition", "root",
                            "--region", "0:0.3333", "--n", "100", "--gamma", "5e-324")
    assert code == 1
    assert doc["verdict"] == "holds-on-sample"
    assert doc["seed_condition_ok"] is False


def test_solve_csv_trace(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "ex37", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value,step_log,in_ball"
    assert len(lines) >= 10
    assert lines[1].startswith("0,0.3333333333333333,")


def test_solve_param_overrides_change_outcome(capsys):
    code, doc, _ = run_json(capsys, "solve", "--fixture", "ex33", "--x0", "0")
    assert code == 0
    assert doc["iterations_used"] == 0


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_reference_values(capsys):
    code, doc, err = run_json(capsys, "reproduce")
    assert code == 0
    assert doc["passed"] is True
    by_name = {row["name"]: row for row in doc["rows"]}
    assert by_name["seed budget (1-eta)*gamma"]["abs_delta"] == 0
    assert by_name["ex33 seed-to-image distance"]["abs_delta"] < 1e-4
    assert by_name["ex37 seed-to-image distance"]["abs_delta"] < 1e-4
    assert "PASS" in err


# ---------------------------------------------------------------------------
# contract-level behavior


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ("certify", "--fixture", "ex33", "--condition", "root",
            "--region", "0:0.3333", "--n", "500", "--seed", "11")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "axioms", "--fixture", "product-exp",
                         "--n", "200", "--seed", "3")
    _, out4, _ = run_cli(capsys, "axioms", "--fixture", "product-exp",
                         "--n", "200", "--seed", "3")
    assert out3 == out4


def test_json_floats_have_full_precision(capsys):
    _, out, _ = run_cli(capsys, "solve", "--fixture", "ex33")
    assert "0.33333333333333331" in out  # 17 significant digits


def test_exit_zero_implies_no_violations(capsys):
    for argv in (("axioms", "--fixture", "exp-usual", "--n", "300", "--seed", "1"),
                 ("certify", "--fixture", "ex37", "--condition", "implicit",
                  "--region", "0.001:0.499", "--n", "300", "--seed", "1"),
                 ("reproduce",)):
        code, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        if code == 0:
            assert doc.get("passed", True) in (True,)
            assert doc.get("violations", 0) == 0


def test_module_entrypoint_smoke():
    proc = subprocess.run([sys.executable, "-m", "mgmetric", "reproduce"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


@pytest.mark.parametrize("region,message", [("1:1", "wider than"),
                                            ("1:1.0000000010001", "point pairs")])
def test_axioms_tiny_domain_is_usage_error(region, message):
    # (almost) no room for distinct sample pairs: these used to loop forever
    proc = subprocess.run([sys.executable, "-m", "mgmetric", "axioms", "--fixture",
                           "exp-usual", "--region", region],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


def test_axioms_domain_too_narrow_for_separated_pairs_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "axioms", "--fixture", "exp-usual",
                             "--region", "0:1.0000001e-9", "--n", "100")
    assert code == 2
    assert out == ""
    assert err == ("error: found only 0 of 100 point pairs more than 1e-09 apart in "
                   "[0.0, 1.0000001e-09] after 100 rounds\n")


WIDE_CONFIG = {
    "space": "exp-usual",
    "map": [{"interval": [None, None], "slope": 0.5, "offset": 0.0}],
    "params": {"eta": 0.6, "gamma": 5.5, "x0": 0.0},
}


@pytest.mark.parametrize("command,what", [
    (["certify", "--condition", "root"], "region interval"),
    (["axioms"], "axiom checking domain"),
])
def test_region_wider_than_the_float_range_is_usage_error(capsys, tmp_path, command, what):
    # both ends are finite, but hi - lo overflows to inf: this used to
    # sample inf ("point inf is outside the piecewise rows") or NaN pairs
    # ("found only 0 of 100 point pairs", after numpy warnings)
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(WIDE_CONFIG))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *command, "--config", str(cfg),
                                 "--region=-1e308:1e308", "--n", "100")
    assert code == 2
    assert out == ""
    assert err == f"error: {what} must have a finite width hi - lo, got [-1e+308, 1e+308]\n"


def _orbit_solve(tmp_path) -> list[str]:
    """A 6,693-step orbit solve: its JSON report (about 473 KB) and its
    CSV trace (about 358 KB) are far larger than a pipe's buffer or
    stdout's."""
    cfg = tmp_path / "orbit.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, None], "slope": 0.997, "offset": 0.0}],
        "params": {"eta": 0.9995, "gamma": 4000, "x0": 90},
    }))
    return ["solve", "--config", str(cfg), "--epsilon", "1e-9", "--max-iter", "1000000"]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_the_command_by_sigpipe(tmp_path):
    # the report cannot fit in the pipe's buffer, so the write after the
    # reader closes must fail
    proc = subprocess.Popen([sys.executable, "-m", "mgmetric", *_orbit_solve(tmp_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        proc.wait(timeout=60)
        stderr = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in stderr
    assert proc.returncode == -signal.SIGPIPE


# A fresh process flushes both streams and ends without the interpreter's
# teardown.  Each child runs without PYTHONUNBUFFERED, which would write
# every print at once and so hide a missing flush.

def _buffered_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


# `python -m mgmetric`, and the installed console script's wrapper
LAUNCHERS = {
    "module": ["-m", "mgmetric"],
    "script": ["-c", "import sys; from mgmetric.cli import entrypoint; sys.exit(entrypoint())"],
}


@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fresh_process_writes_the_whole_report(capsys, tmp_path, fmt, sink):
    argv = [*_orbit_solve(tmp_path), "--format", fmt]
    expected = run_cli(capsys, *argv)
    path = tmp_path / "report"
    with open(path, "wb") as report:
        proc = subprocess.run([sys.executable, "-m", "mgmetric", *argv],
                              stdout=subprocess.PIPE if sink == "pipe" else report,
                              stderr=subprocess.PIPE, env=_buffered_env(), timeout=60)
    out = proc.stdout if sink == "pipe" else path.read_bytes()
    assert len(expected[1]) > 300_000
    assert (proc.returncode, out.decode(), proc.stderr.decode()) == expected


# The CLI's regression cases, each with its exit code: every one runs in
# this process and under both launchers
@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("argv,code", [
    pytest.param(["reproduce"], 0, id="reproduce"),
    pytest.param(["solve", "--fixture", "ex37", "--format", "csv"], 0, id="csv"),
    pytest.param(["certify", "--fixture", "ex33", "--condition", "root", "--region", "0.34:5.5",
                  "--n", "10000"], 1, id="violated"),
    pytest.param(["certify", "--fixture", "ex33", "--condition", "root", "--region", "1:x"], 2,
                 id="bad-region"),
    pytest.param(["certify", "--fixture", "ex33", "--condition", "root", "--region", "ball",
                  "--gamma", "0.5"], 2, id="empty-ball"),
    # the perimeter kernel's pair path: implicit pair terms, ball
    # membership and invariance, and the axiom audits' pair terms
    pytest.param(["certify", "--fixture", "ex37", "--condition", "implicit", "--region",
                  "0.001:0.499", "--n", "10000"], 0, id="implicit"),
    pytest.param(["certify", "--fixture", "ex33", "--condition", "root", "--region", "ball",
                  "--n", "10000"], 1, id="ball-violated"),
    pytest.param(["axioms", "--fixture", "product-exp"], 0, id="axioms-product-exp"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["axioms"], 2, id="no-source"),
    pytest.param(["axioms", "--fixture", "ex33", "--config", "x"], 2, id="two-sources"),
    pytest.param(["axioms", "--fixture", "nope"], 2, id="unknown-fixture"),
    pytest.param(CERTIFY_JUST_BELOW_FLOOR, 1, id="floor-violated"),
    pytest.param(["solve", "--config", JUST_BELOW_FLOOR], 1, id="below-floor"),
    pytest.param(CERTIFY_SEED_ABOVE_BUDGET, 1, id="budget-violated"),
    pytest.param(["solve", "--config", SEED_ABOVE_BUDGET], 1, id="above-budget"),
    pytest.param(["solve", "--config", LAST_STEP_BELOW_FLOOR], 1, id="last-step-below-floor"),
    pytest.param(["solve", "--config", SEED_STEP_BELOW_FLOOR], 1, id="seed-step-below-floor"),
    pytest.param(CERTIFY_FLOOR_AND_CONDITION, 1, id="floor-and-condition"),
    pytest.param(["solve", "--config", INEXACT_AT_TOLERANCE], 1, id="inexact-at-tolerance"),
])
def test_fresh_process_keeps_its_exit_code_and_output(capsys, monkeypatch, launcher, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    expected = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, *LAUNCHERS[launcher], *argv], capture_output=True,
                          text=True, env=_buffered_env(), timeout=60)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
@pytest.mark.parametrize("argv", [["reproduce"], ["solve", "--fixture", "ex37", "--format", "csv"]],
                         ids=["reproduce", "csv"])
def test_fresh_process_with_stdout_closed_exits_zero(capsys, argv):
    # with file descriptor 1 closed at start-up, sys.stdout is None
    _, _, err = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "mgmetric", *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=_buffered_env(), timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["reproduce", "orbit-json", "orbit-csv"])
def test_report_that_cannot_be_written_ends_in_one_error_line(tmp_path, command, unbuffered):
    # a small report fails at the flush before exit when stdout is
    # buffered, a large one (or any one, unbuffered) in the command
    argv = {"reproduce": ["reproduce"],
            "orbit-json": _orbit_solve(tmp_path),
            "orbit-csv": [*_orbit_solve(tmp_path), "--format", "csv"]}[command]
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "mgmetric", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    line = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert proc.returncode == 2
    assert proc.stderr.endswith(line) and proc.stderr.count("error:") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("argv", [
    ["reproduce"],
    ["certify", "--fixture", "ex33", "--condition", "root", "--region", "0:0.3", "--n", "10"],
], ids=["reproduce", "holds"])
def test_summary_that_cannot_be_written_exits_two_with_the_whole_report(
        capsys, argv, launcher, unbuffered):
    # the summary fails, and so does the error line after it
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *LAUNCHERS[launcher], *argv],
                              stdout=subprocess.PIPE, stderr=full, text=True, env=env,
                              timeout=60)
    assert (proc.returncode, proc.stdout) == (2, out)


def _run_module(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "mgmetric", *argv],
                          capture_output=True, text=True, timeout=60, **kwargs)


def _one_error_line(proc, start: str) -> None:
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(start) and proc.stderr.count("\n") == 1, proc.stderr


# An integer literal too large for a float, and a JSON array nested
# deeper than the parser recurses: both used to end in a traceback.
@pytest.mark.parametrize("text,message", [
    ('{"space": "exp-usual", "map": [{"interval": [0, null], "slope": 0.5, "offset": 0}], '
     '"params": {"eta": 0.5, "gamma": 5, "x0": 1' + "0" * 400 + "}}",
     "int too large to convert to float"),
    ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
], ids=["huge-int", "deep-array"])
def test_unparsable_config_value_exits_two(tmp_path, text, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    proc = _run_module("solve", "--config", str(cfg))
    _one_error_line(proc, f"error: bad config {cfg}: ")
    assert message in proc.stderr


@pytest.mark.parametrize("doc,message", [
    ({"map": []}, 'config has no "space"'),
    ({"space": "exp-usual", "map": [{"interval": [0, None], "slope": 0.5}]},
     'map row 1 has no "offset"'),
    ([], "config must be a JSON object"),
    ({"space": "exp-usual", "map": [{"interval": [0, None], "slope": "half", "offset": 0}]},
     'map row 1 "slope" must be a number: could not convert string to float: \'half\''),
    ({"space": "exp-usual", "map": [{"interval": [0, None], "slope": 0.5, "offset": 0}],
      "params": {"eta": "0.5", "gamma": 5.5, "x0": 1}},
     'params "eta" must be a number: got str \'0.5\''),
], ids=["space", "offset", "doc", "slope", "numeric-string"])
def test_config_without_a_key_or_of_a_wrong_type_exits_two_naming_it(tmp_path, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    proc = _run_module("solve", "--config", str(cfg))
    _one_error_line(proc, f"error: bad config {cfg}: ")
    assert proc.stderr == f"error: bad config {cfg}: {message}\n"


def _limit_address_space():
    # 1.5 GB of address space, in the child only: numpy and the package
    # load, and an array of 10^9 samples cannot be allocated
    limit = 1_500_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(resource is None, reason="no resource module on this platform")
@pytest.mark.parametrize("argv", [
    ["certify", "--condition", "root", "--region", "0:1", "--n", "1000000000"],
    ["axioms", "--fixture", "exp-usual", "--n", "1000000000"],
], ids=["certify", "axioms"])
def test_sample_count_that_cannot_be_allocated_exits_two(tmp_path, argv):
    # Never run without the limit: the kernel may grant the 7.45 GiB.
    if argv[0] == "certify":
        cfg = tmp_path / "halving.json"
        cfg.write_text(json.dumps(WIDE_CONFIG))
        argv = [*argv, "--config", str(cfg)]
    proc = _run_module(*argv, preexec_fn=_limit_address_space)
    _one_error_line(proc, "error: Unable to allocate ")


def test_usage_error_on_bad_region(capsys):
    # text that does not parse gets the generic reason, an empty or NaN
    # interval the interval's own
    for region, reason in [("oops", "bad region 'oops': expected lo:hi or ball"),
                           ("1:2:3", "bad region '1:2:3': expected lo:hi or ball"),
                           ("1:", "bad region '1:': expected lo:hi or ball"),
                           ("5:1", "error: empty interval: lo=5.0 > hi=1.0"),
                           ("nan:1", "error: interval endpoints must not be NaN")]:
        code, out, err = run_cli(capsys, "certify", "--fixture", "ex33",
                                 "--condition", "root", "--region", region)
        assert (code, out) == (2, "")
        assert reason in err


@pytest.mark.parametrize("region", ["-1:1", "-0.5:2", "-1e-3:0", "-1:-5", "-inf:0"])
@pytest.mark.parametrize("argv", [
    ["axioms", "--fixture", "exp-usual", "--n", "100"],
    ["certify", "--fixture", "ex33", "--condition", "root", "--n", "100"],
], ids=["axioms", "certify"])
def test_negative_region_reads_the_same_spaced_or_joined(capsys, argv, region):
    spaced = run_cli(capsys, *argv, "--region", region)
    assert spaced == run_cli(capsys, *argv, f"--region={region}")
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("flag", ["--reg", "--regi"])
@pytest.mark.parametrize("argv", [
    ["axioms", "--fixture", "exp-usual", "--n", "100"],
    ["certify", "--fixture", "ex33", "--condition", "root", "--n", "100"],
], ids=["axioms", "certify"])
def test_negative_region_after_an_abbreviated_flag_reads_as_joined(capsys, argv, flag):
    assert run_cli(capsys, *argv, flag, "-1:1") == run_cli(capsys, *argv, "--region=-1:1")


def test_solve_takes_no_region_abbreviated_or_not(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "ex33", "--r", "-1:1")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("value", ["--n", "-h", "-1:x"])
def test_region_followed_by_a_non_region_option_lacks_its_value(capsys, value):
    code, out, err = run_cli(capsys, "axioms", "--fixture", "exp-usual", "--region", value, "100")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --region: expected one argument\n")


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    """Repeated in-process calls share one parser, also after a usage
    error and ``--help``, and print the recorded bytes every time.  The
    builder is wrapped as perfbench's tracer wraps it, with a wrapper
    over the built parser's ``parse_args``: were it called again, such
    wrappers would pile up."""
    recorded = json.loads(GOLDEN.read_text())["readme-cli"]["*"]
    build = cli._build_parser
    builds = parses = 0

    def counting_build():
        nonlocal builds
        builds += 1
        parser = build()
        parse = parser.parse_args

        def counting_parse(*args, **kwargs):
            nonlocal parses
            parses += 1
            return parse(*args, **kwargs)

        parser.parse_args = counting_parse
        return parser

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    for round_ in range(2):
        for label, cmd in README_COMMANDS.items():
            main(list(cmd.argv))
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            assert digest == recorded[label], (round_, label)
        if round_ == 0:
            assert main(["certify", "--fixture", "ex33"]) == 2  # no --condition
            assert main(["--help"]) == 0
            capsys.readouterr()
    assert builds == 1
    assert parses == 2 * len(README_COMMANDS) + 2


# ---------------------------------------------------------------------------
# the CLI never raises: every input ends in exit code 0, 1 or 2


def _main_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _mostly(valid, adversarial):
    """Values of ``valid``, and one draw in four of ``adversarial``, so
    that most inputs get past parsing into the command."""
    return st.integers(0, 3).flatmap(lambda i: adversarial if i == 0 else valid)


# Flag values: the edges of the float range, non-finite and junk text.
BAD_NUMBERS = (st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0", "-1",
                                "junk", ""]) | st.floats().map(repr))


def _numbers(lo: float, hi: float):
    return _mostly(st.floats(lo, hi).map(repr), BAD_NUMBERS)


INTEGERS = _mostly(st.integers(1, 100).map(str), st.sampled_from(["0", "-3", "1.5", "junk", ""]))
SEEDS = _mostly(st.integers(0, 2 ** 70).map(str), st.sampled_from(["-1", "junk"]))
REGIONS = _mostly(st.sampled_from(["ball", "0:1", "0.34:5.5", "0:0.5"]),
                  st.sampled_from(["oops", "1:0", "0:", "0:1:2", "nan:1", "ball:1"])
                  | st.tuples(_numbers(-10, 10), _numbers(-10, 10)).map(":".join))
CONDITIONS = _mostly(st.sampled_from(["root", "implicit"]), st.just("weird"))
_OVERRIDES = {"--eta": _numbers(0, 0.99), "--gamma": _numbers(1, 100), "--x0": _numbers(0, 5)}
_FLAGS = {
    "axioms": {"--region": REGIONS, "--n": INTEGERS, "--seed": SEEDS},
    "certify": {**_OVERRIDES, "--condition": CONDITIONS, "--region": REGIONS, "--n": INTEGERS,
                "--seed": SEEDS},
    "solve": {**_OVERRIDES, "--mode": CONDITIONS, "--epsilon": _numbers(1e-12, 1),
              "--max-iter": _mostly(st.integers(0, 200).map(str), st.sampled_from(["-3", "junk"])),
              "--format": _mostly(st.sampled_from(["json", "csv"]), st.just("xml"))},
    "reproduce": {},
}


@st.composite
def _argvs(draw, config: str):
    """An argv of the flags' grammar: one source, now and then none, two
    or an unknown one, the required ``--condition`` and each other flag
    present or not, given its value as ``--flag=value`` so that a
    leading "-" stays a value."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command != "reproduce":
        source = ["--fixture=ex33", "--fixture=ex37", "--fixture=exp-usual",
                  "--fixture=product-exp", "--config=" + config]
        argv += draw(_mostly(st.sampled_from(source).map(lambda flag: [flag]),
                             st.lists(st.sampled_from(source + ["--fixture=nope"]), max_size=2)))
    for flag, values in _FLAGS[command].items():
        if flag == "--condition" or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


def test_cli_never_raises_on_argv(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("argv") / "leaves.json"
    cfg.write_text(json.dumps(LEAVES_BALL))

    @settings(max_examples=300, deadline=None)
    @given(_argvs(str(cfg)))
    def check(argv):
        assert _main_quietly(argv) in (0, 1, 2), argv

    check()


# Config values: the edges of the float range, integers too large for a
# float, and values of the wrong type.  ``_rows`` draws contiguous rows.
HUGE = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024])
WRONG = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(), max_size=3)
ADVERSARIAL = HUGE | WRONG | st.floats()


def _rows(draw) -> list[dict]:
    cuts = sorted(set(draw(st.lists(st.floats(-10, 10), max_size=3))))
    edges = [None, *cuts, None]
    return [{"interval": [lo, hi], "slope": draw(st.floats(-2, 2)),
             "offset": draw(st.floats(-2, 2))} for lo, hi in zip(edges, edges[1:])]


def _slots(node):
    """Every (container, key) pair of a document's nested dicts and lists."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def _configs(draw):
    """Now and then no object at all; else a valid config, then up to
    three of its values replaced by adversarial ones or deleted."""
    if draw(st.integers(0, 9)) == 0:
        return draw(ADVERSARIAL)
    space = draw(st.sampled_from(["exp-usual", "product-exp", "product-pl"]))
    doc = {"space": {"kind": space, "rows": _rows(draw)} if space == "product-pl" else space,
           "map": _rows(draw),
           "params": {"eta": draw(st.floats(0, 0.99)), "gamma": draw(st.floats(1, 1e6)),
                      "x0": draw(st.floats(0, 10))}}
    for _ in range(draw(st.integers(0, 3))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
            del node[key]
        else:
            node[key] = draw(ADVERSARIAL)
    return doc


_CONFIG_COMMANDS = st.sampled_from([
    ["axioms", "--n", "50"],
    ["certify", "--condition", "root", "--region", "ball", "--n", "50"],
    ["certify", "--condition", "implicit", "--region", "0:2", "--n", "50"],
    ["solve", "--max-iter", "200"],
    ["solve", "--mode", "implicit", "--max-iter", "200", "--format", "csv"],
])


def test_cli_never_raises_on_config(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("config") / "config.json"

    @settings(max_examples=300, deadline=None)
    @given(_configs(), _CONFIG_COMMANDS)
    def check(doc, command):
        cfg.write_text(json.dumps(doc))
        assert _main_quietly([*command, "--config", str(cfg)]) in (0, 1, 2), doc

    check()
