import contextlib
import hashlib
import io
import json
import signal
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from mgmetric import Witness, cli
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
    assert code == 2
    assert out == ""
    assert "unknown fixture" in err


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
        "message": "step 0 from iterate 3.0 has log-distance -3.0 below the floor -1e-12"}
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


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_the_command_by_sigpipe(tmp_path):
    # a 6,693-step trace: its JSON report (about 470 KB) cannot fit in
    # the pipe's buffer, so the write after the reader closes must fail
    cfg = tmp_path / "orbit.json"
    cfg.write_text(json.dumps({
        "space": "exp-usual",
        "map": [{"interval": [0, None], "slope": 0.997, "offset": 0.0}],
        "params": {"eta": 0.9995, "gamma": 4000, "x0": 90},
    }))
    proc = subprocess.Popen([sys.executable, "-m", "mgmetric", "solve", "--config", str(cfg),
                             "--epsilon", "1e-9", "--max-iter", "1000000"],
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
        for label, argv in README_COMMANDS.items():
            main(list(argv))
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
