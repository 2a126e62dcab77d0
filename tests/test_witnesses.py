"""Witnesses of the sampled suites: their order, caps and re-checks.

``data/witness_order.json`` holds reports recorded from the scalar
per-sample suites that the array evaluation replaced, with caps of 2
and 8 witnesses per rule.  Each metric fails several rules on the same
sample, so any change in how witnesses of different rules interleave,
or in which ones a rule's cap keeps, changes the recorded reports.

The suites now keep 32 witnesses per rule, and a report cut to the
first k witnesses of each rule is the report recorded at cap k: each
check's failures come in sample order, so a witness past a check's k-th
follows k witnesses of its rule and cannot rank in the rule's first k.
"""

import json
from pathlib import Path

import pytest

from mgmetric import (
    GMetric,
    Interval,
    Witness,
    certify_region,
    check_gm_axioms,
    check_gm_properties,
    check_mult_axioms,
    get_fixture,
    load_fixture_config,
)
from mgmetric import _jsonutil
from test_contraction import LEAVES_BALL

EXPECTED = Path(__file__).with_name("data") / "witness_order.json"
DOMAIN = Interval(0.0, 3.0)

# Signed log-distance: negative below the diagonal, so one pair sample
# fails floor, separation and symmetry at once.
BROKEN_PL = load_fixture_config({"space": {"kind": "product-pl", "rows": [
    {"interval": [None, 0.0], "slope": 1.0, "offset": 0.0},
    {"interval": [0.0, 1.0], "slope": 0.5, "offset": 0.0},
    {"interval": [1.0, None], "slope": 2.0, "offset": -1.5},
]}})
# Not symmetric in its arguments, and with no batch form.
LOPSIDED = GMetric(g=lambda x, y, z: x - 2.0 * y + 0.5 * z * z, description="lopsided")

CASES = {
    "mult": (check_mult_axioms, BROKEN_PL.mult),
    "gm": (check_gm_axioms, BROKEN_PL.gmetric),
    "properties": (check_gm_properties, BROKEN_PL.gmetric),
    "gm-lopsided": (check_gm_axioms, LOPSIDED),
    "properties-lopsided": (check_gm_properties, LOPSIDED),
}


def _report(name):
    suite, metric = CASES[name]
    return suite(metric, DOMAIN, 40, seed=11)


def _first_per_rule(doc: dict, cap: int) -> dict:
    kept = {rule: 0 for rule in doc["axioms"]}
    witnesses = []
    for w in doc["witnesses"]:
        if kept[w["rule"]] < cap:
            kept[w["rule"]] += 1
            witnesses.append(w)
    return {**doc, "witnesses": witnesses}


def _round_trip(report) -> dict:
    return json.loads(_jsonutil.dumps(report.to_dict()))


@pytest.mark.parametrize("cap", [2, 8])
@pytest.mark.parametrize("name", sorted(CASES))
def test_axiom_reports_match_recorded(name, cap):
    expected = json.loads(EXPECTED.read_text())[f"{name}/{cap}"]
    assert _first_per_rule(_round_trip(_report(name)), cap) == expected


def _reports():
    for name in sorted(CASES):
        yield _round_trip(_report(name))
    ex33, ex37 = get_fixture("ex33"), get_fixture("ex37")
    # a ball the map leaves: invariance witnesses
    leaves_ball = load_fixture_config(LEAVES_BALL)
    for fx, condition, region in ((ex33, "root", Interval(0.34, 5.5)),
                                  (ex33, "root", "ball"),
                                  (ex37, "implicit", Interval(0.5, 5.5)),
                                  (leaves_ball, "root", "ball")):
        report = certify_region(fx.gmetric, fx.map, fx.params, condition, region, 2000, seed=3)
        yield _round_trip(report)


def test_every_witness_fails_after_json_round_trip():
    seen, rules = 0, set()
    for doc in _reports():
        for w in doc["witnesses"]:
            witness = Witness(w["rule"], tuple(w["points"]), w["lhs_log"], w["rhs_log"],
                              w["relation"])
            assert not witness.holds(), w
            seen += 1
            rules.add(w["rule"])
    assert seen > 100
    assert "invariance" in rules
