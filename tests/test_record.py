"""The frozen-record base of the package's public classes: construction,
defaults, validation, immutability, equality, copying and ``replace``."""

import copy
import math
import pickle

import pytest

from mgmetric import (
    CertificateReport,
    ClosedBall,
    ContractionParams,
    FixedPointResult,
    GMetric,
    Interval,
    NamedFixture,
    PicardTrace,
    Witness,
    get_fixture,
)

PARAMS = ContractionParams(eta=0.625, gamma=5.5, seed_point=1 / 3)


def test_fields_follow_the_annotations_in_order():
    assert ContractionParams._fields == ("eta", "gamma", "seed_point", "m")
    assert Witness._fields == ("rule", "points", "lhs_log", "rhs_log", "relation")
    assert FixedPointResult._fields == ("point", "residual_log", "iterations_used",
                                        "certified_bound", "trace", "rate", "rate_certified",
                                        "mu", "mu_class")


def test_positional_and_keyword_construction_agree():
    assert ContractionParams(0.625, 5.5, 1 / 3) == PARAMS
    assert ContractionParams(0.625, gamma=5.5, seed_point=1 / 3, m=1) == PARAMS
    assert Witness("floor", (1.0,), -1.0, 0.0, ">=") == Witness(
        rule="floor", points=(1.0,), lhs_log=-1.0, rhs_log=0.0, relation=">=")


def test_defaults():
    assert PARAMS.m == 1
    assert Witness("r", (), 1.0, 0.0).relation == "<="
    g = GMetric(g=lambda x, y, z: 0.0)
    assert (g.description, g.batch) == ("", None)


def test_each_fixture_gets_a_fresh_metadata_mapping():
    a = NamedFixture(id="a", gmetric=get_fixture("exp-usual").gmetric)
    b = NamedFixture(id="b", gmetric=a.gmetric)
    assert a.metadata == {} and b.metadata == {}
    # the default is shared, so it must not be writable
    with pytest.raises(TypeError):
        a.metadata["k"] = 1
    assert b.metadata == {}


@pytest.mark.parametrize("build", [
    lambda: ContractionParams(0.625, 5.5),
    lambda: ContractionParams(0.625, 5.5, 1.0, 1, 2),
    lambda: ContractionParams(0.625, 5.5, 1.0, eta=0.5),
    lambda: ContractionParams(0.625, 5.5, 1.0, rate=0.5),
])
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_validates():
    with pytest.raises(ValueError, match="eta"):
        ContractionParams(eta=1.5, gamma=5.5, seed_point=0.0)
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="radius"):
        ClosedBall(center=0.0, radius=math.nan)


def test_fields_cannot_be_assigned_or_deleted():
    with pytest.raises(AttributeError):
        PARAMS.eta = 0.5
    with pytest.raises(AttributeError):
        PARAMS.extra = 1
    with pytest.raises(AttributeError):
        del PARAMS.eta
    assert PARAMS.eta == 0.625


def test_equality_and_hash_go_by_the_fields():
    other = ContractionParams(eta=0.625, gamma=5.5, seed_point=1 / 3)
    assert other == PARAMS and hash(other) == hash(PARAMS)
    assert PARAMS != PARAMS.replace(m=2)
    # a record of another class with the same values is not equal
    assert Interval(0.0, 1.0) != ClosedBall(0.0, 1.0)
    assert len({Interval(0.0, 1.0), Interval(0.0, 1.0), Interval(0.0, 2.0)}) == 2


def test_repr_lists_the_fields():
    assert repr(Interval(0.0, 1.5)) == "Interval(lo=0.0, hi=1.5)"
    assert repr(PARAMS) == ("ContractionParams(eta=0.625, gamma=5.5, "
                            "seed_point=0.3333333333333333, m=1)")


def test_replace_changes_fields_and_validates_again():
    changed = PARAMS.replace(eta=0.25, seed_point=0.0)
    assert (changed.eta, changed.gamma, changed.seed_point, changed.m) == (0.25, 5.5, 0.0, 1)
    assert PARAMS.eta == 0.625
    with pytest.raises(ValueError, match="eta"):
        PARAMS.replace(eta=1.0)
    with pytest.raises(TypeError):
        PARAMS.replace(rate=0.5)


def _report() -> CertificateReport:
    return CertificateReport(
        condition="root", region="[0.0, 1.0]", samples=3, seed=0, verdict="violated",
        witnesses=(Witness("root", (0.0, 1.0, 0.5), 2.0, 1.0),), violations=1,
        seed_condition_ok=True, eta=0.5, gamma=2.0, seed_point=0.0, m=1)


@pytest.mark.parametrize("record", [
    PARAMS,
    Interval(0.0, math.inf),
    PicardTrace((1.0, 0.5), (0.5,), (True, True), True),
    _report(),
])
def test_copy_and_pickle_round_trip(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert clone._asdict() == record._asdict()
    with pytest.raises(AttributeError):
        copy.deepcopy(record).seed = 1
