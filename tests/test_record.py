"""The frozen-record base of the package's public classes: construction,
defaults, validation, immutability, equality, copying and ``replace``."""

import ast
import copy
import importlib
import math
import pickle
from collections.abc import Mapping
from pathlib import Path

import pytest

from mgmetric import (
    CertificateReport,
    ClosedBall,
    ContractionParams,
    FixedPointResult,
    GMetric,
    Interval,
    MultMetric,
    NamedFixture,
    PicardTrace,
    SelfMap,
    Witness,
    check_gm_axioms,
    get_fixture,
    registry,
)

PARAMS = ContractionParams(eta=0.625, gamma=5.5, seed_point=1 / 3)
SOURCE = Path(__file__).resolve().parents[1] / "src" / "mgmetric"

# The package's settable values: each defaulted parameter of a function
# or method and each defaulted public record field.  A change that adds
# one raises this number and says why.
SETTABLE_VALUES = 18


def test_fields_follow_the_annotations_in_order():
    assert ContractionParams._fields == ("eta", "gamma", "seed_point")
    assert SelfMap._fields == ("apply", "domain", "batch")
    assert Witness._fields == ("rule", "points", "lhs_log", "rhs_log", "relation")
    assert FixedPointResult._fields == ("point", "residual_log", "iterations_used",
                                        "certified_bound", "trace", "rate", "rate_certified",
                                        "mu")


def test_positional_and_keyword_construction_agree():
    assert ContractionParams(0.625, 5.5, 1 / 3) == PARAMS
    assert ContractionParams(0.625, gamma=5.5, seed_point=1 / 3) == PARAMS
    assert Witness("floor", (1.0,), -1.0, 0.0, ">=") == Witness(
        rule="floor", points=(1.0,), lhs_log=-1.0, rhs_log=0.0, relation=">=")


def test_defaults():
    assert Witness("r", (), 1.0, 0.0).relation == "<="
    g = GMetric(g=lambda x, y, z: 0.0)
    assert (g.description, g.batch) == ("", None)
    fx = NamedFixture(id="a", gmetric=g)
    assert (fx.mult, fx.map, fx.params) == (None, None, None)


def test_an_unknown_relation_fails_when_the_witness_is_built():
    with pytest.raises(ValueError, match="^unknown relation '<'$"):
        Witness("r", (1.0,), 0.0, 0.0, "<")


@pytest.mark.parametrize("build", [
    lambda: ContractionParams(0.625, 5.5),
    lambda: ContractionParams(0.625, 5.5, 1.0, 1),
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
    assert PARAMS != PARAMS.replace(gamma=6.0)
    # a record of another class with the same values is not equal
    assert Interval(0.0, 1.0) != ClosedBall(0.0, 1.0)
    assert len({Interval(0.0, 1.0), Interval(0.0, 1.0), Interval(0.0, 2.0)}) == 2


@pytest.mark.parametrize("record", [
    *registry(), check_gm_axioms(get_fixture("ex33").gmetric, Interval(0.0, 2.0), n=50, seed=3)],
                         ids=lambda r: getattr(r, "id", type(r).__name__))
def test_records_with_a_mapping_field_hash_by_its_items(record):
    assert hash(copy.copy(record)) == hash(record)
    assert hash(copy.deepcopy(record)) == hash(record)
    # == compares mappings by their items, whatever the insertion order;
    # a fixture has no mapping field
    names = [n for n, v in record._asdict().items() if isinstance(v, Mapping)]
    assert bool(names) is not isinstance(record, NamedFixture)
    for name in names:
        reordered = record.replace(**{name: dict(reversed(getattr(record, name).items()))})
        assert reordered == record and hash(reordered) == hash(record)


def test_repr_lists_the_fields():
    assert repr(Interval(0.0, 1.5)) == "Interval(lo=0.0, hi=1.5)"
    assert repr(PARAMS) == ("ContractionParams(eta=0.625, gamma=5.5, "
                            "seed_point=0.3333333333333333)")


def test_replace_changes_fields_and_validates_again():
    changed = PARAMS.replace(eta=0.25, seed_point=0.0)
    assert (changed.eta, changed.gamma, changed.seed_point) == (0.25, 5.5, 0.0)
    assert PARAMS.eta == 0.625
    with pytest.raises(ValueError, match="eta"):
        PARAMS.replace(eta=1.0)
    with pytest.raises(TypeError):
        PARAMS.replace(rate=0.5)


def _report() -> CertificateReport:
    return CertificateReport(
        condition="root", region="[0.0, 1.0]", samples=3, seed=0, verdict="violated",
        witnesses=(Witness("root", (0.0, 1.0, 0.5), 2.0, 1.0),), violations=1,
        seed_condition_ok=True, eta=0.5, gamma=2.0, seed_point=0.0)


@pytest.mark.parametrize("record", [
    PARAMS,
    Interval(0.0, math.inf),
    PicardTrace((1.0, 0.5), (0.5,), (True, True), True),
    _report(),
    get_fixture("exp-usual"),
    get_fixture("ex33"),
    get_fixture("ex37"),
])
def test_copy_and_pickle_round_trip(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert clone._asdict() == record._asdict()
    with pytest.raises(AttributeError):
        copy.deepcopy(record).seed = 1


def _settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and not s.target.id.startswith("_") for s in node.body)
    return count


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_kernel_entry_points_live_on_the_base_classes():
    # The benchmark tracer counts the metric and map kernels by patching
    # GMetric.__call__, GMetric.value and SelfMap.__call__ from the class
    # __dict__, so a subclass that defined its own would escape the count.
    for path in sorted(SOURCE.glob("[!_]*.py")):
        importlib.import_module(f"mgmetric.{path.stem}")
    assert {"__call__", "value"} <= GMetric.__dict__.keys()
    assert "__call__" in SelfMap.__dict__
    subclasses = [sub for base in (GMetric, MultMetric, SelfMap) for sub in _subclasses(base)
                  if sub.__module__.startswith("mgmetric.")]
    assert {sub.__name__ for sub in subclasses} >= {
        "PairSumMetric", "PerimeterMetric", "DifferenceMetric", "PiecewiseMap"}
    for sub in subclasses:
        assert not {"__call__", "value"} & sub.__dict__.keys(), sub


def test_settable_values_do_not_grow():
    counts = {path.name: _settable_values(ast.parse(path.read_text()))
              for path in sorted(SOURCE.glob("*.py"))}
    assert sum(counts.values()) <= SETTABLE_VALUES, counts
