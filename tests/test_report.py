"""The report path: shallow ``to_dict``, the JSON renderer and its
string quoting, the trace CSV, and the witnesses a recorder keeps.

Each is held to a copy of the implementation it replaced, kept here as
the reference: the recursive renderer with one call per leaf, the one
with one call per mapping value, ``json.dumps`` for strings, the
recursive-copy documents ``dataclasses.asdict`` made of the reports
when they were dataclasses, the ``csv.writer`` rows, and a right-hand
side broadcast to a full array.  The rendered bytes must be identical,
since the CLI's reports are.
"""

import copy
import csv
import io
import json
import math
from _json import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgmetric import AxiomReport, CertificateReport, FixedPointResult, PicardTrace, Witness
from mgmetric._jsonutil import dumps
from mgmetric.metric import Record
from mgmetric.sampling import _Recorder


def reference_render(obj, indent: int = 2, level: int = 0) -> str:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} is not representable in a report")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {reference_render(v, indent, level + 1)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}{reference_render(v, indent, level + 1)}" for v in obj)
        return "[\n" + items + "\n" + close_pad + "]"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def recursive_render(obj, indent: int = 2, level: int = 0) -> str:
    # _jsonutil._render as it was before it rendered a mapping's str and
    # finite float values inline: one recursive call per mapping value
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return ("false", "true")[obj]
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} is not representable in a report")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if not isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"cannot render {type(obj).__name__} in a report")
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    sep = ",\n" + pad
    if isinstance(obj, dict):
        items = sep.join(f"{encode_basestring_ascii(str(k))}: "
                         f"{recursive_render(v, indent, level + 1)}" for k, v in obj.items())
        return "{\n" + pad + items + "\n" + close_pad + "}"
    kinds = set(map(type, obj))
    if kinds == {float} and all(map(math.isfinite, obj)):
        items = sep.join(["%.17g"] * len(obj)) % tuple(obj)
    elif kinds == {bool}:
        items = sep.join([("false", "true")[v] for v in obj])
    else:
        items = sep.join([recursive_render(v, indent, level + 1) for v in obj])
    return "[\n" + pad + items + "\n" + close_pad + "]"


def reference_asdict(obj):
    # dataclasses.asdict over the record fields: every record becomes a
    # dict and every container a new one, recursively; leaves are deep
    # copies
    if isinstance(obj, Record):
        return {name: reference_asdict(getattr(obj, name)) for name in type(obj)._fields}
    if isinstance(obj, (list, tuple)):
        return type(obj)(reference_asdict(v) for v in obj)
    if isinstance(obj, dict):
        return type(obj)((reference_asdict(k), reference_asdict(v)) for k, v in obj.items())
    return copy.deepcopy(obj)


def reference_to_dict(report) -> dict:
    doc = reference_asdict(report)
    if isinstance(report, FixedPointResult):
        doc["ball_exited"] = report.ball_exited
        doc["order_monotone"] = report.order_monotone
    if isinstance(report, AxiomReport):
        doc["witnesses"] = [reference_asdict(w) for w in report.witnesses]
        doc["passed"] = report.passed
    if isinstance(report, CertificateReport):
        doc["witnesses"] = [reference_asdict(w) for w in report.witnesses]
        doc["m"] = 1
        doc["holds"] = report.holds
    return doc


def reference_csv(trace: PicardTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "value", "step_log", "in_ball"])
    for j, x in enumerate(trace.iterates):
        step = repr(trace.step_logs[j]) if j < len(trace.step_logs) else ""
        writer.writerow([j, repr(x), step, trace.in_ball[j]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# strategies

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
ANY_FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
TEXT = st.text(max_size=6)
LEAVES = st.none() | st.booleans() | st.integers() | FLOATS | TEXT


def _containers(children):
    sequences = st.lists(FLOATS) | st.lists(st.booleans()) | st.lists(children)
    return sequences | sequences.map(tuple) | st.dictionaries(TEXT, children)


DOCS = st.recursive(LEAVES, _containers, max_leaves=40)


@st.composite
def traces(draw, floats=FLOATS):
    steps = draw(st.integers(min_value=0, max_value=30))
    return PicardTrace(
        iterates=tuple(draw(st.lists(floats, min_size=steps + 1, max_size=steps + 1))),
        step_logs=tuple(draw(st.lists(floats, min_size=steps, max_size=steps))),
        in_ball=tuple(draw(st.lists(st.booleans(), min_size=steps + 1, max_size=steps + 1))),
        monotone=draw(st.booleans()),
    )


WITNESSES = st.builds(
    Witness, rule=TEXT, points=st.lists(FLOATS, max_size=4).map(tuple), lhs_log=FLOATS,
    rhs_log=FLOATS, relation=st.sampled_from(["<=", ">=", ">", "=="]))
WITNESS_TUPLES = st.lists(WITNESSES, max_size=4).map(tuple)
OPTIONAL_FLOATS = st.none() | FLOATS

REPORTS = st.one_of(
    traces(),
    st.builds(FixedPointResult, point=FLOATS, residual_log=FLOATS,
              iterations_used=st.integers(min_value=0), certified_bound=st.none() | st.integers(),
              trace=traces(), rate=FLOATS, rate_certified=st.booleans(), mu=OPTIONAL_FLOATS,
              mu_class=st.none() | TEXT),
    st.builds(AxiomReport, subject=TEXT, domain=TEXT,
              axioms=st.dictionaries(TEXT, st.sampled_from(["pass", "fail"])),
              witnesses=WITNESS_TUPLES, violations=st.dictionaries(TEXT, st.integers()),
              samples=st.integers(), seed=st.integers()),
    st.builds(CertificateReport, condition=TEXT, region=TEXT, samples=st.integers(),
              seed=st.integers(), verdict=st.sampled_from(["holds-on-sample", "violated"]),
              witnesses=WITNESS_TUPLES, violations=st.integers(),
              seed_condition_ok=st.booleans(), eta=FLOATS, gamma=FLOATS, seed_point=FLOATS),
)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(DOCS, st.integers(min_value=0, max_value=4))
def test_dumps_matches_reference_renderer(doc, indent):
    assert dumps(doc, indent) == reference_render(doc, indent)


class Label(str):
    """A str subclass: the inline path takes exact types only."""


NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# The leaves a report holds, and some it must not hold: numpy floats,
# a str subclass and, now and then, a non-finite float.
REPORT_LEAVES = (st.none() | st.booleans() | st.integers() | FLOATS | FLOATS.map(np.float64)
                 | TEXT | TEXT.map(Label) | NON_FINITE | NON_FINITE.map(np.float64))


def _report_shaped(children):
    # mappings of leaves (records, witnesses), lists of mappings (witness
    # lists) and float or bool sequences (trace columns)
    records = st.dictionaries(TEXT | TEXT.map(Label), children, max_size=10)
    columns = st.lists(FLOATS) | st.lists(REPORT_LEAVES, max_size=4) | st.lists(st.booleans())
    return records | st.lists(records, max_size=4) | columns | columns.map(tuple)


REPORT_DOCS = st.dictionaries(TEXT, st.recursive(REPORT_LEAVES, _report_shaped, max_leaves=20),
                              max_size=10)


def _rendered(render, doc, indent):
    try:
        return render(doc, indent)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=100, deadline=None)
@given(REPORT_DOCS, st.integers(min_value=0, max_value=4))
def test_dumps_matches_the_recursive_renderer(doc, indent):
    assert _rendered(dumps, doc, indent) == _rendered(recursive_render, doc, indent)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)],
                         ids=["inf", "-inf", "nan", "float64-inf"])
def test_non_finite_mapping_value_is_rejected(bad):
    with pytest.raises(ValueError, match="non-finite float"):
        dumps({"verdict": "holds-on-sample", "eta": 0.5, "gamma": bad})


@settings(max_examples=100, deadline=None)
@given(st.lists(FLOATS), st.sampled_from([math.inf, -math.inf, math.nan]), st.lists(FLOATS),
       st.sampled_from([[], [None], [1], [True]]), st.booleans())
def test_non_finite_float_is_rejected_in_both_branches(before, bad, after, other, as_tuple):
    # ``other`` empty keeps the sequence all floats (the joined branch);
    # otherwise it is mixed and takes the recursive one
    seq = before + [bad] + after + other
    doc = {"trace": {"step_logs": tuple(seq) if as_tuple else seq}}
    with pytest.raises(ValueError) as ours:
        dumps(doc)
    with pytest.raises(ValueError) as theirs:
        reference_render(doc)
    assert str(ours.value) == str(theirs.value)


@settings(max_examples=100, deadline=None)
@given(traces(floats=ANY_FLOATS))
def test_csv_matches_csv_writer(trace):
    assert trace.to_csv() == reference_csv(trace)


@settings(max_examples=150, deadline=None)
@given(REPORTS)
def test_shallow_to_dict_matches_asdict(report):
    ours, theirs = dumps(report.to_dict()), reference_render(reference_to_dict(report))
    assert ours == theirs
    assert json.loads(ours) == json.loads(theirs)


def _scramble(doc) -> None:
    # edit every dict and list reachable from a to_dict document
    for v in list(doc.values() if isinstance(doc, dict) else doc):
        if isinstance(v, (dict, list)):
            _scramble(v)
    if isinstance(doc, dict):
        doc.update({k: "edited" for k in list(doc)})
        doc["added"] = 1
    else:
        doc.append("added")


@settings(max_examples=50, deadline=None)
@given(REPORTS)
def test_editing_to_dict_leaves_report_unchanged(report):
    snapshot = copy.deepcopy(report)
    before = dumps(report.to_dict())
    _scramble(report.to_dict())
    assert report == snapshot
    assert dumps(report.to_dict()) == before


# Any code point, lone surrogates included, and the characters JSON
# escapes: quotes, backslashes, control characters.
ANY_TEXT = st.text(st.characters(exclude_categories=())
                   | st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u2028\ud800\udfff\U0001f600'))


@settings(max_examples=150, deadline=None)
@given(ANY_TEXT, st.dictionaries(ANY_TEXT, ANY_TEXT, max_size=4))
def test_strings_render_as_json_dumps_renders_them(text, doc):
    assert dumps(text) == json.dumps(text)
    assert dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(ANY_FLOATS, max_size=40), ANY_FLOATS,
       st.sampled_from(["<=", ">=", ">", "=="]), st.integers(min_value=0, max_value=4))
def test_scalar_rhs_records_as_a_full_array_does(lhs, rhs, relation, max_witnesses):
    lhs = np.array(lhs, dtype=np.float64)
    points = (np.arange(lhs.size, dtype=np.float64), lhs)
    recorders = []
    for side in (rhs, np.full(lhs.shape, rhs)):
        rec = _Recorder(("rule",), max_witnesses)
        with np.errstate(invalid="ignore", over="ignore"):  # "==" subtracts
            rec.require(0, "rule", points, lhs, side, relation)
        recorders.append(rec)
    scalar, full = recorders
    assert scalar.counts == full.counts
    # repr, so that NaN fields compare equal
    assert repr(scalar.witnesses()) == repr(full.witnesses())
    assert all(type(w.rhs_log) is float for w in scalar.witnesses())
