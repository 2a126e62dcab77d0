"""Stock spaces and self-maps, and JSON-config fixtures for the CLI.

The two stock spaces live on the nonnegative reals: "exp-usual" is the
exponential of the pairwise perimeter of the usual distance, and
"product-exp" is the pairwise product of the multiplicative distance
e^{|x - y|}: the same ternary values along the other route, and both
run the perimeter batch kernel that ``metric`` gives ``usual_metric``.
The two stock maps are piecewise linear with one breakpoint each; both
contract toward 0 below the breakpoint and translate above it.
"""

from __future__ import annotations

import math
import os

# The piecewise-linear records live in ``metric``; they still import from here.
from .metric import (DifferenceMetric, GMetric, MultMetric, PiecewiseMap, PiecewiseRow, Record,
                     SelfMap, gm_from_exp, gm_from_product, piecewise_map, usual_metric)
from .contraction import ContractionParams


#: Multiplicative metric e^{|x - y|}, held in log-domain.
EXP_ABS_METRIC = MultMetric(dist=usual_metric, description="e^|x-y|", batch=usual_metric)


# The two stock maps.  Each breakpoint belongs to the translation branch
# on its right: x/4 jumps there, x/2 meets x - 1/4 continuously.
quarter_shift_map = piecewise_map([
    PiecewiseRow(lo=0.0, hi=1.0 / 3.0, slope=0.25, offset=0.0),
    PiecewiseRow(lo=1.0 / 3.0, hi=math.inf, slope=1.0, offset=-1.0 / 3.0),
])

half_shift_map = piecewise_map([
    PiecewiseRow(lo=0.0, hi=0.5, slope=0.5, offset=0.0),
    PiecewiseRow(lo=0.5, hi=math.inf, slope=1.0, offset=-0.25),
])


class NamedFixture(Record):
    """A registered space, optionally with a self-map and its parameters."""

    id: str
    gmetric: GMetric
    mult: MultMetric | None = None
    map: SelfMap | None = None
    params: ContractionParams | None = None


_STOCK_PARAMS = ContractionParams(eta=5.0 / 8.0, gamma=11.0 / 2.0, seed_point=1.0 / 3.0)

_EXP_USUAL = gm_from_exp(usual_metric, description="exp-usual")
_PRODUCT_EXP = gm_from_product(EXP_ABS_METRIC, description="product-exp")

_REGISTRY = (
    NamedFixture(id="exp-usual", gmetric=_EXP_USUAL),
    NamedFixture(id="product-exp", gmetric=_PRODUCT_EXP, mult=EXP_ABS_METRIC),
    NamedFixture(id="ex33", gmetric=_EXP_USUAL, map=quarter_shift_map, params=_STOCK_PARAMS),
    NamedFixture(id="ex37", gmetric=_EXP_USUAL, map=half_shift_map, params=_STOCK_PARAMS),
)


def registry() -> list[NamedFixture]:
    """All stock fixtures, in a stable order."""
    return list(_REGISTRY)


def get_fixture(fixture_id: str) -> NamedFixture | None:
    for fx in _REGISTRY:
        if fx.id == fixture_id:
            return fx
    return None


# ---------------------------------------------------------------------------
# User-defined fixtures from JSON config


def _number(value, what: str) -> float:
    """``float(value)`` of a JSON number, an int or a float by exact type
    (a bool or a numeric string is none), or a ValueError naming it."""
    try:
        number = float(value)
        if type(value) not in (int, float):
            raise TypeError(f"got {type(value).__name__} {value!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a number: {exc}") from None
    return number


def _key(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f'{where} has no "{key}"')
    return obj[key]


def _parse_rows(entries, owner: str) -> list[PiecewiseRow]:
    if not isinstance(entries, list):
        raise ValueError(f"{owner} rows must be a JSON array")
    rows = []
    for i, entry in enumerate(entries, 1):
        where = f"{owner} row {i}"
        interval = _key(entry, "interval", where)
        if not (isinstance(interval, list) and len(interval) == 2):
            raise ValueError(f'{where} "interval" must be a [lo, hi] pair')
        lo, hi = interval
        rows.append(PiecewiseRow(
            lo=-math.inf if lo is None else _number(lo, f'{where} "interval" lo'),
            hi=math.inf if hi is None else _number(hi, f'{where} "interval" hi'),
            slope=_number(_key(entry, "slope", where), f'{where} "slope"'),
            offset=_number(_key(entry, "offset", where), f'{where} "offset"'),
        ))
    return rows


def _parse_space(space) -> tuple[GMetric, MultMetric | None]:
    if space == "exp-usual":
        return _EXP_USUAL, None
    if space == "product-exp":
        return _PRODUCT_EXP, EXP_ABS_METRIC
    if isinstance(space, dict) and space.get("kind") == "product-pl":
        # Log-distance given as a piecewise-linear function of the signed
        # difference x - y; deliberately expressive enough to describe
        # broken (e.g. non-symmetric) metric candidates for auditing.
        d = DifferenceMetric(piecewise_map(_parse_rows(_key(space, "rows", "space"), "space")))
        return gm_from_product(d), d
    raise ValueError(f"unknown space {space!r}")


def load_fixture_config(source: str | os.PathLike | dict) -> NamedFixture:
    """Build a fixture from a JSON config (path or already-parsed dict).

    Schema::

        {
          "id": "custom",                       # optional
          "space": "exp-usual" | "product-exp"
                   | {"kind": "product-pl", "rows": [...]},
          "map":   [{"interval": [lo, hi], "slope": s, "offset": o}, ...],
          "params": {"eta": e, "gamma": g, "x0": x}   # optional with map
        }

    ``map`` rows use half-open cells [lo, hi); null endpoints mean
    unbounded.  Raises ValueError on a bad config, naming a missing key,
    a value of the wrong JSON type (a number is an int or a float, not a
    bool or a string) or a number ``float`` rejects, and where it is;
    reading a path may also raise OSError, and parsing JSON nested too
    deep RecursionError.
    """
    if isinstance(source, dict):
        doc = source
    else:
        import json  # only a config file needs the parser
        with open(source) as f:
            doc = json.load(f)

    gmetric, mult = _parse_space(_key(doc, "space", "config"))
    selfmap = piecewise_map(_parse_rows(doc["map"], "map")) if "map" in doc else None
    params = None
    if "params" in doc:
        p = doc["params"]
        params = ContractionParams(eta=_number(_key(p, "eta", "params"), 'params "eta"'),
                                   gamma=_number(_key(p, "gamma", "params"), 'params "gamma"'),
                                   seed_point=_number(_key(p, "x0", "params"), 'params "x0"'))
    return NamedFixture(
        id=str(doc.get("id", "config")),
        gmetric=gmetric,
        mult=mult,
        map=selfmap,
        params=params,
    )
