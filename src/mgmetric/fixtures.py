"""Stock spaces and self-maps, plus JSON-config fixtures for the CLI.

The two stock spaces live on the nonnegative reals: "exp-usual" is the
exponential of the pairwise perimeter of the usual distance, and
"product-exp" is the pairwise product of the multiplicative distance
e^{|x - y|}: the same ternary values along the other route, and both
run the one perimeter kernel that ``metric`` gives ``usual_metric``.
The two stock maps are piecewise linear with one breakpoint each; both
contract toward 0 below the breakpoint and translate above it.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path

from .metric import (GMetric, Interval, MultMetric, Record, gm_from_exp, gm_from_product, np,
                     usual_metric)
from .contraction import ContractionParams, SelfMap


#: Multiplicative metric e^{|x - y|}, held in log-domain.
EXP_ABS_METRIC = MultMetric(dist=usual_metric, description="e^|x-y|", batch=usual_metric)


class PiecewiseRow(Record):
    """One linear piece slope * x + offset on the half-open cell [lo, hi)."""

    lo: float
    hi: float
    slope: float
    offset: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty piecewise cell: [{self.lo}, {self.hi})")
        if not (math.isfinite(self.slope) and math.isfinite(self.offset)):
            raise ValueError(f"piecewise slope and offset must be finite, "
                             f"got {self.slope} and {self.offset}")


def _outside(x: float) -> ValueError:
    return ValueError(f"point {x} is outside the piecewise rows")


class _Piecewise:
    """Contiguous rows sorted by ``lo``, evaluated at one point or over a
    float64 array (the row counted as the inner breakpoints at or below
    each point, then the same arithmetic).  The arrays are built on the
    first batch call, not with the rows: the stock maps are built at
    import, and a scalar command makes no batch call."""

    def __init__(self, rows: list[PiecewiseRow]):
        self.cells = tuple(sorted(rows, key=lambda r: r.lo))
        if not self.cells:
            raise ValueError("piecewise rows must not be empty")
        for a, b in zip(self.cells, self.cells[1:]):
            if a.hi != b.lo:
                raise ValueError(f"piecewise cells must be contiguous: {a.hi} != {b.lo}")

    @cached_property
    def _arrays(self) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
        """The inner breakpoints, and the slope and offset of each cell."""
        cuts = tuple(r.lo for r in self.cells[1:])
        slopes = np.array([r.slope for r in self.cells], dtype=np.float64)
        offsets = np.array([r.offset for r in self.cells], dtype=np.float64)
        return cuts, slopes, offsets

    def __deepcopy__(self, memo) -> _Piecewise:
        # The rows are frozen and _arrays only caches them, so a copy is
        # this object: the bound at and batch of a copied SelfMap keep
        # their __self__ and the copy stays == to its source.
        return self

    def at(self, x: float) -> float:
        for row in self.cells:
            if row.lo <= x < row.hi:
                return row.slope * x + row.offset
        raise _outside(x)

    def batch(self, x: np.ndarray) -> np.ndarray:
        # The cells are contiguous: together they cover [first lo, last hi),
        # and the cell of x is the number of inner breakpoints <= x.
        inside = (self.cells[0].lo <= x) & (x < self.cells[-1].hi)
        if not inside.all():
            raise _outside(float(x[np.flatnonzero(~inside)[0]]))
        # One compare per breakpoint: a stock or config map has a few rows,
        # and a binary search costs several compares' time per point.
        cuts, slopes, offsets = self._arrays
        row = np.zeros(x.shape, dtype=np.intp)
        for cut in cuts:
            row += x >= cut
        # slope * x + offset, formed in the array take returns
        y = slopes.take(row)
        y *= x
        y += offsets.take(row)
        return y


def piecewise_map(rows: list[PiecewiseRow]) -> SelfMap:
    """Self-map from contiguous piecewise-linear rows; each breakpoint
    belongs to the cell on its right.  The last cell is half-open too, so
    a finite right end is left out of the domain, which stops at the
    float just below it."""
    pw = _Piecewise(rows)
    hi = pw.cells[-1].hi
    return SelfMap(
        apply=pw.at,
        domain=Interval(pw.cells[0].lo, hi if hi == math.inf else math.nextafter(hi, -math.inf)),
        batch=pw.batch,
    )


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


def _parse_endpoint(v, sign: float) -> float:
    return sign * math.inf if v is None else float(v)


def _parse_rows(entries: list) -> list[PiecewiseRow]:
    rows = []
    for entry in entries:
        lo, hi = entry["interval"]
        rows.append(PiecewiseRow(
            lo=_parse_endpoint(lo, -1.0),
            hi=_parse_endpoint(hi, +1.0),
            slope=float(entry["slope"]),
            offset=float(entry["offset"]),
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
        pw = _Piecewise(_parse_rows(space["rows"]))
        at = pw.at
        d = MultMetric(
            dist=lambda x, y: at(x - y),
            description="piecewise log-distance of x - y",
            batch=lambda x, y: pw.batch(x - y),
        )
        return gm_from_product(d), d
    raise ValueError(f"unknown space {space!r}")


def load_fixture_config(source: str | Path | dict) -> NamedFixture:
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
    unbounded.  Raises ValueError (or json/KeyError) on a bad config.
    """
    if isinstance(source, dict):
        doc = source
    else:
        import json  # only a config file needs the parser
        doc = json.loads(Path(source).read_text())

    gmetric, mult = _parse_space(doc["space"])
    selfmap = None
    if "map" in doc:
        selfmap = piecewise_map(_parse_rows(doc["map"]))
    params = None
    if "params" in doc:
        p = doc["params"]
        params = ContractionParams(eta=float(p["eta"]), gamma=float(p["gamma"]),
                                   seed_point=float(p["x0"]))
    return NamedFixture(
        id=str(doc.get("id", "config")),
        gmetric=gmetric,
        mult=mult,
        map=selfmap,
        params=params,
    )
