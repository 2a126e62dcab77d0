"""Stock spaces and self-maps, JSON-config fixtures for the CLI, and their exact view.

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

from .metric import (GMetric, Interval, MultMetric, PairSumMetric, PerimeterMetric, Record,
                     gm_from_exp, gm_from_product, np, usual_metric)
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


class PiecewiseMap(SelfMap):
    """The self-map of contiguous piecewise-linear rows sorted by ``lo``;
    each breakpoint belongs to the cell on its right.

    The rows are the only field, so ``==``, ``hash``, copying and
    pickling go by them.  ``apply`` finds the row of one point;
    ``batch`` counts the inner breakpoints at or below each point of a
    float64 array, then does the same arithmetic.  The last cell is
    half-open too, so a finite right end is left out of the domain, which
    stops at the float just below it.
    """

    rows: tuple[PiecewiseRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("piecewise rows must not be empty")
        for a, b in zip(self.rows, self.rows[1:]):
            if a.hi != b.lo:
                raise ValueError(f"piecewise cells must be contiguous: {a.hi} != {b.lo}")

    @property
    def domain(self) -> Interval:
        hi = self.rows[-1].hi
        return Interval(self.rows[0].lo, hi if hi == math.inf else math.nextafter(hi, -math.inf))

    def apply(self, x: float) -> float:
        for row in self.rows:
            if row.lo <= x < row.hi:
                return row.slope * x + row.offset
        raise _outside(x)

    def batch(self, x: np.ndarray) -> np.ndarray:
        # The cells are contiguous: together they cover [first lo, last hi),
        # and the cell of x is the number of inner breakpoints <= x.
        rows = self.rows
        inside = (rows[0].lo <= x) & (x < rows[-1].hi)
        if not inside.all():
            raise _outside(float(x[np.flatnonzero(~inside)[0]]))
        # One compare per breakpoint: a stock or config map has a few rows,
        # and a binary search costs several compares' time per point.
        row = np.zeros(x.shape, dtype=np.intp)
        for r in rows[1:]:
            row += x >= r.lo
        # slope * x + offset, formed in the array take returns
        y = np.array([r.slope for r in rows], dtype=np.float64).take(row)
        y *= x
        y += np.array([r.offset for r in rows], dtype=np.float64).take(row)
        return y


def piecewise_map(rows: list[PiecewiseRow]) -> PiecewiseMap:
    """The map of contiguous rows given in any order."""
    return PiecewiseMap(tuple(sorted(rows, key=lambda r: r.lo)))


class DifferenceMetric(MultMetric):
    """The log-distance of a ``product-pl`` config space: its map applied
    to the signed difference x - y.  The map is the only field, so ``==``,
    ``hash``, copying and pickling go by its rows."""

    map: PiecewiseMap
    description = "piecewise log-distance of x - y"

    def dist(self, x: float, y: float) -> float:
        return self.map.apply(x - y)

    def batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.map.batch(x - y)


# ---------------------------------------------------------------------------
# The exact view: each space the CLI builds has a pair log-distance M(x - y)
# at the canonical pair x <= y, M piecewise linear, so G(x, y, y) is
# 2 M(-|x - y|) + M(0).  A rational is an integer ratio n / d with d > 0.

_ABS_ROWS = (PiecewiseRow(-math.inf, 0.0, -1.0, 0.0), PiecewiseRow(0.0, math.inf, 1.0, 0.0))


def pair_rows(g: GMetric) -> tuple[PiecewiseRow, ...] | None:
    """M's rows: |t| for the perimeter, a ``product-pl`` space's map, else None."""
    if isinstance(g, PerimeterMetric):
        return _ABS_ROWS
    d = g.d if isinstance(g, PairSumMetric) else None
    return d.map.rows if isinstance(d, DifferenceMetric) else None


def _diff(n: int, d: int, f: float) -> int:
    # n / d - f times a positive factor, exactly; +-inf is the ratio +-1 / 0
    fn, fd = f.as_integer_ratio() if math.isfinite(f) else (1 if f > 0 else -1, 0)
    return n * fd - fn * d


def _ratio(n: int, d: int) -> float:
    # n / d rounded to a float, +-inf past the largest one
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _row(rows: tuple[PiecewiseRow, ...], n: int, d: int) -> PiecewiseRow:
    # the row whose cell holds n / d; for a float's ratio, the row apply uses
    for row in rows:
        if _diff(n, d, row.lo) >= 0 > _diff(n, d, row.hi):
            return row
    raise _outside(_ratio(n, d))


def _at(rows: tuple[PiecewiseRow, ...], n: int, d: int) -> tuple[int, int]:
    # slope * t + offset on the row of t = n / d
    row = _row(rows, n, d)
    (sn, sd), (on, od) = row.slope.as_integer_ratio(), row.offset.as_integer_ratio()
    return sn * n * od + on * sd * d, sd * d * od


def exact_step(g: GMetric, F: SelfMap, x: float) -> tuple[int, int] | None:
    """G(x, Fx, Fx) as an exact rational, with Fx on the row ``F.apply``
    uses for x, when ``F`` is a PiecewiseMap and ``g`` has ``pair_rows``;
    else None.  A difference outside M's rows raises apply's ValueError."""
    M = pair_rows(g)
    if M is None or not isinstance(F, PiecewiseMap):
        return None
    xn, xd = x.as_integer_ratio()
    fn, fd = _at(F.rows, xn, xd)
    mn, md = _at(M, -abs(xn * fd - fn * xd), xd * fd)
    cn, cd = _at(M, 0, 1)
    return 2 * mn * cd + cn * md, md * cd


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
