"""Multiplicative distance functions on the nonnegative reals.

A multiplicative metric takes values >= 1 and multiplies along paths
instead of adding, so everything here is stored and evaluated in
log-domain: a binary metric maps a pair to ln(d) >= 0, a ternary one
maps a triple to ln(G) >= 0, and coincidence (distance exactly 1)
becomes log value 0.  Exponentiation happens only at API boundaries
(``GMetric.value``, reports, the CLI).

Self-maps live here too, with the piecewise-linear maps and spaces of
every fixture and their exact view in integer ratios.

The records here and in the other modules are ``Record`` subclasses:
frozen, compared and hashed by their fields.  The sampled axiom audits
live in ``sampling``.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections.abc import Callable


class NumpyMissing(ModuleNotFoundError):
    """numpy is not installed, and an array evaluation needs it."""


class _MissingNumpy:
    """Stands in for numpy when it is not installed: the scalar commands
    run without it, and the first array use raises NumpyMissing."""

    def __getattr__(self, name: str):
        raise NumpyMissing("numpy is not installed; sampled audits and sweeps need it",
                           name="numpy")


def _lazy_numpy():
    # Importing numpy is most of a fresh process's start-up, and the
    # scalar commands (solve, reproduce) never use it.  The module loads
    # on its first attribute access, and is numpy itself when numpy was
    # imported before this package.
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return _MissingNumpy()
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


#: The package's one handle on numpy, which the other modules import
#: from here: on Python 3.11 a plain ``import numpy`` of the lazy module
#: reads its ``__spec__`` and so loads it.
np = _lazy_numpy()

# Slack for log-domain inequality checks; the relations scale it (``_slack``).
# Must sit far below any quantity of interest (the smallest fixture scale is ~1/3).
SLACK = 1e-12

# The floor rule, with no slack: a distance is at least 1, so a log value
# below 0 breaks it, as the ">=" against 0 that its witnesses record
# re-checks (a NaN fails the other checks).  Rounding is monotone, so a
# built-in space's value is below 0 only where an exact pair term is.  The
# axiom audit, the predicates, the region sweep and the solver all test it.

Point = float
LogDistance = float


class Record:
    """Base of the package's frozen records.

    The fields are the names annotated in the class body, in order; a
    class attribute of the same name is the field's default, shared by
    every record that takes it, so a default must be immutable.
    A record is built from positional or keyword arguments, then
    ``__post_init__`` validates it.  Its fields cannot be assigned, and
    ``==``, ``hash`` and ``repr`` go by the fields.  Copying and pickling
    restore the fields through ``__dict__``, without validating again.
    """

    _fields: tuple[str, ...]
    _defaults: dict[str, object]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        cls, names = type(self), self._fields
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got "
                            f"{len(args)} positional and the keywords {sorted(kwargs)}")
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if len(values) < len(names):
            raise TypeError(f"{cls.__name__}() missing {[n for n in names if n not in values]}")
        for n in names:  # object.__setattr__: filling self.__dict__ slows every read
            object.__setattr__(self, n, values[n])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def _asdict(self) -> dict:
        """The fields by name, in declaration order, not copied (a report's
        ``to_dict`` copies the ones that are not immutable leaves)."""
        return {n: getattr(self, n) for n in self._fields}

    def replace(self, **changes) -> Record:
        """A copy with some fields changed, validated as a new record."""
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        # a dict field hashes by its items, as == compares it
        return hash(tuple(frozenset(v.items()) if isinstance(v, dict) else v
                          for v in self._asdict().values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in self._asdict().items())
        return f"{type(self).__qualname__}({body})"


class Interval(Record):
    """Closed interval [lo, hi] of carrier points; hi may be +inf.

    Carrier points are finite reals, so an infinite end bounds the
    interval without belonging to it: ``contains`` is False for +-inf
    and NaN whatever the ends.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi and math.isfinite(x)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _evaluate_many(scalar: Callable[..., float], batch: Callable[..., np.ndarray] | None,
                   *args: np.ndarray) -> np.ndarray:
    """Evaluate a kernel elementwise over equal-length float64 arrays.

    ``batch`` takes the arrays and returns a float64 array holding
    bitwise the floats ``scalar`` returns.  Without one, ``scalar`` is
    called once per element, on Python floats.
    """
    if batch is not None:
        return np.asarray(batch(*args), dtype=np.float64)
    columns = [a.tolist() for a in args]
    return np.fromiter(map(scalar, *columns), dtype=np.float64, count=len(columns[0]))


class MultMetric(Record):
    """Binary multiplicative metric candidate, evaluated in log-domain.

    ``dist(x, y)`` returns ln of the multiplicative distance; for a
    valid metric that is >= 0, zero exactly on the diagonal, symmetric,
    and subadditive (the multiplicative triangle inequality).  The
    optional ``batch`` is ``dist`` over float64 arrays: it returns
    bitwise the floats ``dist`` returns, NaN payloads aside, and ``many``
    calls ``dist`` once per pair when it is missing.  Its arguments may
    be read-only views, and it must not write them.
    """

    dist: Callable[[Point, Point], LogDistance]
    description: str = ""
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, x: Point, y: Point) -> LogDistance:
        return self.dist(x, y)

    def many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``dist`` of each pair of elements of two float64 arrays."""
        return _evaluate_many(self.dist, self.batch, x, y)


class GMetric(Record):
    """Ternary multiplicative metric candidate, evaluated in log-domain.

    ``g`` is its one scalar kernel: the ball, the seed condition and the
    solver read a pair term G(x, y, y) as ``g(x, y, y)``.  The optional
    ``batch`` is ``g`` over float64 arrays: it returns bitwise the floats
    ``g`` returns, NaN payloads aside (which NaN a sum keeps depends on
    the build), and ``many`` calls ``g`` once per triple when it is missing.
    Its arguments may be read-only views (a ball's centre is one float
    broadcast to the sample's length), and it must not write them.
    """

    g: Callable[[Point, Point, Point], LogDistance]
    description: str = ""
    batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, x: Point, y: Point, z: Point) -> LogDistance:
        return self.g(x, y, z)

    def value(self, x: Point, y: Point, z: Point) -> float:
        """Multiplicative (exponentiated) distance of the triple."""
        return math.exp(self.g(x, y, z))

    def many(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``g`` of each triple of elements of three float64 arrays."""
        return _evaluate_many(self.g, self.batch, x, y, z)


class SelfMap(Record):
    """A self-map of the carrier with an explicit domain interval.

    The optional ``batch`` is ``apply`` over a float64 array: it returns
    bitwise the floats ``apply`` returns, NaN payloads aside, and
    ``many`` calls ``apply`` once per point when it is missing.  Its
    argument may be a read-only view, and it must not write it.
    """

    apply: Callable[[Point], Point]
    domain: Interval = Interval(0.0, math.inf)
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: Point) -> Point:
        return self.apply(x)

    def many(self, x: np.ndarray) -> np.ndarray:
        """``apply`` of each element of a float64 array."""
        return _evaluate_many(self.apply, self.batch, x)


class ClosedBall(Record):
    """Closed ball {rho : G(center, rho, rho) <= radius}.

    The radius is a multiplicative scale (gamma > 0).  The ball holds its
    centre iff G(center, center, center) <= gamma.  That value is 1 in a
    multiplicative metric space, such as the stock spaces, where gamma < 1
    gives the empty ball, which is legal everywhere.  A ``product-pl``
    config space whose M(0) is not 0 has G(c, c, c) = e^{3 M(0)} instead.
    """

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center) and self.center >= 0.0):
            raise ValueError("ball center (seed point) must be a nonnegative finite real, "
                             f"got {self.center}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("ball radius (gamma) must be a positive finite real, "
                             f"got {self.radius}")

    @property
    def log_radius(self) -> float:
        return math.log(self.radius)

    def __str__(self) -> str:
        return f"ball(center={self.center}, radius={self.radius})"


def ball_contains(g: GMetric, ball: ClosedBall, rho: Point) -> bool:
    """Membership test for the closed ball, in log-domain."""
    return g.g(ball.center, rho, rho) <= ball.log_radius


# ---------------------------------------------------------------------------
# Constructions


def usual_metric(x: Point, y: Point) -> float:
    """Ordinary distance |x - y|; elementwise on float64 arrays too."""
    return abs(x - y)


def _ascending_sum(a: float, b: float, c: float) -> float:
    # Three terms added smallest-first, so every order of the same three
    # floats gives the bitwise-identical sum.  The swaps on strict < are
    # a stable sort: ties and signed zeros keep their order.
    if b < a:
        a, b = b, a
    if c < b:
        b, c = c, b
        if b < a:
            a, b = b, a
    return a + b + c


def _sorted_sum_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # _ascending_sum over three float64 arrays the caller owns and lets it
    # overwrite, by a minimum/maximum network: with no summand -0.0, equal
    # floats are the same bits, so each minimum or maximum is the float a
    # swap gives, and a NaN makes the sum NaN either way.
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=a)
    mid = np.minimum(hi, c, out=b)
    np.maximum(lo, mid, out=mid)
    top = np.maximum(hi, c, out=hi)
    bottom = np.minimum(lo, c, out=c)
    np.add(bottom, mid, out=bottom)
    return np.add(bottom, top, out=bottom)


def _perimeter_batch(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    # The perimeter |x - y| + |y - z| + |z - x| over arrays, the g of
    # both stock spaces.  It needs no canonical pair order: under
    # round-to-nearest x - y is exactly -(y - x), signed zeros included,
    # so abs gives the float of g's ordered call, and an abs is never
    # -0.0.  x, y and z are never written.
    if y is z or x is y:
        # A pair term G(u, v, v) or G(v, v, u) is |u - v| twice plus
        # |v - v|: 0, or a NaN where v is not finite, its sign cleared as
        # g's abs clears it.
        u, v = (x, y) if y is z else (z, y)
        a = np.subtract(u, v)
        b = np.subtract(v, v)
        np.abs(a, out=a)
        np.abs(b, out=b)
        np.add(a, a, out=a)
        return np.add(a, b, out=a)
    a = np.subtract(x, y)
    b = np.subtract(y, z)
    c = np.subtract(z, x)
    np.abs(a, out=a)
    np.abs(b, out=b)
    np.abs(c, out=c)
    return _sorted_sum_batch(a, b, c)


class PairSumMetric(GMetric):
    """The product of the three pairwise distances of ``d`` (a sum in
    log-domain), the generic ternary metric of a pair metric.

    Each unordered pair is evaluated in canonical argument order, since
    ``d`` may be asymmetric, plus 0.0 (so -0.0 counts as 0.0), and the
    three terms are added smallest-first, so every permutation of (x, y, z)
    gives the bitwise-identical float.  ``batch`` does the same over
    float64 arrays through ``d.many``, hence ``g``'s floats.
    """

    d: MultMetric
    description: str

    def g(self, x: Point, y: Point, z: Point) -> LogDistance:
        dist = self.d.dist
        return _ascending_sum((dist(x, y) if x <= y else dist(y, x)) + 0.0,
                              (dist(y, z) if y <= z else dist(z, y)) + 0.0,
                              (dist(z, x) if z <= x else dist(x, z)) + 0.0)

    def batch(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _sorted_sum_batch(self._pair(x, y), self._pair(y, z), self._pair(z, x))

    def _pair(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # a new array, never d's own batch output, that the sort may write
        first = u <= v
        return np.add(self.d.many(np.where(first, u, v), np.where(first, v, u)), 0.0)


class PerimeterMetric(PairSumMetric):
    """The ``PairSumMetric`` of ``usual_metric``, whose batch kernel is the
    perimeter's own."""

    d: MultMetric
    description: str
    batch = staticmethod(_perimeter_batch)


def gm_from_product(d: MultMetric, description: str = "") -> PairSumMetric:
    """Ternary metric from a multiplicative metric, the product of its three pairwise
    distances: a ``PerimeterMetric`` for ``usual_metric``, else a ``PairSumMetric``."""
    label = description or (f"pairwise product of {d.description}" if d.description
                            else "pairwise product metric")
    return (PerimeterMetric if d.dist is usual_metric else PairSumMetric)(d, label)


def gm_from_exp(d: Callable[[Point, Point], float], description: str = "") -> PairSumMetric:
    """Ternary metric from an ordinary metric: exp of the perimeter
    d(x,y) + d(y,z) + d(z,x).  Stored in log-domain, that is the pairwise
    product of the multiplicative metric e^d, whose log is ``d`` itself."""
    return gm_from_product(MultMetric(dist=d), description or "exp of pairwise perimeter")


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


def _slack(lhs, rhs):
    # SLACK t / (1 + t) for t = |lhs| + |rhs|, at most SLACK and near 0 a
    # share of the sides, never swamping them; halved, so no finite t overflows
    t = 0.5 * abs(lhs)
    t += 0.5 * abs(rhs)
    t /= 0.5 + t
    t *= SLACK
    return t


# Each required relation between lhs_log and rhs_log: whether ``lhs
# relation rhs`` holds within ``_slack``, for floats and float64 arrays
# alike (elementwise), and only between finite sides: a NaN fails every
# comparison, and each relation also rules out the infinite sides that
# would pass its comparison.  ">" asks for a margin, so it keeps the
# whole SLACK: a scaled one would pass rounding noise as a distance.
# The scalar path calls no numpy.
_RELATIONS = {
    "<=": lambda lhs, rhs: ((lhs <= rhs + _slack(lhs, rhs))
                            & (lhs > -math.inf) & (rhs < math.inf)),
    ">=": lambda lhs, rhs: ((lhs >= rhs - _slack(lhs, rhs))
                            & (lhs < math.inf) & (rhs > -math.inf)),
    ">": lambda lhs, rhs: (lhs > rhs + SLACK) & (lhs < math.inf) & (rhs > -math.inf),
    "==": lambda lhs, rhs: abs(lhs - rhs) <= _slack(lhs, rhs),
}


class Witness(Record):
    """One violated check: the points involved and both sides of the
    required relation, in log-domain.

    ``relation`` is the relation that was *required* to hold between
    lhs_log and rhs_log: one of "<=", ">=", ">" or "==" (within slack).
    """

    rule: str
    points: tuple[float, ...]
    lhs_log: float
    rhs_log: float
    relation: str = "<="

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def holds(self) -> bool:
        """Re-evaluate the required relation from the stored sides."""
        return bool(_RELATIONS[self.relation](self.lhs_log, self.rhs_log))


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


def _ratio(n: int, d: int, side: int) -> float:
    # n / d as a float: the nearest (side 0), or the one below (-1) or above (1)
    # it, so a float test re-checks; +-inf past the largest or as +-1 / 0, 0 / 0 NaN
    try:
        r = n / d
    except (OverflowError, ZeroDivisionError):
        r = math.inf if n > 0 else -math.inf if n else math.nan
    return math.nextafter(r, side * math.inf) if _diff(n, d, r) * side > 0 else r


def _row(rows: tuple[PiecewiseRow, ...], n: int, d: int) -> PiecewiseRow:
    # the row whose cell holds n / d; for a float's ratio, the row apply uses
    for row in rows:
        if _diff(n, d, row.lo) >= 0 > _diff(n, d, row.hi):
            return row
    raise _outside(_ratio(n, d, 0))


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
