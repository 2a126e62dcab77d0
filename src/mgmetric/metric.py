"""Multiplicative distance functions on the nonnegative reals.

A multiplicative metric takes values >= 1 and multiplies along paths
instead of adding, so everything here is stored and evaluated in
log-domain: a binary metric maps a pair to ln(d) >= 0, a ternary one
maps a triple to ln(G) >= 0, and coincidence (distance exactly 1)
becomes log value 0.  Exponentiation happens only at API boundaries
(``GMetric.value``, reports, the CLI).

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

# Absolute slack for inequality checks in log-domain.  Must sit far
# below any quantity of interest (the smallest fixture scale is ~1/3).
SLACK = 1e-12

# The floor rule: a multiplicative distance is at least 1, so a log value
# below LOG_FLOOR breaks it (a NaN fails the other checks).  The axiom
# audit, the pointwise predicates, the region sweep and the solver all
# test this one bound.
LOG_FLOOR = -SLACK

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
    bitwise the floats ``dist`` returns, and ``many`` calls ``dist`` once
    per pair when it is missing.  Its arguments may be read-only views,
    and it must not write them.
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
    ``g`` returns, and ``many`` calls ``g`` once per triple when it is
    missing.  Its arguments may be read-only views (a ball's centre is
    one float broadcast to the sample's length), and it must not write
    them.
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


# Each required relation between lhs_log and rhs_log, for floats and
# float64 arrays alike, and only between finite sides: a NaN fails every
# comparison, and each relation also rules out the infinite sides that
# would pass its comparison (an infinite side makes "==" compare NaN or
# inf).  The scalar path calls no numpy.
_RELATIONS = {
    "<=": lambda lhs, rhs: (lhs <= rhs + SLACK) & (lhs > -math.inf) & (rhs < math.inf),
    ">=": lambda lhs, rhs: (lhs >= rhs - SLACK) & (lhs < math.inf) & (rhs > -math.inf),
    ">": lambda lhs, rhs: (lhs > rhs + SLACK) & (lhs < math.inf) & (rhs > -math.inf),
    "==": lambda lhs, rhs: abs(lhs - rhs) <= SLACK,
}


def _relation_holds(relation: str, lhs, rhs):
    """Whether ``lhs relation rhs`` holds within SLACK, both sides finite;
    elementwise on float64 arrays."""
    try:
        test = _RELATIONS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None
    return test(lhs, rhs)


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

    def holds(self) -> bool:
        """Re-evaluate the required relation from the stored sides."""
        return bool(_relation_holds(self.relation, self.lhs_log, self.rhs_log))
