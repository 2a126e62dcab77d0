"""Contractive conditions for self-maps of a multiplicative ternary space.

Two pointwise conditions are supported, both evaluated in log-domain:

* "root": the image triple contracts by a factor eta,
  g(Fx, Fy, Fz) <= eta * g(x, y, z);
* "implicit": the image triple is bounded by eta times the largest of
  five reference distances (one of them a min of two terms).

The paper states both with an m-th root; since t -> t**(1/m) is
strictly increasing, the truth value never depends on m, and the
predicates here evaluate the m = 1 form.  ``sampling.certify_region``
sweeps a condition over a sampled region.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .metric import (LOG_FLOOR, SLACK, ClosedBall, GMetric, Interval, LogDistance, Point, Record,
                     _evaluate_many, _relation_holds, np)


class ContractionParams(Record):
    """Parameter bundle certifying a contraction on a ball: factor eta,
    multiplicative ball radius gamma, and the seed point."""

    eta: float
    gamma: float
    seed_point: Point

    def __post_init__(self) -> None:
        _validate_eta(self.eta)
        self.ball  # the ball rule checks gamma and the seed point

    @property
    def ball(self) -> ClosedBall:
        return ClosedBall(center=self.seed_point, radius=self.gamma)

    @property
    def seed_budget(self) -> float:
        """The seed condition's multiplicative budget (1 - eta) * gamma."""
        return (1.0 - self.eta) * self.gamma


class SelfMap(Record):
    """A self-map of the carrier with an explicit domain interval.

    The optional ``batch`` is ``apply`` over a float64 array: it returns
    bitwise the floats ``apply`` returns, and ``many`` calls ``apply``
    once per point when it is missing.  Its argument may be a read-only
    view, and it must not write it.
    """

    apply: Callable[[Point], Point]
    domain: Interval = Interval(0.0, math.inf)
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: Point) -> Point:
        return self.apply(x)

    def many(self, x: np.ndarray) -> np.ndarray:
        """``apply`` of each element of a float64 array."""
        return _evaluate_many(self.apply, self.batch, x)


def _validate_eta(eta: float) -> None:
    if not (0.0 <= eta < 1.0):
        raise ValueError(f"eta must lie in [0, 1), got {eta}")


def _root_majorant(g, x, y, z, fx, fy):
    return g(x, y, z)


# np.maximum and np.minimum on two floats, without numpy: the first
# argument if it is NaN or strictly wins, else the second, so a NaN
# propagates and a tie (0.0 against -0.0 included) returns the second.
def _maximum(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a if a > b or a != a else b
    return np.maximum(a, b)


def _minimum(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a if a < b or a != a else b
    return np.minimum(a, b)


def _implicit_majorant(g, x, y, z, fx, fy):
    # The maximum and minimum return their second argument on ties, so
    # the earlier term goes second: ties keep it, as Python's min and max
    # do.  Unlike those, they propagate a NaN.
    acc = g(x, y, z)
    for term in (g(x, fx, fx), g(y, fy, fy), g(x, fy, fy), _minimum(g(x, z, z), g(z, fx, fx))):
        acc = _maximum(term, acc)
    return acc


# The majorant M of each condition, which must satisfy
# g(Fx, Fy, Fz) <= eta * M.  Each takes the metric, the triple and the
# images Fx, Fy, either as scalars with the scalar kernels or as arrays
# with the batch ones.
_MAJORANTS = {"root": _root_majorant, "implicit": _implicit_majorant}


def _check_condition(name: str, label: str) -> None:
    if name not in _MAJORANTS:
        raise ValueError(f"{label} must be 'root' or 'implicit', got {name!r}")


def _condition_sides(condition: str, g, F, eta: float, x, y, z):
    """Both sides of a condition, lhs g(Fx,Fy,Fz) and rhs eta * M, and
    every metric value they used with its triple, in call order: for
    scalars (``g`` a GMetric, ``F`` a SelfMap) or for arrays (their
    ``many``).  A pair term G(a, b) is ``g(a, b, b)``."""
    used = []

    def metric(*triple):
        value = g(*triple)
        used.append((triple, value))
        return value

    fx, fy, fz = F(x), F(y), F(z)
    lhs = metric(fx, fy, fz)
    return lhs, eta * _MAJORANTS[condition](metric, x, y, z, fx, fy), used


def _condition_holds(condition: str, g: GMetric, F: SelfMap, eta: float,
                     x: Point, y: Point, z: Point) -> bool:
    _validate_eta(eta)
    lhs, rhs, used = _condition_sides(condition, g, F, eta, x, y, z)
    return bool(_relation_holds("<=", lhs, rhs)) and not any(v < LOG_FLOOR for _, v in used)


def root_contraction_holds(g: GMetric, F: SelfMap, eta: float,
                           x: Point, y: Point, z: Point) -> bool:
    """Pointwise contraction test g(Fx,Fy,Fz) <= eta * g(x,y,z); False
    when a metric value it uses is below the floor."""
    return _condition_holds("root", g, F, eta, x, y, z)


def seed_condition_holds(g: GMetric, F: SelfMap, params: ContractionParams) -> bool:
    """Seed admissibility: g(x0, Fx0, Fx0) <= ln((1 - eta) * gamma).

    Returns False (not an error) when x0 is outside F's domain, where it
    has no image, when (1 - eta) * gamma < 1, where the budget is below
    the metric's floor and nothing can satisfy it (that includes a
    budget that underflows to 0), and when g(x0, Fx0, Fx0) is itself
    below the floor, where the space is no multiplicative metric space.
    Where ``fixtures.exact_step`` applies, its exact value must be within
    the budget too; other metrics and maps keep the float check.
    """
    from .fixtures import _diff, exact_step  # fixtures imports this module
    x0 = params.seed_point
    budget = params.seed_budget
    return (F.domain.contains(x0) and budget > 0.0
            and LOG_FLOOR <= g.g(x0, fx0 := F(x0), fx0) <= (bound := math.log(budget) + SLACK)
            and ((exact := exact_step(g, F, x0)) is None or _diff(*exact, bound) <= 0))


def implicit_bound(g: GMetric, F: SelfMap, eta: float,
                   x: Point, y: Point, z: Point) -> LogDistance:
    """Log-domain value of the implicit majorant: eta times the max of
    the five reference distances at (x, y, z)."""
    _validate_eta(eta)
    return float(_condition_sides("implicit", g, F, eta, x, y, z)[1])


def implicit_contraction_holds(g: GMetric, F: SelfMap, eta: float,
                               x: Point, y: Point, z: Point) -> bool:
    """Pointwise implicit test g(Fx,Fy,Fz) <= eta * max-term; False when
    a metric value it uses is below the floor."""
    return _condition_holds("implicit", g, F, eta, x, y, z)
