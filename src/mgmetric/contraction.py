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

from .metric import (ClosedBall, GMetric, LogDistance, Point, Record, SelfMap, _RELATIONS,
                     _diff, _ratio, exact_step)


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


def _validate_eta(eta: float) -> None:
    if not (0.0 <= eta < 1.0):
        raise ValueError(f"eta must lie in [0, 1), got {eta}")


def _root_majorant(g, x, y, z, fx, fy, maximum, minimum):
    return g(x, y, z)


# np.maximum and np.minimum on two scalars, floats or exact ratios,
# without numpy: the first argument if it is NaN or strictly wins, else
# the second, so a NaN propagates and a tie (0.0 against -0.0 included)
# returns the second.
def _maximum(a, b):
    return a if a > b or a != a else b


def _minimum(a, b):
    return a if a < b or a != a else b


def _implicit_majorant(g, x, y, z, fx, fy, maximum, minimum):
    # The maximum and minimum return their second argument on ties, so
    # the earlier term goes second: ties keep it, as Python's min and max
    # do.  Unlike those, they propagate a NaN.  Each term is folded in as
    # soon as it is made, so a batch keeps no term alive past its fold.
    acc = g(x, y, z)
    acc = maximum(g(x, fx, fx), acc)
    acc = maximum(g(y, fy, fy), acc)
    acc = maximum(g(x, fy, fy), acc)
    return maximum(minimum(g(x, z, z), g(z, fx, fx)), acc)


# The majorant M of each condition, which must satisfy
# g(Fx, Fy, Fz) <= eta * M.  Each takes the metric, the triple, the
# images Fx, Fy and the maximum and minimum of two values: scalars with
# ``g``, ``F`` and ``_maximum``, ``_minimum``, or arrays with their
# ``many`` and ``np.maximum``, ``np.minimum``.
_MAJORANTS = {"root": _root_majorant, "implicit": _implicit_majorant}


def _check_condition(name: str, label: str) -> None:
    if name not in _MAJORANTS:
        raise ValueError(f"{label} must be {' or '.join(map(repr, _MAJORANTS))}, got {name!r}")


def _condition_sides(condition: str, g, F, eta: float, x, y, z, maximum, minimum):
    """Both sides of a condition, lhs g(Fx,Fy,Fz) and rhs eta * M: for
    scalars or for arrays, as the majorants take them.  A pair term
    G(a, b) is ``g(a, b, b)``; a caller that checks the floor wraps ``g``,
    which sees each triple once, lhs first, in a fixed order."""
    fx, fy = F(x), F(y)
    lhs = g(fx, fy, F(z))
    return lhs, eta * _MAJORANTS[condition](g, x, y, z, fx, fy, maximum, minimum)


def _condition_holds(condition: str, g: GMetric, F: SelfMap, eta: float,
                     x: Point, y: Point, z: Point) -> bool:
    _validate_eta(eta)
    used = []

    def metric(*triple):  # scalars: each value is kept for the floor rule
        used.append(g(*triple))
        return used[-1]

    lhs, rhs = _condition_sides(condition, metric, F, eta, x, y, z, _maximum, _minimum)
    return bool(_RELATIONS["<="](lhs, rhs)) and not any(v < 0.0 for v in used)


def root_contraction_holds(g: GMetric, F: SelfMap, eta: float,
                           x: Point, y: Point, z: Point) -> bool:
    """Pointwise contraction test g(Fx,Fy,Fz) <= eta * g(x,y,z); False
    when a metric value it uses is below the floor."""
    return _condition_holds("root", g, F, eta, x, y, z)


def _step_ratio(g: GMetric, F: SelfMap, x: Point, step: LogDistance) -> tuple[int, int]:
    # a certified step G(x, Fx, Fx), g's float ``step``, as an integer ratio:
    # exact_step's where it applies, else the float's, +-inf as +-1 / 0, NaN 0 / 0
    if (exact := exact_step(g, F, x)) is not None:
        return exact
    return step.as_integer_ratio() if math.isfinite(step) else ((step > 0) - (step < 0), 0)


def _seed(g: GMetric, F: SelfMap, params: ContractionParams) -> tuple[bool, tuple[int, int]]:
    # seed_condition_holds's verdict on a seed of F's domain, and the seed's step
    n, d = _step_ratio(g, F, x0 := params.seed_point, g.g(x0, fx0 := F(x0), fx0))
    (en, ed), (gn, gd) = params.eta.as_integer_ratio(), params.gamma.as_integer_ratio()
    bn, bd = (ed - en) * gn, ed * gd
    holds = n == 0 < d and bn >= bd  # 0 / 0, a NaN step, never holds
    if n > 0 and bn > bd:
        holds = _diff(n, d, math.nextafter(math.log(_ratio(bn, bd, -1)), -math.inf)) <= 0
    return holds, (n, d)


def seed_condition_holds(g: GMetric, F: SelfMap, params: ContractionParams) -> bool:
    """Seed admissibility: G(x0, Fx0, Fx0) <= B = (1 - eta) * gamma.

    The step is ``metric.exact_step``'s ratio where that applies, else
    g's float, and fails when NaN, infinite or below the floor.  B is the
    exact product of the two floats.  A zero step holds when B >= 1, a
    positive one when it is at most one ulp below math.log of B rounded
    down: a step within a few ulps of ln B is violated, never held.  A
    seed outside F's domain, where it has no image, fails too.
    """
    return F.domain.contains(params.seed_point) and _seed(g, F, params)[0]


def implicit_bound(g: GMetric, F: SelfMap, eta: float,
                   x: Point, y: Point, z: Point) -> LogDistance:
    """Log-domain value of the implicit majorant: eta times the max of
    the five reference distances at (x, y, z)."""
    _validate_eta(eta)
    return float(_condition_sides("implicit", g, F, eta, x, y, z, _maximum, _minimum)[1])


def implicit_contraction_holds(g: GMetric, F: SelfMap, eta: float,
                               x: Point, y: Point, z: Point) -> bool:
    """Pointwise implicit test g(Fx,Fy,Fz) <= eta * max-term; False when
    a metric value it uses is below the floor."""
    return _condition_holds("implicit", g, F, eta, x, y, z)
