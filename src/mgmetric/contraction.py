"""Contractive conditions for self-maps of a multiplicative ternary space.

Two pointwise conditions are supported, both evaluated in log-domain:

* "root": the image triple contracts by a factor eta,
  g(Fx, Fy, Fz) <= eta * g(x, y, z);
* "implicit": the image triple is bounded by eta times the largest of
  five reference distances (one of them a min of two terms).

Both come with an m-th-root variant; since t -> t**(1/m) is strictly
increasing, the truth value never depends on m, and the predicates here
evaluate the m = 1 form.  ``certify_region`` sweeps a condition over a
sampled region, evaluating whole sample arrays at once, and returns a
deterministic, re-checkable report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict
from typing import Callable

from .metric import (
    SLACK,
    ClosedBall,
    GMetric,
    Interval,
    LogDistance,
    Point,
    Witness,
    _evaluate_many,
    _fields_dict,
    _Recorder,
    _check_sample_count,
    _in_ball,
    _relation_holds,
    _with_corners,
    ball_contains,
    np,
)


class EmptyRegion(RuntimeError):
    """No sampled point lies in the requested region."""


@dataclass(frozen=True)
class ContractionParams:
    """Parameter bundle certifying a contraction on a ball: factor eta,
    multiplicative ball radius gamma, the seed point, and the root index m."""

    eta: float
    gamma: float
    seed_point: Point
    m: int = 1

    def __post_init__(self) -> None:
        _validate_eta_m(self.eta, self.m)
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be a positive finite real, got {self.gamma}")
        if not (math.isfinite(self.seed_point) and self.seed_point >= 0.0):
            raise ValueError(f"seed point must be a nonnegative finite real, got {self.seed_point}")

    @property
    def ball(self) -> ClosedBall:
        return ClosedBall(center=self.seed_point, radius=self.gamma)


@dataclass(frozen=True)
class SelfMap:
    """A self-map of the carrier with an explicit domain interval.

    The optional ``batch`` is ``apply`` over a float64 array: it returns
    bitwise the floats ``apply`` returns, and ``many`` calls ``apply``
    once per point when it is missing.
    """

    apply: Callable[[Point], Point]
    description: str = ""
    domain: Interval = Interval(0.0, math.inf)
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: Point) -> Point:
        return self.apply(x)

    def many(self, x: np.ndarray) -> np.ndarray:
        """``apply`` of each element of a float64 array."""
        return _evaluate_many(self.apply, self.batch, x)


def _validate_eta_m(eta: float, m: int = 1) -> None:
    if not (0.0 <= eta < 1.0):
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if not (isinstance(m, int) and m >= 1):
        raise ValueError(f"root index m must be an integer >= 1, got {m}")


def _root_majorant(g, x, y, z, fx, fy):
    return g(x, y, z)


def _implicit_majorant(g, x, y, z, fx, fy):
    terms = (
        g(x, y, z),
        g(x, fx, fx),
        g(y, fy, fy),
        g(x, fy, fy),
        # np.minimum and np.maximum return their second argument on ties,
        # so the earlier term goes second: ties keep it, as Python's min
        # and max do.  Unlike those, they propagate a NaN term.
        np.minimum(g(x, z, z), g(z, fx, fx)),
    )
    return functools.reduce(lambda acc, term: np.maximum(term, acc), terms)


# The majorant M of each condition, which must satisfy
# g(Fx, Fy, Fz) <= eta * M.  Each takes the metric, the triple and the
# images Fx, Fy, either as scalars with the scalar metric or as arrays
# with the metric's batch evaluation.
_MAJORANTS = {"root": _root_majorant, "implicit": _implicit_majorant}


def _check_condition(name: str, label: str) -> None:
    if name not in _MAJORANTS:
        raise ValueError(f"{label} must be 'root' or 'implicit', got {name!r}")


def _condition_sides(condition: str, g, F, eta: float, x, y, z):
    """Both sides of a condition, lhs g(Fx,Fy,Fz) and rhs eta * M, for
    scalars (``g`` a GMetric, ``F`` a SelfMap) or arrays (their
    ``many``)."""
    fx, fy, fz = F(x), F(y), F(z)
    return g(fx, fy, fz), eta * _MAJORANTS[condition](g, x, y, z, fx, fy)


def _condition_holds(condition: str, g: GMetric, F: SelfMap, eta: float,
                     x: Point, y: Point, z: Point, m: int) -> bool:
    _validate_eta_m(eta, m)
    return bool(_relation_holds("<=", *_condition_sides(condition, g, F, eta, x, y, z)))


def root_contraction_holds(g: GMetric, F: SelfMap, eta: float,
                           x: Point, y: Point, z: Point, *, m: int = 1) -> bool:
    """Pointwise contraction test g(Fx,Fy,Fz) <= eta * g(x,y,z).

    Independent of ``m``: taking m-th roots rescales both sides by the
    same strictly monotone map.
    """
    return _condition_holds("root", g, F, eta, x, y, z, m)


def seed_condition_holds(g: GMetric, F: SelfMap, params: ContractionParams) -> bool:
    """Seed admissibility: g(x0, Fx0, Fx0) <= ln((1 - eta) * gamma).

    Returns False (not an error) when x0 is outside F's domain, where it
    has no image, and when (1 - eta) * gamma < 1, where the budget is
    below the metric's floor and nothing can satisfy it; that includes a
    budget that underflows to 0.
    """
    x0 = params.seed_point
    budget = (1.0 - params.eta) * params.gamma
    return (F.domain.contains(x0) and budget > 0.0
            and g(x0, F(x0), F(x0)) <= math.log(budget) + SLACK)


def implicit_bound(g: GMetric, F: SelfMap, eta: float,
                   x: Point, y: Point, z: Point, *, m: int = 1) -> LogDistance:
    """Log-domain value of the implicit majorant: eta/m times the max of
    the five reference distances at (x, y, z)."""
    _validate_eta_m(eta, m)
    return float(eta * _implicit_majorant(g, x, y, z, F(x), F(y)) / m)


def implicit_contraction_holds(g: GMetric, F: SelfMap, eta: float,
                               x: Point, y: Point, z: Point, *, m: int = 1) -> bool:
    """Pointwise implicit test g(Fx,Fy,Fz) <= eta * max-term.

    Independent of ``m`` for the same reason as the root condition.
    """
    return _condition_holds("implicit", g, F, eta, x, y, z, m)


# ---------------------------------------------------------------------------
# Region certification


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of sweeping a contractive condition over a sampled region.

    ``verdict`` is "holds-on-sample" or "violated"; every violation is a
    re-checkable witness (capped at ``max_witnesses``, full count in
    ``violations``).  The seed condition is checked once per report.
    """

    condition: str
    region: str
    samples: int
    seed: int
    verdict: str
    witnesses: tuple[Witness, ...]
    violations: int
    seed_condition_ok: bool
    eta: float
    gamma: float
    seed_point: float
    m: int

    @property
    def holds(self) -> bool:
        return self.verdict == "holds-on-sample"

    def to_dict(self) -> dict:
        doc = _fields_dict(self)
        doc["witnesses"] = [asdict(w) for w in self.witnesses]
        doc["holds"] = self.holds
        return doc


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    # One draw per stratum, strata visited in a random order per axis.
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


def _ball_probe_interval(g: GMetric, ball: ClosedBall, domain: Interval) -> Interval:
    # Expand around the center until both ends are outside the ball or
    # clipped by the map's domain; the ball never extends past that.  A
    # center outside the domain can leave the ends crossed: the ball
    # then ends before the domain begins.
    span = 1.0
    for _ in range(200):
        lo = max(domain.lo, ball.center - span)
        hi = min(domain.hi, ball.center + span)
        lo_done = lo == domain.lo or not ball_contains(g, ball, lo)
        hi_done = hi == domain.hi or not ball_contains(g, ball, hi)
        if lo_done and hi_done and math.isfinite(lo) and math.isfinite(hi):
            if lo > hi:
                raise EmptyRegion(f"{ball} does not meet the map's domain {domain}")
            return Interval(lo, hi)
        span *= 2.0
    raise EmptyRegion(f"could not bound {ball} inside domain {domain}")


def _region_triples(g: GMetric, F: SelfMap, params: ContractionParams,
                    region: Interval | str, n: int,
                    rng: np.random.Generator) -> tuple[tuple[np.ndarray, ...], str]:
    if isinstance(region, str):
        if region != "ball":
            raise ValueError(f"region must be an Interval or 'ball', got {region!r}")
        ball = params.ball
        if not ball_contains(g, ball, ball.center):
            raise EmptyRegion(f"{ball} is empty (radius below the metric floor)")
        probe = _ball_probe_interval(g, ball, F.domain)
        # the draws lie in the probe, inside F's domain; the seed may not
        forced = [p for p in (probe.lo, probe.hi, ball.center, params.seed_point)
                  if F.domain.contains(p)]
        candidates = np.concatenate((forced, _stratified(rng, probe.lo, probe.hi, 3 * n)))
        pool = candidates[_in_ball(g, ball, candidates)]
        if not pool.size:
            raise EmptyRegion(f"no sampled point lies in {ball}")
        idx = rng.integers(len(pool), size=(n, 3))
        a, b = pool[0], pool[-1]
        corners = [(a, a, a), (a, a, b), (a, b, b), (b, a, b)]
        return _with_corners(corners, *(pool[idx[:, k]] for k in range(3))), str(ball)

    if not region.finite:
        raise ValueError(f"region interval must be finite, got {region}")
    lo, hi = region.lo, region.hi
    corners = [(lo, lo, lo), (hi, hi, hi), (lo, hi, lo), (hi, lo, hi)]
    if region.contains(params.seed_point):
        s = params.seed_point
        corners += [(s, s, s), (s, lo, hi)]
    a = float(lo + (hi - lo) * rng.random())
    b = float(lo + (hi - lo) * rng.random())
    corners += [(a, a, b), (a, b, b), (a, a, a)]
    return _with_corners(corners, *(_stratified(rng, lo, hi, n) for _ in range(3))), str(region)


def certify_region(g: GMetric, F: SelfMap, params: ContractionParams,
                   condition: str, region: Interval | str, n: int, seed: int,
                   max_witnesses: int = 32) -> CertificateReport:
    """Evaluate a contractive condition on sampled triples from a region.

    ``region`` is either an explicit interval (sampled as given) or the
    literal string "ball" for the closed ball named by ``params``.
    Sampling is stratified uniform plus forced corner cases (region
    endpoints, the seed point when inside, degenerate triples), and is
    deterministic given ``seed``.  The seed condition is checked once
    and reported alongside.

    Raises EmptyRegion when no sampled point lies in the region.
    """
    _check_condition(condition, "condition")
    _check_sample_count(n)

    rng = np.random.default_rng(seed)
    (x, y, z), region_label = _region_triples(g, F, params, region, n, rng)
    lhs, rhs = _condition_sides(condition, g.many, F.many, params.eta, x, y, z)
    rec = _Recorder((condition,), max_witnesses)
    rec.require(0, condition, (x, y, z), lhs, rhs)
    violations = rec.counts[condition]

    return CertificateReport(
        condition=condition,
        region=region_label,
        samples=len(x),
        seed=seed,
        verdict="violated" if violations else "holds-on-sample",
        witnesses=rec.witnesses(),
        violations=violations,
        seed_condition_ok=seed_condition_holds(g, F, params),
        eta=params.eta,
        gamma=params.gamma,
        seed_point=params.seed_point,
        m=params.m,
    )
