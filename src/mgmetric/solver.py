"""Picard iteration with certified geometric error bounds.

The solver iterates x_{j+1} = F(x_j) and stops on the computable
residual g(x_j, Fx_j, Fx_j) <= ln(1 + epsilon).  The residual bounds
the last step only: G(x_j, Fx_j, Fx_j) <= 1 + epsilon.  It does not
bound the distance from x_j to the fixed point, which on a slow
contraction can be hundreds of times larger.  When the contraction
factor is known the solver also reports an a-priori iteration bound
from the geometric tail:

    rate**j * g(x0, Fx0, Fx0) / (1 - rate) <= ln(1 + epsilon),

with rate = eta for the root condition.  For the implicit condition the
per-step factor telescopes to mu = eta / (1 - eta); the bound is only
certifiable when mu < 1, i.e. eta < 1/2.  The rate is certified only
when every recorded step also contracts by it, so the bound never
rests on an eta the map does not meet; otherwise the solver still runs
best-effort and flags the rate as uncertified.

The float residual cannot tell convergence from a step that rounds
away (x - 1/3 rounds back to x = 1e17).  So where ``fixtures.exact_step``
applies, the last step is checked again in exact rationals; other
metrics and maps keep the float certificate.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice, repeat
from operator import le, mul

from .metric import LOG_FLOOR, ClosedBall, GMetric, LogDistance, PerimeterMetric, Point, Record
from .contraction import (ContractionParams, SelfMap, _check_condition, _validate_eta,
                          seed_condition_holds)
from .fixtures import PiecewiseMap, _diff, _ratio, _row, exact_step


class SolveError(RuntimeError):
    """A solve that ends without a certified fixed point: the base of the
    errors a solve report names."""


class DomainExit(SolveError):
    """An iterate left the self-map's declared domain (an infinite or
    NaN iterate is in no domain)."""

    def __init__(self, index: int, point: float):
        super().__init__(f"iterate {index} = {point} left the map's domain")
        self.index = index
        self.point = point


class NonFiniteStep(SolveError):
    """A step between two iterates of the domain has a non-finite
    log-distance g(x_j, x_{j+1}, x_{j+1}): the step length overflowed,
    or the metric gave NaN."""

    def __init__(self, index: int, point: float, step_log: float):
        super().__init__(f"step {index} from iterate {point} has non-finite "
                         f"log-distance {step_log}")
        self.index = index
        self.point = point
        self.step_log = step_log


class BelowFloor(SolveError):
    """A step has a log-distance g(x_j, x_{j+1}, x_{j+1}) below the floor
    LOG_FLOOR: the space is no multiplicative metric space there, so no
    residual certifies anything."""

    def __init__(self, index: int, point: float, step_log: float):
        super().__init__(f"step {index} from iterate {point} has log-distance "
                         f"{step_log} below the floor {LOG_FLOOR}")
        self.index = index
        self.point = point
        self.step_log = step_log


class InexactFixedPoint(SolveError):
    """The float residual of the last iterate is within tolerance, but its
    exact residual G(x, Fx, Fx), with Fx on the map's row of x in exact
    rationals, is not: the float map absorbs a step the real map takes."""

    def __init__(self, index: int, point: float, exact_residual: float):
        super().__init__(f"iterate {index} = {point} has exact residual log "
                         f"{exact_residual} to its image, above the tolerance")
        self.index = index
        self.point = point
        self.exact_residual = exact_residual


class SeedConditionViolated(SolveError):
    """The seed point fails the admissibility condition for its ball; the
    message gives its exact log-distance where ``fixtures.exact_step`` does."""


class MaxIterationsExceeded(SolveError):
    """The residual did not reach tolerance within the iteration budget."""

    def __init__(self, iterations: int, last_point: float, last_residual_log: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last point {last_point}, residual log {last_residual_log})")
        self.iterations = iterations
        self.last_point = last_point
        self.last_residual_log = last_residual_log


class PicardTrace(Record):
    """Recorded orbit: iterates x_0..x_J, per-step log-distances
    g(x_j, x_{j+1}, x_{j+1}), a ball flag per iterate, and whether the
    orbit was non-increasing."""

    iterates: tuple[float, ...]
    step_logs: tuple[float, ...]
    in_ball: tuple[bool, ...]
    monotone: bool

    def __post_init__(self) -> None:
        if len(self.step_logs) != len(self.iterates) - 1:
            raise ValueError("trace needs exactly one step log per transition")
        if len(self.in_ball) != len(self.iterates):
            raise ValueError("trace needs exactly one ball flag per iterate")

    def to_dict(self) -> dict:
        return self._asdict()

    def to_csv(self) -> str:
        """Rows of (index, value, step_log, in_ball); the final row has
        no step log.  Values are float reprs and the flags True/False,
        so no field needs CSV quoting."""
        last = len(self.step_logs)
        cells = chain.from_iterable(zip(range(last), self.iterates, self.step_logs, self.in_ball))
        # blocks of 1,024 rows, so that no report-sized string is copied
        parts = ["index,value,step_log,in_ball\n"]
        for start in range(0, last, 1024):
            n = min(1024, last - start)
            parts.append(("%d,%r,%r,%s\n" * n) % tuple(islice(cells, 4 * n)))
        parts.append(f"{last},{self.iterates[last]!r},,{self.in_ball[last]}\n")
        return "".join(parts)


class FixedPointResult(Record):
    """A located fixed point with its residual certificate.

    ``certified_bound`` is the a-priori iteration count, or None when
    the rate is not certified (uncertified best-effort run): when it is
    >= 1, or when a recorded step does not contract by it.  ``mu`` is
    set in implicit mode only, and so is the property ``mu_class``:
    "below_half", "below_one", or "at_least_one".
    """

    point: Point
    residual_log: LogDistance
    iterations_used: int
    certified_bound: int | None
    trace: PicardTrace
    rate: float
    rate_certified: bool
    mu: float | None

    @property
    def mu_class(self) -> str | None:
        return None if self.mu is None else mu_class(self.mu)

    @property
    def ball_exited(self) -> bool:
        return not all(self.trace.in_ball)

    @property
    def order_monotone(self) -> bool:
        return self.trace.monotone

    def to_dict(self) -> dict:
        doc = self._asdict()
        doc["mu_class"] = self.mu_class
        doc["trace"] = self.trace.to_dict()
        doc["ball_exited"] = self.ball_exited
        doc["order_monotone"] = self.order_monotone
        return doc


def _orbit(F: SelfMap, g: GMetric, ball: ClosedBall, x0: Point,
           steps: int, tol: float) -> tuple[PicardTrace, LogDistance]:
    """The Picard loop x_{j+1} = F(x_j) from x0, recorded as a trace,
    stopped by the one residual rule.

    Every iterate must lie in F's domain, else DomainExit.  Every step
    must have a log-distance on the floor or above, else BelowFloor, and
    a step between two iterates of the domain a finite one, else
    NonFiniteStep.  The loop stops at the first iterate whose residual
    g(x, Fx, Fx) is <= tol, and iterate ``steps`` above tol raises
    MaxIterationsExceeded.  Returns the trace and that last residual.

    A PiecewiseMap on the |x - y| perimeter caches the row [lo, hi) of
    the last iterate and, while the orbit stays in it, takes the step
    with F.apply and the perimeter's g(x, Fx, Fx) written out: bitwise
    their floats, with no call per step.  lo is clipped to the finite
    floats, so +-inf and NaN miss the row.  A miss takes the checked path
    of contains, F.apply and g.g, and so does every step of any other map
    or metric, whose lo and hi stay NaN.
    """
    iterates = [x0]
    step_logs: list[float] = []
    # the kernels themselves, bound once
    apply, kernel = F.apply, g.g
    contains, floor, inf = F.domain.contains, LOG_FLOOR, math.inf
    push_iterate, push_step = iterates.append, step_logs.append
    rows = F.rows if isinstance(F, PiecewiseMap) and isinstance(g, PerimeterMetric) else None
    lo = hi = math.nan
    x = x0
    for j in range(steps + 1):
        if lo <= x < hi:
            # g(x, nxt, nxt): its distances sort to 0, a, a, and adding
            # nxt - nxt keeps the NaN of an infinite nxt
            nxt = s * x + o
            a = abs(x - nxt)
            residual = a + a + (nxt - nxt)
        else:
            if not contains(x):
                raise DomainExit(j, x)
            if rows is not None:
                row = _row(rows, *x.as_integer_ratio())
                lo, hi, s, o = max(row.lo, -sys.float_info.max), row.hi, row.slope, row.offset
            nxt = apply(x)
            residual = kernel(x, nxt, nxt)
        # the floor rule, and finiteness; NaN fails both comparisons
        if not floor <= residual < inf:
            if residual < floor:
                raise BelowFloor(j, x, residual)
            # a next iterate outside the domain is reported as DomainExit
            if contains(nxt):
                raise NonFiniteStep(j, x, residual)
        if residual <= tol:
            break
        if j == steps:
            raise MaxIterationsExceeded(j, x, residual)
        push_step(residual)
        push_iterate(nxt)
        x = nxt
    # ball_contains of each iterate from the scalar kernel, without numpy:
    # by the batch contract, bitwise the flags g.many gives.  float() is
    # g.many's float64 conversion, so each flag is a bool whatever real
    # type g returns.
    center, log_radius = ball.center, ball.log_radius
    if rows is None:
        flags = tuple([float(kernel(center, rho, rho)) <= log_radius for rho in iterates])
    else:
        flags = tuple([(a := abs(center - rho)) + a + (rho - rho) <= log_radius
                       for rho in iterates])
    monotone = all(map(le, iterates[1:], iterates))
    return PicardTrace(tuple(iterates), tuple(step_logs), flags, monotone), residual


def _check_epsilon(epsilon: float) -> None:
    # written so that NaN fails too; an infinite tolerance certifies nothing
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a positive finite real, got {epsilon}")


def a_priori_iterations(log_g01: LogDistance, rate: float, epsilon: float) -> int:
    """Smallest j >= 0 with rate**j * log_g01 / (1 - rate) <= ln(1 + epsilon).

    This is the coarse geometric tail of the telescoped step bounds
    (dropping a factor < 1), so it is always a valid stopping index for
    a genuine contraction.  Raises ValueError for a log distance that is
    negative or not finite, a bad epsilon, a rate outside [0, 1), and a
    tail log_g01 / (1 - rate) past the largest float.
    """
    # written so that NaN fails too; an infinite distance bounds nothing
    if not 0.0 <= log_g01 < math.inf:
        raise ValueError(f"log distance must be a finite real >= 0, got {log_g01}")
    _check_epsilon(epsilon)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"geometric rate must lie in [0, 1), got {rate}")

    tol = math.log1p(epsilon)
    tail0 = log_g01 / (1.0 - rate)
    if tail0 <= tol:
        return 0
    if tail0 == math.inf:
        raise ValueError(f"tail {log_g01} / (1 - {rate}) overflows")
    if rate == 0.0:
        return 1
    # The closed form (its logs apart: tol / tail0 can underflow to 0) bounds
    # a bisection, which absorbs float rounding: near a subnormal tol that
    # can be millions of steps.  The tail is above tol at lo, not at hi.
    lo, hi = 0, max(1, math.ceil((math.log(tol) - math.log(tail0)) / math.log(rate)))
    while (rate ** hi) * tail0 > tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if (rate ** mid) * tail0 > tol else (lo, mid)
    return hi


def mu_of(eta: float) -> float:
    """Telescoped per-step rate eta / (1 - eta) of the implicit condition."""
    _validate_eta(eta)
    return eta / (1.0 - eta)


def mu_class(mu: float) -> str:
    """Classify a telescoped rate: "below_half" and "below_one" admit a
    certified geometric bound, "at_least_one" does not."""
    if mu < 0.5:
        return "below_half"
    if mu < 1.0:
        return "below_one"
    return "at_least_one"


def solve_fixed_point(g: GMetric, F: SelfMap, params: ContractionParams,
                      mode: str = "root", epsilon: float = 1e-6,
                      max_iter: int = 10_000) -> FixedPointResult:
    """Run Picard iteration from the seed until the residual certifies a
    fixed point.

    The seed condition is checked first and SeedConditionViolated raised
    on failure (DomainExit when the seed is outside F's domain, BelowFloor
    when its step is below the floor).  ``mode`` selects the rate for the
    a-priori bound: eta for "root", mu = eta / (1 - eta) for "implicit".
    The rate is certified when it is < 1 and every recorded step
    contracts by it, step_logs[j+1] <= rate * step_logs[j]: along the
    orbit, the root condition on (x_j, x_{j+1}, x_{j+1}) without the
    slack, and the per-step form of the implicit mode's telescoped rate.
    An uncertified rate gives a best-effort run with ``certified_bound``
    = None and ``rate_certified`` = False.

    Raises DomainExit if the orbit leaves F's domain, BelowFloor if a
    step's log-distance is below the floor, NonFiniteStep if it is
    infinite or NaN, and MaxIterationsExceeded if the residual never
    reaches tolerance.  Where ``fixtures.exact_step`` applies, the last
    iterate's residual is also checked in exact rationals, and
    InexactFixedPoint raised when it is above tolerance; other metrics and
    maps keep the float certificate.
    Leaving the ball is recorded per-iterate in the trace, not raised.
    """
    _check_condition(mode, "mode")
    _check_epsilon(epsilon)
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")

    x0 = params.seed_point
    # a seed outside F's domain has no image; the orbit raises DomainExit
    if F.domain.contains(x0) and not seed_condition_holds(g, F, params):
        seed_log = g.g(x0, fx0 := F(x0), fx0)
        if seed_log < LOG_FLOOR:
            raise BelowFloor(0, x0, seed_log)
        seed_log = seed_log if (exact := exact_step(g, F, x0)) is None else _ratio(*exact)
        raise SeedConditionViolated(
            f"seed {x0} has log-distance {seed_log} "
            f"to its image, above the budget ln({params.seed_budget})")

    mu = mu_of(params.eta) if mode == "implicit" else None
    rate = params.eta if mode == "root" else mu
    tol = math.log1p(epsilon)
    trace, residual = _orbit(F, g, params.ball, x0, max_iter, tol)
    steps = trace.step_logs
    point = trace.iterates[-1]
    exact = exact_step(g, F, point)
    if exact is not None and _diff(*exact, tol) > 0:
        raise InexactFixedPoint(len(steps), point, _ratio(*exact))
    # a first step on the floor may lie up to SLACK below 0
    log_g01 = max(0.0, steps[0] if steps else residual)
    # The one rate check.  The bound trusts the rate only if every
    # recorded step contracts by it, and with no slack: steps that may
    # exceed rate * before by SLACK can hover near SLACK / (1 - rate),
    # past the bound, when the tolerance is that small.
    rate_certified = rate < 1.0 and all(map(le, steps[1:], map(mul, repeat(rate), steps)))
    bound = a_priori_iterations(log_g01, rate, epsilon) if rate_certified else None

    return FixedPointResult(
        point=point,
        residual_log=residual,
        iterations_used=len(steps),
        certified_bound=bound,
        trace=trace,
        rate=rate,
        rate_certified=rate_certified,
        mu=mu,
    )
