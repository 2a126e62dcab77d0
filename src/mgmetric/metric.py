"""Multiplicative distance functions on the nonnegative reals.

A multiplicative metric takes values >= 1 and multiplies along paths
instead of adding, so everything here is stored and evaluated in
log-domain: a binary metric maps a pair to ln(d) >= 0, a ternary one
maps a triple to ln(G) >= 0, and coincidence (distance exactly 1)
becomes log value 0.  Exponentiation happens only at API boundaries
(``GMetric.value``, reports, the CLI).

Axiom checking is sampling-based: deterministic pseudo-random points
given a seed, plus a fixed set of corner cases.  Each check runs on the
whole sample array at once.  Failures are recorded as re-checkable
witnesses, never raised.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, asdict, fields
from functools import partial
from typing import Callable


def _lazy_numpy():
    # Importing numpy is most of a fresh process's start-up, and the
    # scalar commands (solve, reproduce) never use it.  The module loads
    # on its first attribute access, and is numpy itself when numpy was
    # imported before this package.
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("numpy")
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

# Sampled "distinct" points must be separated by at least this much,
# so strict-positivity checks cannot trip over float coincidences.
_MIN_SEPARATION = 1e-9
# Draw rounds for such pairs; a normal domain needs one or two.
_MAX_PAIR_ROUNDS = 100

Point = float
LogDistance = float


@dataclass(frozen=True)
class Interval:
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

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

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


@dataclass(frozen=True)
class MultMetric:
    """Binary multiplicative metric candidate, evaluated in log-domain.

    ``dist(x, y)`` returns ln of the multiplicative distance; for a
    valid metric that is >= 0, zero exactly on the diagonal, symmetric,
    and subadditive (the multiplicative triangle inequality).  The
    optional ``batch`` is ``dist`` over float64 arrays: it returns
    bitwise the floats ``dist`` returns, and ``many`` calls ``dist`` once
    per pair when it is missing.
    """

    dist: Callable[[Point, Point], LogDistance]
    description: str = ""
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, x: Point, y: Point) -> LogDistance:
        return self.dist(x, y)

    def value(self, x: Point, y: Point) -> float:
        """Multiplicative (exponentiated) distance."""
        return math.exp(self.dist(x, y))

    def many(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``dist`` of each pair of elements of two float64 arrays."""
        return _evaluate_many(self.dist, self.batch, x, y)


@dataclass(frozen=True)
class GMetric:
    """Ternary multiplicative metric candidate, evaluated in log-domain.

    The optional ``batch`` is ``g`` over float64 arrays: it returns
    bitwise the floats ``g`` returns, and ``many`` calls ``g`` once per
    triple when it is missing.
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


@dataclass(frozen=True)
class ClosedBall:
    """Closed ball {rho : G(center, rho, rho) <= radius}.

    The radius is a multiplicative scale (gamma > 0).  Because
    G(center, center, center) = 1, the ball is nonempty iff gamma >= 1;
    gamma < 1 gives the empty ball, which is legal everywhere.
    """

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center) and self.center >= 0.0):
            raise ValueError(f"ball center must be a nonnegative finite real, got {self.center}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"ball radius must be a positive finite real, got {self.radius}")

    @property
    def log_radius(self) -> float:
        return math.log(self.radius)

    def __str__(self) -> str:
        return f"ball(center={self.center}, radius={self.radius})"


def ball_contains(g: GMetric, ball: ClosedBall, rho: Point) -> bool:
    """Membership test for the closed ball, in log-domain."""
    return g(ball.center, rho, rho) <= ball.log_radius


def _in_ball(g: GMetric, ball: ClosedBall, rho) -> np.ndarray:
    """``ball_contains`` of each of a sequence of points."""
    rho = np.asarray(rho, dtype=np.float64)
    return g.many(np.full_like(rho, ball.center), rho, rho) <= ball.log_radius


# ---------------------------------------------------------------------------
# Constructions


def _sort2(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # A swap, not minimum/maximum: the pair keeps its exact floats, signed
    # zeros included, so the sum below matches the scalar one.
    swap = b < a
    return np.where(swap, b, a), np.where(swap, a, b)


def _canonical_pair_sum_batch(pairfn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                              x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    # The scalar g of _pair_sum_metric over arrays: the same pair order
    # and the same compare-and-swaps, hence the same floats.
    def pair(u, v):
        first = u <= v
        return pairfn(np.where(first, u, v), np.where(first, v, u))

    t0, t1 = _sort2(pair(x, y), pair(y, z))
    t1, t2 = _sort2(t1, pair(z, x))
    t0, t1 = _sort2(t0, t1)
    return (t0 + t1) + t2


def _pair_sum_metric(pairfn: Callable[[Point, Point], float],
                     pair_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
                     description: str) -> GMetric:
    def g(x: Point, y: Point, z: Point) -> LogDistance:
        # Evaluate each unordered pair in canonical argument order and add
        # the three terms smallest-first, so every permutation of (x, y, z)
        # produces the bitwise-identical float.  The swaps on strict < are
        # a stable sort: ties and signed zeros keep their order.
        a = pairfn(x, y) if x <= y else pairfn(y, x)
        b = pairfn(y, z) if y <= z else pairfn(z, y)
        c = pairfn(z, x) if z <= x else pairfn(x, z)
        if b < a:
            a, b = b, a
        if c < b:
            b, c = c, b
            if b < a:
                a, b = b, a
        return a + b + c

    batch = None if pair_batch is None else partial(_canonical_pair_sum_batch, pair_batch)
    return GMetric(g=g, description=description, batch=batch)


def gm_from_product(d: MultMetric, description: str = "") -> GMetric:
    """Ternary metric from a multiplicative metric: the product of the
    three pairwise distances (a sum in log-domain).  Batch-capable when
    ``d`` carries a batch form."""
    label = description or (f"pairwise product of {d.description}" if d.description
                            else "pairwise product metric")
    return _pair_sum_metric(d.dist, d.batch, label)


def gm_from_exp(d: Callable[[Point, Point], float], description: str = "",
                batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None) -> GMetric:
    """Ternary metric from an ordinary metric: exp of the perimeter
    d(x,y) + d(y,z) + d(z,x).  Stored in log-domain, so the returned
    callable is just the perimeter itself.  ``batch`` is ``d`` over
    float64 arrays, if there is one."""
    return _pair_sum_metric(d, batch, description or "exp of pairwise perimeter")


# ---------------------------------------------------------------------------
# Axiom reports


def _fields_dict(report) -> dict:
    """The fields of a frozen report dataclass by name, in declaration
    order, for its ``to_dict``.  Values are not copied (unlike
    ``dataclasses.asdict``): tuples of floats and bools go to the
    renderer as they are, and each ``to_dict`` converts or copies the
    fields that are not immutable leaves."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


# Each required relation between lhs_log and rhs_log, for floats and
# float64 arrays alike.  A NaN side fails every relation.
_RELATIONS = {
    "<=": lambda lhs, rhs, slack: lhs <= rhs + slack,
    ">=": lambda lhs, rhs, slack: lhs >= rhs - slack,
    ">": lambda lhs, rhs, slack: lhs > rhs + slack,
    "==": lambda lhs, rhs, slack: abs(lhs - rhs) <= slack,
}


def _relation_holds(relation: str, lhs, rhs, slack: float = SLACK):
    """Whether ``lhs relation rhs`` holds within ``slack``; elementwise
    on float64 arrays."""
    try:
        test = _RELATIONS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None
    return test(lhs, rhs, slack)


@dataclass(frozen=True)
class Witness:
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

    def holds(self, slack: float = SLACK) -> bool:
        """Re-evaluate the required relation from the stored sides."""
        return bool(_relation_holds(self.relation, self.lhs_log, self.rhs_log, slack))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a sampled axiom suite.

    ``axioms`` maps each rule name to "pass" or "fail"; every failing
    rule carries at least one witness (capped at ``max_witnesses`` per
    rule, with full counts in ``violations``).
    """

    subject: str
    domain: str
    axioms: dict[str, str]
    witnesses: tuple[Witness, ...]
    violations: dict[str, int]
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(status == "pass" for status in self.axioms.values())

    def to_dict(self) -> dict:
        doc = _fields_dict(self)
        # copies, so a caller editing the document cannot edit the report
        doc["axioms"] = dict(self.axioms)
        doc["witnesses"] = [asdict(w) for w in self.witnesses]
        doc["violations"] = dict(self.violations)
        doc["passed"] = self.passed
        return doc


class _Recorder:
    """Collects the violations of checks run on whole sample arrays.

    Witnesses come out in the order a per-sample loop would meet them:
    by phase, then sample index, then the check's position in the phase
    (the order of ``require`` calls).  Each rule keeps its first
    ``max_witnesses``; ``counts`` has the full numbers.
    """

    def __init__(self, rules: tuple[str, ...], max_witnesses: int):
        self.rules = rules
        # a failing rule must keep at least one witness
        self.max_witnesses = max(1, max_witnesses)
        self.counts: dict[str, int] = {rule: 0 for rule in rules}
        self._found: list[tuple[tuple[int, int, int], Witness]] = []
        self._checks = 0

    def require(self, phase: int, rule: str, points: tuple[np.ndarray, ...],
                lhs: np.ndarray, rhs: np.ndarray | float, relation: str = "<=",
                samples: np.ndarray | None = None) -> None:
        """Check ``lhs relation rhs`` for every sample.  ``samples`` gives
        the sample index of each element when the check covers only some
        samples of its phase."""
        rhs = np.broadcast_to(rhs, lhs.shape)
        failing = np.flatnonzero(~_relation_holds(relation, lhs, rhs))
        self.counts[rule] += failing.size
        kept = failing[:self.max_witnesses]
        index = (kept if samples is None else samples[kept]).tolist()
        columns = [p[kept].tolist() for p in points]
        for i, pts, lv, rv in zip(index, zip(*columns), lhs[kept].tolist(), rhs[kept].tolist()):
            self._found.append(((phase, i, self._checks), Witness(rule, pts, lv, rv, relation)))
        self._checks += 1

    def witnesses(self) -> tuple[Witness, ...]:
        kept = {rule: 0 for rule in self.rules}
        out = []
        for _, w in sorted(self._found, key=lambda found: found[0]):
            if kept[w.rule] < self.max_witnesses:
                kept[w.rule] += 1
                out.append(w)
        return tuple(out)

    def report(self, subject: str, domain: Interval, samples: int, seed: int) -> AxiomReport:
        statuses = {rule: ("fail" if self.counts[rule] else "pass") for rule in self.rules}
        return AxiomReport(
            subject=subject,
            domain=str(domain),
            axioms=statuses,
            witnesses=self.witnesses(),
            violations=dict(self.counts),
            samples=samples,
            seed=seed,
        )


def _check_sample_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")


def _check_sampling_args(domain: Interval, n: int) -> None:
    _check_sample_count(n)
    if not domain.finite:
        raise ValueError(f"axiom checking needs a finite domain, got {domain}")
    if not domain.hi - domain.lo > _MIN_SEPARATION:
        raise ValueError(f"axiom checking needs a domain wider than {_MIN_SEPARATION}, "
                         f"got {domain}")


def _uniform(rng: np.random.Generator, domain: Interval, n: int) -> np.ndarray:
    return domain.lo + (domain.hi - domain.lo) * rng.random(n)


def _distinct_pairs(rng: np.random.Generator, domain: Interval,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    # Rejection keeps pairs separated enough for strict-positivity checks.
    # On a domain barely wider than the separation almost every draw is
    # rejected, so the number of rounds is capped.
    xs, ys = [], []
    found = rounds = 0
    while found < n:
        if rounds == _MAX_PAIR_ROUNDS:
            raise ValueError(f"found only {found} of {n} point pairs more than "
                             f"{_MIN_SEPARATION} apart in {domain} after {rounds} rounds")
        rounds += 1
        x = _uniform(rng, domain, n)
        y = _uniform(rng, domain, n)
        apart = np.abs(x - y) > _MIN_SEPARATION
        xs.append(x[apart])
        ys.append(y[apart])
        found += int(apart.sum())
    return np.concatenate(xs)[:n], np.concatenate(ys)[:n]


def _with_corners(corners: list[tuple[float, ...]],
                  *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sample columns, each preceded by its coordinates of the corner tuples."""
    return tuple(np.concatenate((np.array(head, dtype=np.float64), col))
                 for head, col in zip(zip(*corners), columns))


def check_mult_axioms(d: MultMetric, domain: Interval, n: int, seed: int,
                      max_witnesses: int = 32) -> AxiomReport:
    """Sampled check of the multiplicative-metric axioms on ``domain``.

    Rules reported: "floor" (distance >= 1), "identity" (equal points at
    distance exactly 1), "separation" (distinct points strictly above 1),
    "symmetry", and "triangle" (the multiplicative triangle inequality).
    Deterministic given ``seed``; failures are data, not errors.
    """
    _check_sampling_args(domain, n)
    rng = np.random.default_rng(seed)
    rec = _Recorder(("floor", "identity", "separation", "symmetry", "triangle"), max_witnesses)

    lo, hi = domain.lo, domain.hi
    mid = 0.5 * (lo + hi)

    p = np.concatenate(([lo, hi, mid], _uniform(rng, domain, n)))
    rec.require(0, "identity", (p, p), d.many(p, p), 0.0, "==")

    x, y = _with_corners([(lo, hi), (hi, lo), (lo, mid)], *_distinct_pairs(rng, domain, n))
    dxy = d.many(x, y)
    rec.require(1, "floor", (x, y), dxy, 0.0, ">=")
    rec.require(1, "separation", (x, y), dxy, 0.0, ">")
    rec.require(1, "symmetry", (x, y), dxy, d.many(y, x), "==")

    x, y, z = _with_corners([(lo, hi, mid), (lo, lo, hi)],
                            *(_uniform(rng, domain, n) for _ in range(3)))
    rec.require(2, "triangle", (x, y, z), d.many(x, y), d.many(x, z) + d.many(z, y))

    return rec.report(d.description or "multiplicative metric", domain, n, seed)


_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def check_gm_axioms(g: GMetric, domain: Interval, n: int, seed: int,
                    max_witnesses: int = 32) -> AxiomReport:
    """Sampled check of the ternary multiplicative-metric axioms.

    Rules reported: "identity" (G = 1 on the diagonal), "separation"
    (1 < G(x,x,y) for x != y), "pair_dominance" (G(x,x,y) <= G(x,y,z)
    whenever y != z), "permutation" (full symmetry in the arguments),
    and "rectangle" (G(x,y,z) <= G(x,t,t) * G(t,y,z) for every t).
    """
    _check_sampling_args(domain, n)
    rng = np.random.default_rng(seed)
    rec = _Recorder(("identity", "separation", "pair_dominance", "permutation", "rectangle"),
                    max_witnesses)

    lo, hi = domain.lo, domain.hi
    mid = 0.5 * (lo + hi)

    p = np.concatenate(([lo, hi, mid], _uniform(rng, domain, n)))
    rec.require(0, "identity", (p, p, p), g.many(p, p, p), 0.0, "==")

    x, y = _with_corners([(lo, hi), (mid, hi)], *_distinct_pairs(rng, domain, n))
    rec.require(1, "separation", (x, x, y), g.many(x, x, y), 0.0, ">")

    base = _uniform(rng, domain, 3).tolist()
    corners = [(lo, lo, hi), (lo, hi, hi), (lo, mid, hi), (hi, mid, lo)]
    corners += [tuple(base[i] for i in perm) for perm in _PERMUTATIONS]
    xyz = _with_corners(corners, *(_uniform(rng, domain, n) for _ in range(3)))
    x, y, z = xyz
    tvals = np.concatenate(([lo, hi, mid], _uniform(rng, domain, max(0, n - 3))))
    t = tvals[np.arange(len(x)) % len(tvals)]

    gxyz = g.many(x, y, z)
    apart = np.flatnonzero(np.abs(y - z) > _MIN_SEPARATION)
    xa, ya, za = x[apart], y[apart], z[apart]
    rec.require(2, "pair_dominance", (xa, ya, za), g.many(xa, xa, ya), gxyz[apart],
                samples=apart)
    for perm in _PERMUTATIONS[1:]:
        px, py, pz = (xyz[k] for k in perm)
        rec.require(2, "permutation", (px, py, pz), g.many(px, py, pz), gxyz, "==")
    rec.require(2, "rectangle", (x, y, z, t), gxyz, g.many(x, t, t) + g.many(t, y, z))

    return rec.report(g.description or "ternary multiplicative metric", domain, n, seed)


def check_gm_properties(g: GMetric, domain: Interval, n: int, seed: int,
                        max_witnesses: int = 32) -> AxiomReport:
    """Sampled check of derived consequences of the ternary axioms.

    Rules reported: "identity" (G = 1 on the diagonal), "star_bound"
    (G(x,y,z) <= G(x,t,t) * G(y,t,t) * G(z,t,t)), "pair_split"
    (G(x,y,z) <= G(x,x,y) * G(x,x,z)), and "swap_doubling"
    (G(x,y,y) <= G(y,x,x)^2).  These hold in any valid space and make
    useful smoke tests for user-supplied constructions.
    """
    _check_sampling_args(domain, n)
    rng = np.random.default_rng(seed)
    rec = _Recorder(("identity", "star_bound", "pair_split", "swap_doubling"), max_witnesses)

    lo, hi = domain.lo, domain.hi
    mid = 0.5 * (lo + hi)

    p = np.concatenate(([lo, hi, mid], _uniform(rng, domain, n)))
    rec.require(0, "identity", (p, p, p), g.many(p, p, p), 0.0, "==")

    x, y, z = _with_corners([(lo, lo, hi), (lo, mid, hi), (hi, lo, mid)],
                            *(_uniform(rng, domain, n) for _ in range(3)))
    tvals = np.concatenate(([mid, lo, hi], _uniform(rng, domain, max(0, n - 3))))
    t = tvals[np.arange(len(x)) % len(tvals)]
    gxyz = g.many(x, y, z)
    rec.require(1, "star_bound", (x, y, z, t), gxyz,
                g.many(x, t, t) + g.many(y, t, t) + g.many(z, t, t))
    rec.require(1, "pair_split", (x, y, z), gxyz, g.many(x, x, y) + g.many(x, x, z))

    x, y = _with_corners([(lo, hi), (hi, lo)], *_distinct_pairs(rng, domain, n))
    rec.require(2, "swap_doubling", (x, y), g.many(x, y, y), 2.0 * g.many(y, x, x))

    return rec.report(g.description or "ternary multiplicative metric", domain, n, seed)
