"""The sampled axiom suites and ``certify_region``: deterministic
pseudo-random points given a seed plus fixed corner cases, each check run
on whole sample arrays, and failures recorded as re-checkable witnesses,
never raised."""

from __future__ import annotations

import math
from contextlib import contextmanager

from .metric import (LOG_FLOOR, ClosedBall, GMetric, Interval, MultMetric, Record, Witness,
                     _relation_holds, ball_contains, np)
from .contraction import (ContractionParams, SelfMap, _check_condition, _condition_sides,
                          seed_condition_holds)

# Sampled "distinct" points must be separated by at least this much,
# so strict-positivity checks cannot trip over float coincidences.
_MIN_SEPARATION = 1e-9
# Draw rounds for such pairs; a normal domain needs one or two.
_MAX_PAIR_ROUNDS = 100
# Witnesses a report keeps per rule; ``violations`` has the full counts.
_MAX_WITNESSES = 32


class EmptyRegion(RuntimeError):
    """No sampled point lies in the requested region."""


class AxiomReport(Record):
    """Outcome of a sampled axiom suite.

    ``axioms`` maps each rule name to "pass" or "fail"; every failing
    rule carries at least one witness (at most 32 per rule, with full
    counts in ``violations``).
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
        doc = self._asdict()
        # copies, so a caller editing the document cannot edit the report
        doc["axioms"] = dict(self.axioms)
        doc["witnesses"] = [w._asdict() for w in self.witnesses]
        doc["violations"] = dict(self.violations)
        doc["passed"] = self.passed
        return doc


class _Recorder:
    """Collects the violations of checks run on whole sample arrays.

    Witnesses come out in the order a per-sample loop would meet them:
    by phase, then sample index, then the check's position in the phase
    (the order of ``require`` calls).  Each rule keeps its first
    ``_MAX_WITNESSES``; ``counts`` has the full numbers.
    """

    def __init__(self, rules: tuple[str, ...]):
        self.rules = rules
        self.counts: dict[str, int] = {rule: 0 for rule in rules}
        self._found: list[tuple[tuple[int, int, int], Witness]] = []
        self._checks = 0

    def require(self, phase: int, rule: str, points: tuple[np.ndarray, ...],
                lhs: np.ndarray, rhs: np.ndarray | float, relation: str = "<=",
                samples: np.ndarray | None = None) -> None:
        """Check ``lhs relation rhs`` for every sample.  ``samples`` gives
        the sample index of each element when the check covers only some
        samples of its phase.  A float ``rhs`` applies to every sample."""
        self._record(phase, rule, points, lhs, rhs, relation, samples,
                     np.flatnonzero(~_relation_holds(relation, lhs, rhs)))

    def require_floor(self, phase: int, points: tuple[np.ndarray, ...],
                      values: np.ndarray) -> None:
        """The "floor" rule on evaluated log values: each must be >= 0
        within SLACK, so one below LOG_FLOOR is a witness.  A NaN value
        is not below the floor; the other checks of a sample report it."""
        self._record(phase, "floor", points, values, 0.0, ">=", None,
                     np.flatnonzero(values < LOG_FLOOR))

    def _record(self, phase, rule, points, lhs, rhs, relation, samples, failing) -> None:
        self.counts[rule] += failing.size
        check = self._checks
        self._checks += 1
        if not failing.size:
            return
        kept = failing[:_MAX_WITNESSES]
        index = (kept if samples is None else samples[kept]).tolist()
        columns = [p[kept].tolist() for p in points]
        rhs_log = ([float(rhs)] * kept.size if isinstance(rhs, float)
                   else np.broadcast_to(rhs, lhs.shape)[kept].tolist())
        for i, pts, lv, rv in zip(index, zip(*columns), lhs[kept].tolist(), rhs_log):
            self._found.append(((phase, i, check), Witness(rule, pts, lv, rv, relation)))

    def witnesses(self) -> tuple[Witness, ...]:
        kept = {rule: 0 for rule in self.rules}
        out = []
        for _, w in sorted(self._found, key=lambda found: found[0]):
            if kept[w.rule] < _MAX_WITNESSES:
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


def _check_seed(seed: int) -> None:
    # numpy's own error for a negative seed does not say which number it read
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _check_finite_width(region: Interval, what: str) -> None:
    # Finite ends are not enough: the samplers scale by hi - lo, which
    # overflows to inf on a region such as [-1e308, 1e308].
    if not math.isfinite(region.hi - region.lo):
        raise ValueError(f"{what} must have a finite width hi - lo, got {region}")


def _quiet():
    # a value that overflows to inf, or an inf - inf, fails a rule: no warning
    return np.errstate(over="ignore", invalid="ignore")


@contextmanager
def _audit(metric: MultMetric | GMetric, arity: int, rules: tuple[str, ...], domain: Interval,
           n: int, seed: int):
    """The start of every sampled axiom suite: checks the arguments, then
    under ``_quiet`` runs phase 0, the "identity" rule (``metric`` of
    ``arity`` equal points is 1), and yields the generator, the recorder
    and the domain's lo, hi and midpoint to the suite's later phases."""
    _check_sample_count(n)
    _check_seed(seed)
    _check_finite_width(domain, "axiom checking domain")
    if not domain.hi - domain.lo > _MIN_SEPARATION:
        raise ValueError(f"axiom checking needs a domain wider than {_MIN_SEPARATION}, "
                         f"got {domain}")
    rng = np.random.default_rng(seed)
    rec = _Recorder(rules)
    lo, hi = domain.lo, domain.hi
    mid = 0.5 * (lo + hi)
    with _quiet():
        p = (np.concatenate(([lo, hi, mid], _uniform(rng, domain, n))),) * arity
        rec.require(0, "identity", p, metric.many(*p), 0.0, "==")
        yield rng, rec, lo, hi, mid


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


def check_mult_axioms(d: MultMetric, domain: Interval, n: int, seed: int) -> AxiomReport:
    """Sampled check of the multiplicative-metric axioms on ``domain``.

    Rules reported: "floor" (distance >= 1), "identity" (equal points at
    distance exactly 1), "separation" (distinct points strictly above 1),
    "symmetry", and "triangle" (the multiplicative triangle inequality).
    Deterministic given ``seed``; failures are data, not errors.
    """
    rules = ("floor", "identity", "separation", "symmetry", "triangle")
    with _audit(d, 2, rules, domain, n, seed) as (rng, rec, lo, hi, mid):
        x, y = _with_corners([(lo, hi), (hi, lo), (lo, mid)], *_distinct_pairs(rng, domain, n))
        dxy = d.many(x, y)
        rec.require_floor(1, (x, y), dxy)
        rec.require(1, "separation", (x, y), dxy, 0.0, ">")
        rec.require(1, "symmetry", (x, y), dxy, d.many(y, x), "==")

        x, y, z = _with_corners([(lo, hi, mid), (lo, lo, hi)],
                                *(_uniform(rng, domain, n) for _ in range(3)))
        rec.require(2, "triangle", (x, y, z), d.many(x, y), d.many(x, z) + d.many(z, y))

    return rec.report(d.description or "multiplicative metric", domain, n, seed)


_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def check_gm_axioms(g: GMetric, domain: Interval, n: int, seed: int) -> AxiomReport:
    """Sampled check of the ternary multiplicative-metric axioms.

    Rules reported: "identity" (G = 1 on the diagonal), "separation"
    (1 < G(x,x,y) for x != y), "pair_dominance" (G(x,x,y) <= G(x,y,z)
    whenever y != z), "permutation" (full symmetry in the arguments),
    and "rectangle" (G(x,y,z) <= G(x,t,t) * G(t,y,z) for every t).
    """
    rules = ("identity", "separation", "pair_dominance", "permutation", "rectangle")
    with _audit(g, 3, rules, domain, n, seed) as (rng, rec, lo, hi, mid):
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


def check_gm_properties(g: GMetric, domain: Interval, n: int, seed: int) -> AxiomReport:
    """Sampled check of derived consequences of the ternary axioms.

    Rules reported: "identity" (G = 1 on the diagonal), "star_bound"
    (G(x,y,z) <= G(x,t,t) * G(y,t,t) * G(z,t,t)), "pair_split"
    (G(x,y,z) <= G(x,x,y) * G(x,x,z)), and "swap_doubling"
    (G(x,y,y) <= G(y,x,x)^2).  These hold in any valid space and make
    useful smoke tests for user-supplied constructions.
    """
    rules = ("identity", "star_bound", "pair_split", "swap_doubling")
    with _audit(g, 3, rules, domain, n, seed) as (rng, rec, lo, hi, mid):
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


class CertificateReport(Record):
    """Outcome of sweeping a contractive condition over a sampled region.

    ``verdict`` is "holds-on-sample" or "violated"; every violation, of
    the condition, of a ball's invariance or of the floor rule by a
    metric value they used, is a re-checkable witness (at most 32 per
    rule, the full count in ``violations``).  The seed
    condition is checked once per report.  ``to_dict`` prints the root
    index ``"m": 1`` of the form the conditions are evaluated in.
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

    @property
    def holds(self) -> bool:
        return self.verdict == "holds-on-sample"

    def to_dict(self) -> dict:
        doc = self._asdict()
        doc["witnesses"] = [w._asdict() for w in self.witnesses]
        doc["m"] = 1
        doc["holds"] = self.holds
        return doc


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    # One draw per stratum, strata visited in a random order per axis.
    # In place, with the floats of (permutation + random) / n * (hi - lo) + lo.
    strata = rng.permutation(n)
    u = rng.random(n)
    u += strata
    u /= n
    u *= hi - lo
    u += lo
    return u


def _from_center(g: GMetric, ball: ClosedBall, rho: np.ndarray):
    """The triples (c, rho, rho) of a float64 array, c the ball's centre,
    and g of each: rho is in the ball when that is at most the log radius."""
    triple = (np.broadcast_to(ball.center, rho.shape), rho, rho)
    return triple, g.many(*triple)


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
                    region: Interval | str, n: int, rng: np.random.Generator
                    ) -> tuple[tuple[np.ndarray, ...], str, np.ndarray | None]:
    """The sampled triples, the region's label, and for a ball the pool
    of its points the triples are drawn from (None for an interval)."""
    if isinstance(region, str):
        if region != "ball":
            raise ValueError(f"region must be an Interval or 'ball', got {region!r}")
        ball = params.ball
        if not ball_contains(g, ball, ball.center):
            raise EmptyRegion(f"{ball} does not hold its centre, whose log-distance to "
                              f"itself, {g.g(ball.center, ball.center, ball.center)}, is above "
                              f"ln(gamma) = {ball.log_radius}")
        probe = _ball_probe_interval(g, ball, F.domain)
        # the draws lie in the probe, inside F's domain; the seed may not
        forced = [p for p in (probe.lo, probe.hi, ball.center, params.seed_point)
                  if F.domain.contains(p)]
        candidates = np.concatenate((forced, _stratified(rng, probe.lo, probe.hi, 3 * n)))
        pool = candidates[_from_center(g, ball, candidates)[1] <= ball.log_radius]
        if not pool.size:
            raise EmptyRegion(f"no sampled point lies in {ball}")
        idx = rng.integers(len(pool), size=(n, 3))
        a, b = pool[0], pool[-1]
        corners = [(a, a, a), (a, a, b), (a, b, b), (b, a, b)]
        return _with_corners(corners, *(pool[idx[:, k]] for k in range(3))), str(ball), pool

    _check_finite_width(region, "region interval")
    lo, hi = region.lo, region.hi
    corners = [(lo, lo, lo), (hi, hi, hi), (lo, hi, lo), (hi, lo, hi)]
    if region.contains(params.seed_point):
        s = params.seed_point
        corners += [(s, s, s), (s, lo, hi)]
    a = float(lo + (hi - lo) * rng.random())
    b = float(lo + (hi - lo) * rng.random())
    corners += [(a, a, b), (a, b, b), (a, a, a)]
    triples = _with_corners(corners, *(_stratified(rng, lo, hi, n) for _ in range(3)))
    return triples, str(region), None


def certify_region(g: GMetric, F: SelfMap, params: ContractionParams,
                   condition: str, region: Interval | str, n: int,
                   seed: int) -> CertificateReport:
    """Evaluate a contractive condition on sampled triples from a region.

    ``region`` is either an explicit interval (sampled as given) or the
    literal string "ball" for the closed ball named by ``params``.
    Sampling is stratified uniform plus forced corner cases (region
    endpoints, the seed point when inside, degenerate triples), and is
    deterministic given ``seed``.  A ball must also map into itself: the
    "invariance" rule requires g(x0, F rho, F rho) <= ln gamma for every
    point rho of the pool the triples are drawn from.  Every metric value
    a rule uses must also respect the floor.  The seed condition is
    checked once and reported alongside.

    Raises EmptyRegion when no sampled point lies in the region.
    """
    _check_condition(condition, "condition")
    _check_sample_count(n)
    _check_seed(seed)

    rng = np.random.default_rng(seed)
    (x, y, z), region_label, pool = _region_triples(g, F, params, region, n, rng)
    rec = _Recorder((condition, "invariance", "floor"))
    with _quiet():
        lhs, rhs, used = _condition_sides(condition, g.many, F.many, params.eta, x, y, z)
        rec.require(0, condition, (x, y, z), lhs, rhs)
        # a metric value below the floor voids the condition's evidence
        for triple, values in used:
            rec.require_floor(0, triple, values)
        if pool is not None:
            ball = params.ball
            triple, values = _from_center(g, ball, F.many(pool))
            rec.require(1, "invariance", (pool,), values, ball.log_radius)
            rec.require_floor(1, triple, values)
    violations = sum(rec.counts.values())

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
    )
