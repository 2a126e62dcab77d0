"""Command-line surface: axiom audits, contraction certificates,
fixed-point solves, and the reference-value regression report.

Every command prints a JSON report to stdout and a short human summary
to stderr.  Exit codes: 0 when everything holds, 1 when a condition is
violated or convergence fails, 2 on usage or config errors, when a
command that samples (axioms, certify) finds numpy missing, when its
sample arrays cannot be allocated, and when the report or its summary
cannot be written.  Reports are byte-identical for identical argument
vectors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _jsonutil
from .metric import Interval, NumpyMissing
from .contraction import _MAJORANTS, ContractionParams
from .fixtures import NamedFixture, get_fixture, load_fixture_config, registry

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2

_REFERENCE_ROWS = (
    ("seed budget (1-eta)*gamma", 2.0625),
    ("ex33 seed-to-image distance", 1.9477),
    ("ex37 seed-to-image distance", 1.3956),
)


def _fmt(x: float) -> str:
    return format(x, ".5g")


def _region_ends(text: str) -> tuple[float, float] | None:
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        return None
    return lo, hi


def _parse_region(text: str) -> Interval | str:
    if text == "ball":
        return "ball"
    ends = _region_ends(text)
    if ends is None:
        raise ValueError(f"bad region {text!r}: expected lo:hi or ball")
    return Interval(*ends)  # an empty or NaN interval gives its own reason


def _join_negative_regions(argv: list[str]) -> list[str]:
    # argparse reads an argument that starts with "-" as an option, so
    # "--region -1:1" would leave --region without its value; a region
    # after --region, or after any abbreviation of it such as --reg, is
    # passed on joined ("--reg=-1:1"), which argparse reads as one.
    out: list[str] = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and "--region".startswith(out[-1])
                and arg.startswith("-") and _region_ends(arg) is not None):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def _resolve_fixture(args) -> NamedFixture:
    # argparse has checked that exactly one source is given, and the id
    if args.fixture is not None:
        return get_fixture(args.fixture)
    try:
        return load_fixture_config(args.config)
    # RecursionError: JSON nested deeper than the parser recurses
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"bad config {args.config}: {exc}") from exc


def _resolve_map(args, verb: str) -> tuple[NamedFixture, ContractionParams]:
    # a fixture with a map to ``verb``, and its params with the overrides
    fx = _resolve_fixture(args)
    if fx.map is None:
        raise ValueError(f"fixture {fx.id!r} has no self-map to {verb}")
    overrides = {k: v for k, v in
                 (("eta", args.eta), ("gamma", args.gamma), ("seed_point", args.x0))
                 if v is not None}
    if fx.params is not None:
        return fx, (fx.params.replace(**overrides) if overrides else fx.params)
    if {"eta", "gamma", "seed_point"} <= overrides.keys():
        return fx, ContractionParams(**overrides)
    raise ValueError(
        f"fixture {fx.id!r} carries no parameters; pass --eta, --gamma and --x0")


def _emit(doc: dict, summary_lines: list[str]) -> None:
    print(_jsonutil.dumps(doc))
    for line in summary_lines:
        print(line, file=sys.stderr)


# Each command imports only the modules it runs, so that a fresh process
# compiles no sampling code for a solve and no solver for the rest.

def cmd_axioms(args) -> int:
    from .sampling import check_gm_axioms, check_gm_properties, check_mult_axioms

    fx = _resolve_fixture(args)
    region = _parse_region(args.region)
    if not isinstance(region, Interval):
        raise ValueError("axioms needs a sampling region lo:hi")

    reports = {}
    if fx.mult is not None:
        reports["mult"] = check_mult_axioms(fx.mult, region, args.n, args.seed)
    reports["gm"] = check_gm_axioms(fx.gmetric, region, args.n, args.seed)
    reports["properties"] = check_gm_properties(fx.gmetric, region, args.n, args.seed)

    passed = all(r.passed for r in reports.values())
    doc = {
        "command": "axioms",
        "fixture": fx.id,
        "region": str(region),
        "n": args.n,
        "seed": args.seed,
        "reports": {name: r.to_dict() for name, r in reports.items()},
        "passed": passed,
    }
    summary = [f"axioms {fx.id}: " + ("all pass" if passed else "FAIL")]
    for name, r in reports.items():
        failing = [rule for rule, status in r.axioms.items() if status == "fail"]
        detail = "pass" if not failing else "fail: " + ", ".join(failing)
        summary.append(f"  {name}: {detail}")
    _emit(doc, summary)
    return EXIT_OK if passed else EXIT_VIOLATED


def cmd_certify(args) -> int:
    from .sampling import certify_region

    fx, params = _resolve_map(args, "certify")
    region = _parse_region(args.region)
    report = certify_region(fx.gmetric, fx.map, params, args.condition,
                            region, args.n, args.seed)
    ok = report.holds and report.seed_condition_ok
    doc = {"command": "certify", "fixture": fx.id, **report.to_dict()}
    summary = [
        f"certify {fx.id} {args.condition} on {report.region}: {report.verdict} "
        f"({report.violations} violation(s) in {report.samples} samples)",
        f"  seed condition: {'holds' if report.seed_condition_ok else 'violated'}",
    ]
    if report.witnesses:
        w = report.witnesses[0]
        pts = ", ".join(_fmt(p) for p in w.points)
        summary.append(f"  first witness: ({pts}) lhs={_fmt(w.lhs_log)} rhs={_fmt(w.rhs_log)}")
    _emit(doc, summary)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_solve(args) -> int:
    from .solver import SolveError, solve_fixed_point

    fx, params = _resolve_map(args, "iterate")
    head = {"command": "solve", "fixture": fx.id, "mode": args.mode}
    try:
        result = solve_fixed_point(fx.gmetric, fx.map, params, mode=args.mode,
                                   epsilon=args.epsilon, max_iter=args.max_iter)
    except SolveError as exc:
        doc = {**head, "error": {"type": type(exc).__name__, "message": str(exc)}}
        _emit(doc, [f"solve {fx.id}: {type(exc).__name__}: {exc}"])
        return EXIT_VIOLATED

    if args.format == "csv":
        print(result.trace.to_csv(), end="")
        print(f"solve {fx.id}: point {_fmt(result.point)} in "
              f"{result.iterations_used} iteration(s)", file=sys.stderr)
        return EXIT_OK

    doc = {**head, "epsilon": args.epsilon, **result.to_dict()}
    summary = [
        f"solve {fx.id} ({args.mode}): point {_fmt(result.point)} after "
        f"{result.iterations_used} iteration(s), residual log {_fmt(result.residual_log)}",
        f"  certified bound: "
        + (str(result.certified_bound) if result.certified_bound is not None
           else f"none (uncertified rate {_fmt(result.rate)})"),
    ]
    if result.mu is not None:
        summary.append(f"  mu = {_fmt(result.mu)} ({result.mu_class})")
    if result.ball_exited:
        summary.append("  WARNING: orbit left the closed ball")
    if not result.order_monotone:
        summary.append("  note: converged without order certificate")
    _emit(doc, summary)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ex33 = get_fixture("ex33")
    ex37 = get_fixture("ex37")
    p = ex33.params
    computed = (
        (1.0 - p.eta) * p.gamma,
        ex33.gmetric.value(p.seed_point, ex33.map(p.seed_point), ex33.map(p.seed_point)),
        ex37.gmetric.value(p.seed_point, ex37.map(p.seed_point), ex37.map(p.seed_point)),
    )
    rows = []
    for (name, reference), value in zip(_REFERENCE_ROWS, computed):
        rows.append({
            "name": name,
            "computed": value,
            "reference": reference,
            "abs_delta": abs(value - reference),
        })
    max_delta = max(r["abs_delta"] for r in rows)
    passed = max_delta <= 1e-3
    doc = {
        "command": "reproduce",
        "rows": rows,
        "max_abs_delta": max_delta,
        "tolerance": 1e-3,
        "passed": passed,
    }
    summary = [f"{r['name']}: computed {_fmt(r['computed'])} vs reference "
               f"{_fmt(r['reference'])} (|delta| = {_fmt(r['abs_delta'])})"
               for r in rows]
    summary.append("reference regression: " + ("PASS" if passed else "FAIL"))
    _emit(doc, summary)
    return EXIT_OK if passed else EXIT_VIOLATED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgmetric",
        description="Multiplicative ternary metric spaces: axiom audits, "
                    "contraction certificates, and certified fixed points.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--fixture", choices=[fx.id for fx in registry()],
                            metavar="FIXTURE", help="stock fixture id: %(choices)s")
        source.add_argument("--config", help="path to a JSON fixture config")

    def add_overrides(p):
        p.add_argument("--eta", type=float, help="override contraction factor")
        p.add_argument("--gamma", type=float, help="override ball radius")
        p.add_argument("--x0", type=float, help="override seed point")

    p_ax = sub.add_parser("axioms", help="sampled axiom audit of a space")
    add_source(p_ax)
    p_ax.add_argument("--region", default="0:10", help="sampling interval lo:hi")
    p_ax.add_argument("--n", type=int, default=1000)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.set_defaults(func=cmd_axioms)

    p_cert = sub.add_parser("certify", help="sweep a contractive condition over a region")
    add_source(p_cert)
    add_overrides(p_cert)
    p_cert.add_argument("--condition", choices=tuple(_MAJORANTS), required=True)
    p_cert.add_argument("--region", default="ball", help="interval lo:hi, or 'ball'")
    p_cert.add_argument("--n", type=int, default=10_000)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.set_defaults(func=cmd_certify)

    p_solve = sub.add_parser("solve", help="locate a fixed point by Picard iteration")
    add_source(p_solve)
    add_overrides(p_solve)
    p_solve.add_argument("--mode", choices=tuple(_MAJORANTS), default="root")
    p_solve.add_argument("--epsilon", type=float, default=1e-6)
    p_solve.add_argument("--max-iter", type=int, default=10_000)
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")
    p_solve.set_defaults(func=cmd_solve)

    p_rep = sub.add_parser("reproduce", help="regression of stock fixture reference values")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


# Built on the first call of ``main`` and reused by every later one:
# building it costs several times what parsing with it does.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    argv = _join_negative_regions(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _parser.parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # --help, or a usage error argparse printed
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        finally:
            # The report is written, also when the summary could not be;
            # stdout is None when its file descriptor was closed at start-up.
            if sys.stdout is not None:
                sys.stdout.flush()
    # MemoryError: a sample count whose arrays cannot be allocated;
    # OSError: a report, summary or flush that cannot be written
    except (ValueError, NumpyMissing, MemoryError, OSError) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except (OSError, ValueError):
            pass  # stderr cannot be written either: the exit code still says it
        return EXIT_USAGE


def entrypoint() -> None:
    # A reader that closes the pipe early (``mgmetric solve | head -1``)
    # ends the command by SIGPIPE, as it ends other tools, not in a
    # BrokenPipeError traceback.  Here only: ``main`` also runs inside
    # other programs.  ``_signal``, since ``signal`` builds enums on import.
    import _signal
    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    # ``main`` has flushed stdout, and stderr is line-buffered, so nothing
    # is left to write: the process ends without the interpreter's
    # teardown of numpy and every other module, which writes nothing.
    os._exit(main())
