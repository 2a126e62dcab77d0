"""The workload process started by run.py.

Set-up (imports, input generation) ends with a ``ready`` line on stdout.
The worker then reads one line from stdin: ``exit`` ends it (run.py
launches several workers only to time set-up), ``run`` starts the
measured loop, after which one JSON line with the raw results goes to
stdout.  Command output never reaches this process's stdout: in-process
commands write into buffers, subprocess commands into pipes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import mgmetric
from mgmetric import cli

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

COMMAND_TIMEOUT_S = 30.0
# Hard stop for the loop, whatever --seconds and min_rounds ask for, so a
# run ends well inside the 180 s a run may take.
LOOP_CAP_S = 110.0
# Counts that must repeat exactly between traced passes.
EXACT = ("metric.g_calls", "contraction.map_calls", "solver.iterations", "report.stdout_bytes")


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout(f"command exceeded {COMMAND_TIMEOUT_S} s")


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values above its rank."""
    xs = sorted(values)
    k = max(0, -(-pct * len(xs) // 100) - 1)
    return xs[k], len(xs) - k - 1


class Runner:
    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.seen: dict[str, tuple[str, checks.Outcome]] = {}
        self.errors: list[str] = []

    def in_process(self, argv, call=cli.main) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                rc = call(list(argv))
                dt = clock() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return dt, rc, out.getvalue()

    def subprocess(self, argv) -> tuple[float, int, str]:
        t0 = clock()
        proc = subprocess.run([sys.executable, "-m", "mgmetric", *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        return clock() - t0, proc.returncode, proc.stdout

    def run(self, cmd, how) -> dict:
        """Run and check one command; the check is outside the timed part."""
        t0 = clock()
        rec = {"label": cmd.label, "kind": cmd.argv[0], "ok": False, "bytes": 0,
               "samples": 0, "iterations": 0}
        try:
            rec["s"], rc, out = how(cmd.argv)
            rec["bytes"] = len(out.encode())
            d = checks.digest(out)
            if cmd.label in self.seen:
                first, outcome = self.seen[cmd.label]
                if d != first:
                    raise checks.CheckError("stdout differs from an earlier repetition")
            else:
                expected = self.golden.get(cmd.label)
                if expected is not None and expected != d:
                    raise checks.CheckError("stdout differs from the recorded digest")
                outcome = checks.check_output(cmd.argv, cmd.expect_rc, cmd.fmt, rc, out)
                self.seen[cmd.label] = (d, outcome)
            rec.update(ok=True, samples=outcome.samples, iterations=outcome.iterations)
        except Exception as exc:  # a crash, hang or wrong output fails this command only
            rec.setdefault("s", clock() - t0)
            self.errors.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
        return rec


def startup_breakdown(reps: int) -> dict[str, float]:
    """Interpreter start, `import numpy` and `import mgmetric`, each in
    fresh processes: the fixed cost every CLI command pays."""
    probe = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
             "import mgmetric; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")
    bare, numpy_s, pkg_s = [], [], []
    for _ in range(reps):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True,
                       timeout=COMMAND_TIMEOUT_S)
        bare.append(clock() - t0)
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S).stdout
        a, b = map(float, out.split())
        numpy_s.append(a)
        pkg_s.append(b)
    return {"cli.interp_ms": 1e3 * statistics.median(bare),
            "cli.numpy_import_ms": 1e3 * statistics.median(numpy_s),
            "cli.pkg_import_ms": 1e3 * statistics.median(pkg_s)}


def end_to_end(recs: list[dict], in_process: bool) -> tuple[dict, dict]:
    """Each command's time is its best over the run's repetitions, as
    timeit reports: the shared host slows every process by up to 1.7x for
    seconds to tens of seconds at a time, which only adds time, so the
    fastest of many short repetitions is the command's own cost.  The
    median and p90 over all commands go to the info record, for
    diagnosis."""
    by_label: dict[str, list[dict]] = {}
    for r in recs:
        by_label.setdefault(r["label"], []).append(r)
    best = {label: min(r["s"] for r in rs) for label, rs in by_label.items()}

    def rate(kinds: tuple[str, ...], unit: str) -> float:
        labels = [k for k, rs in by_label.items() if rs[0]["kind"] in kinds]
        return sum(by_label[k][0][unit] for k in labels) / sum(best[k] for k in labels)

    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    metrics = {
        "round_ms": 1e3 * sum(best.values()),
        "triples_per_s": rate(("certify", "axioms"), "samples"),
        "orbit_steps_per_s": rate(("solve",), "iterations"),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    times = [r["s"] for r in recs]
    p90, beyond = percentile(times, 90)
    info = {"commands": len(times), "cmd_p50_ms": 1e3 * statistics.median(times),
            "cmd_p90_ms": 1e3 * p90, "beyond_p90": beyond,
            "repetitions_per_command": min(len(rs) for rs in by_label.values()),
            "best_ms_by_command": {k: round(1e3 * v, 3) for k, v in sorted(best.items())}}
    return metrics, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True, help="where generated inputs go")
    args = ap.parse_args()

    if Path(mgmetric.__file__).resolve().parent != ROOT / "src" / "mgmetric":
        print(f"mgmetric imported from {mgmetric.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    cmds = workloads.build(wl.name, args.seed, args.workdir, args.tiny)
    # Recorded stdout digests: the README commands for any seed, the other
    # workloads for a range of seeds at full size.
    recorded = json.loads((Path(__file__).parent / "golden.json").read_text()).get(wl.name, {})
    runner = Runner(recorded.get("*") or ({} if args.tiny else recorded.get(str(args.seed), {})))
    signal.signal(signal.SIGALRM, _on_alarm)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    # A best time needs min_rounds repetitions; a traced run needs one pass of each kind.
    min_rounds = 2 if args.trace else (1 if args.tiny else wl.min_rounds)
    info = {"numpy": numpy.__version__, "commands_per_round": len(cmds)}
    recs: list[dict] = []
    if args.trace:
        # Untraced and traced passes alternate, all in-process (readme-cli
        # too), so the overhead compares like with like.
        layers = startup_breakdown(reps=1 if args.tiny else 5)
        tr = tracer.Tracer()
        plain: list[dict] = []
        traced: list[dict] = []
        passes: list[dict] = []

        def traced_run(argv):
            return runner.in_process(argv, lambda a: tr.call("cli.main", cli.main, a))
    else:
        how = runner.in_process if wl.in_process else runner.subprocess

    t_start = clock()
    rounds = 0
    # The host slows each of its CPUs by up to 1.7x for stretches of
    # seconds to minutes, independently of the other; a busy process
    # stays on one CPU, so a run could spend all its time on the slow one.
    # Moving this process (and the command processes it starts) to the
    # next CPU every two rounds lets each command's best time come from
    # whichever CPU ran fast.  A traced and an untraced round share a CPU.
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        elapsed = clock() - t_start
        if elapsed >= LOOP_CAP_S or (elapsed >= args.seconds and rounds >= min_rounds):
            break
        os.sched_setaffinity(0, {cpus[rounds // 2 % len(cpus)]})
        order = list(cmds)
        random.Random(f"{args.seed}:{rounds}").shuffle(order)
        if not args.trace:
            recs += [runner.run(c, how) for c in order]
        elif rounds % 2 == 0:
            plain += [runner.run(c, runner.in_process) for c in order]
        else:
            tr.reset()
            tr.install()
            try:
                batch = [runner.run(c, traced_run) for c in order]
            finally:
                tr.uninstall()
            traced += batch
            passes.append(dict(tr.layers(),
                               **{"report.stdout_bytes": sum(r["bytes"] for r in batch)}))
        rounds += 1

    info["rounds"] = rounds
    info["measured_s"] = clock() - t_start
    if args.trace:
        recs = plain + traced
        for key in EXACT:
            if len({p[key] for p in passes}) != 1:
                runner.errors.append(f"{key} differs between traced passes")
        for key in passes[0]:
            values = [p[key] for p in passes]
            layers[key] = values[0] if key in EXACT else statistics.median(values)
        layers["trace.overhead_frac"] = (statistics.median(r["s"] for r in traced)
                                         / statistics.median(r["s"] for r in plain) - 1.0)
        info["traced_passes"] = len(passes)
        metrics = layers
    else:
        metrics, more = end_to_end(recs, wl.in_process)
        info.update(more)

    per_label: dict[str, list[float]] = {}
    for r in recs:
        per_label.setdefault(r["label"], []).append(r["s"])
    info["median_ms_by_command"] = {k: round(1e3 * statistics.median(v), 3)
                                    for k, v in sorted(per_label.items())}
    failed = sum(not r["ok"] for r in recs)
    info["fail_frac"] = failed / len(recs)
    result = {"metrics": metrics, "attempted": len(recs), "failed": failed,
              "errors": runner.errors[:20], "info": info}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
