"""Benchmark for mgmetric: two workloads of CLI commands, end-to-end
metrics, and a traced run that splits the time by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-orbit --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke          # every workload, tiny sizes, both modes

Workloads (closed loop, one client, one command at a time; see
BENCHMARK.json for why each was chosen):

* readme-cli  -- the README's eight CLI commands, each a fresh
  ``python -m mgmetric`` process;
* sweep-orbit -- in-process ``cli.main``: certify sweeps at n=10^4 and
  axiom audits at n=10^3, including a violated region, a ball and a
  broken metric, and ~6,500-step Picard solves of generated
  piecewise-linear configs, as JSON and as CSV.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics (names and units come from
BENCHMARK.json).  Every command's time is the best of its repetitions in
the run (the shared host slows stretches of a run by up to 1.7x; see
worker.end_to_end): ``round_ms`` is their sum, one pass over the
workload's commands, and the throughputs divide the work the reports
state by them.  Failed commands are counted in
``failed`` against ``attempted``; a failure is a wrong exit code, a
report that fails its checks, stdout that differs between repetitions
or from the recorded digest (golden.json), or a command that runs past
its timeout.  The lines before the result record the environment (a
calibration loop timed before and after, load average, versions), for
diagnosis only: no metric is rescaled by it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 11
# Generated inputs go to a directory of this run's own, so that runs in
# one checkout at the same time do not delete each other's inputs.
WORK = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 170.0
clock = time.perf_counter


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def calibrate_ms() -> float:
    """A fixed pure-Python loop; its time shows how fast the host ran."""
    t0 = clock()
    acc = 0
    for k in range(300_000):
        acc += k * k
    return 1e3 * (clock() - t0)


def launch(args, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the
    process and its set-up time (launch to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(WORK / f"run-{os.getpid()}")]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - clock()))
    line = proc.stdout.readline() if ready else ""
    setup = clock() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def measure(args, expected: list[str]) -> dict:
    """Launch the workers: the middle one runs the workload, the others
    only time their set-up, half of them before the measured run and half
    after it, so that set-up is sampled in two phases of the host."""
    deadline = clock() + RUN_DEADLINE_S
    setups = []
    launches = 1 if args.trace else (2 if args.tiny else SETUP_LAUNCHES)
    for i in range(launches):
        proc, setup = launch(args, deadline)
        setups.append(setup)
        try:
            if i != launches // 2:
                proc.communicate("exit\n", timeout=max(1.0, deadline - clock()))
                continue
            out, _ = proc.communicate("run\n", timeout=max(1.0, deadline - clock()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        raw["metrics"]["setup_s"] = statistics.median(setups)
        raw["info"]["setup_s_each"] = setups
    missing = sorted(set(expected) ^ set(raw["metrics"]))
    if missing:
        raw["errors"].append(f"metric set differs from BENCHMARK.json: {missing}")
    return raw


def run_once(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg": os.getloadavg(), "calibration_ms_before": calibrate_ms(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    try:
        raw = measure(args, list(units))
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # left in place while another run uses it
    env["calibration_ms_after"] = calibrate_ms()
    env["loadavg_after"] = os.getloadavg()
    env.update(raw["info"])
    print("env " + json.dumps(env))
    for err in raw["errors"]:
        print("error " + err)
    result = {
        "correct": raw["failed"] == 0 and not raw["errors"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in units.items() if name in raw["metrics"]},
    }
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny size, untraced and traced: each must pass
    its checks and print every declared metric with its unit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            metrics = result.get("metrics", {})
            good = result.get("correct") is True and all(
                metrics.get(m["name"], {}).get("unit") == m["unit"] for m in declared)
            ok = ok and good
            print(f"{workload} trace={trace}: {'ok' if good else 'FAIL'}")
            if not good:
                print(proc.stdout + proc.stderr)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, one round")
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args()

    if not (ROOT / "src" / "mgmetric" / "__init__.py").is_file():
        return fail(f"no mgmetric sources under {ROOT / 'src'}")
    if args.smoke:
        return smoke()
    if args.workload is None:
        return fail("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
