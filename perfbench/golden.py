"""Record the stdout digests that run.py checks every command against.

    PYTHONPATH=src python3 perfbench/golden.py > perfbench/golden.json

The README commands are recorded once (key "*": their argv never
changes); the other workloads for workload seeds 0-19 at full size.
Run it only on a commit whose reports are known to be right, since every
later run is held to these bytes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys

import checks
import workloads
from worker import ROOT, Runner, _on_alarm

SEEDS = range(20)


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "golden"
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner({})
    doc = {"readme-cli": {"*": {}}}
    for cmd in workloads.README_COMMANDS:
        out = subprocess.run([sys.executable, "-m", "mgmetric", *cmd.argv], cwd=ROOT,
                             capture_output=True, text=True, check=False).stdout
        doc["readme-cli"]["*"][cmd.label] = checks.digest(out)
    for name in ("sweep-orbit",):
        doc[name] = {}
        for seed in SEEDS:
            digests = {}
            for cmd in workloads.build(name, seed, workdir):
                _, rc, out = runner.in_process(cmd.argv)
                checks.check_output(cmd.argv, cmd.expect_rc, cmd.fmt, rc, out)
                digests[cmd.label] = checks.digest(out)
            doc[name][str(seed)] = digests
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
