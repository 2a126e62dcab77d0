"""The README commands print exactly the recorded bytes.

``perfbench/golden.json`` holds the sha256 of each README command's
stdout under ``["readme-cli"]["*"]``; this test only reads it.  Any
change to a report's bytes fails here, not only in the benchmark run.
"""

import hashlib
import json
from pathlib import Path

from mgmetric.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

# The README commands, by their label in golden.json.
README_COMMANDS = {
    "axioms-exp-usual": ["axioms", "--fixture", "exp-usual", "--n", "1000", "--seed", "7"],
    "certify-ex33-root-holds": ["certify", "--fixture", "ex33", "--condition", "root",
                                "--region", "0:0.3333", "--n", "10000"],
    "certify-ex33-root-violated": ["certify", "--fixture", "ex33", "--condition", "root",
                                   "--region", "0.34:5.5", "--n", "10000"],
    "certify-ex37-implicit": ["certify", "--fixture", "ex37", "--condition", "implicit",
                              "--region", "0.001:0.499", "--n", "10000"],
    "solve-ex33-root": ["solve", "--fixture", "ex33", "--mode", "root", "--epsilon", "1e-6"],
    "solve-ex37-implicit": ["solve", "--fixture", "ex37", "--mode", "implicit",
                            "--epsilon", "1e-6"],
    "solve-ex37-csv": ["solve", "--fixture", "ex37", "--format", "csv"],
    "reproduce": ["reproduce"],
}


def test_readme_commands_match_golden_digests(capsys):
    recorded = json.loads(GOLDEN.read_text())["readme-cli"]["*"]
    digests = {}
    for label, argv in README_COMMANDS.items():
        main(argv)
        digests[label] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == recorded
