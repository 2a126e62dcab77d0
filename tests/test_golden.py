"""The README commands and one seed of the benchmark's sweep-orbit
workload print exactly the recorded bytes.

``perfbench/golden.json`` holds the sha256 of each command's stdout:
the README commands under ``["readme-cli"]["*"]``, the commands
``perfbench/workloads.py`` builds for sweep-orbit seed 0 under
``["sweep-orbit"]["0"]``.  These tests only read both files.  Any change
to a report's bytes fails here, not only in the benchmark run; the
sweep-orbit solves pin the long JSON and CSV orbit reports.
"""

import ast
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mgmetric.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
GOLDEN = PERFBENCH / "golden.json"

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


# The README commands that never need numpy: scalar solves and reproduce.
SCALAR_COMMANDS = {"solve-ex33-root", "solve-ex37-implicit", "solve-ex37-csv", "reproduce"}


def _imported_modules(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime *args`` in a fresh interpreter: the
    process, and the modules it imported (``-X importtime`` lists each
    one on stderr)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60)
    return proc, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


@pytest.mark.parametrize("label", README_COMMANDS)
def test_readme_command_in_a_fresh_process(label):
    """What a user runs: ``python -m mgmetric`` in a new interpreter.  Its
    stdout matches the recorded digest, and it imports only what its
    command needs: no ``dataclasses`` and no ``json`` for any command, no
    numpy, no ``inspect`` and no sampling module for the scalar
    commands, and no solver for ``reproduce``."""
    recorded = json.loads(GOLDEN.read_text())["readme-cli"]["*"][label]
    proc, imported = _imported_modules("-m", "mgmetric", *README_COMMANDS[label])
    assert proc.returncode == (1 if label == "certify-ex33-root-violated" else 0)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == recorded
    assert "mgmetric.cli" in imported
    assert ("numpy._core" in imported) == (label not in SCALAR_COMMANDS)
    assert "dataclasses" not in imported
    assert "json" not in imported
    assert ("mgmetric.sampling" in imported) == (label not in SCALAR_COMMANDS)
    if label in SCALAR_COMMANDS:
        assert "inspect" not in imported
    assert ("mgmetric.solver" in imported) == label.startswith("solve")


def test_a_scalar_solve_without_site_hooks_imports_no_typing_pathlib_or_numpy(monkeypatch):
    """With ``-S`` no ``.pth`` file imports modules of its own, so the
    modules listed are the package's: a scalar solve prints its recorded
    bytes and loads neither ``typing``, ``pathlib`` nor numpy."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    label = "solve-ex33-root"
    recorded = json.loads(GOLDEN.read_text())["readme-cli"]["*"][label]
    proc, imported = _imported_modules("-S", "-m", "mgmetric", *README_COMMANDS[label])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == recorded
    assert imported.isdisjoint({"typing", "pathlib", "numpy"})


# Runs the CLI as if numpy were not installed: a None entry in
# sys.modules makes every import of numpy fail.
_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                  "from mgmetric.cli import entrypoint; entrypoint()")


@pytest.mark.parametrize("label", README_COMMANDS)
def test_readme_command_without_numpy(label):
    """The scalar commands print their recorded bytes without numpy; the
    array commands exit 2 with a one-line error and no traceback."""
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *README_COMMANDS[label]],
                          capture_output=True, text=True, timeout=60)
    if label in SCALAR_COMMANDS:
        recorded = json.loads(GOLDEN.read_text())["readme-cli"]["*"][label]
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == recorded
    else:
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(r"error: numpy is not installed[^\n]*\n", proc.stderr)


def _other_interpreters() -> list[str]:
    """Each ``python3.X`` on PATH that pyproject.toml supports (3.10 and
    later), for X other than this interpreter's minor version, and that
    starts: a version manager's shim may exist and still fail."""
    found = []
    for minor in range(10, 20):
        path = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or path is None:
            continue
        probe = subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60)
        if probe.returncode == 0:
            found.append(path)
    return found


def test_scalar_readme_commands_under_other_interpreters():
    """The numpy-free README commands print their recorded bytes under
    every other Python 3 on PATH, with or without numpy there."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.X on PATH starts")
    recorded = json.loads(GOLDEN.read_text())["readme-cli"]["*"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for python in interpreters:
        for label in sorted(SCALAR_COMMANDS):
            proc = subprocess.run([python, "-m", "mgmetric", *README_COMMANDS[label]],
                                  capture_output=True, text=True, timeout=60, env=env)
            assert proc.returncode == 0, (python, label, proc.stderr)
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == recorded[label], \
                (python, label)


def test_importing_the_package_loads_no_module_of_it():
    proc, imported = _imported_modules("-c", "import mgmetric")
    assert proc.returncode == 0
    assert "mgmetric" in imported
    assert {name for name in imported if name.startswith("mgmetric.")} == set()


def test_every_public_name_resolves_through_the_lazy_table():
    import mgmetric
    assert len(set(mgmetric.__all__)) == len(mgmetric.__all__)
    for name in mgmetric.__all__:
        module = importlib.import_module(f"mgmetric.{mgmetric._MODULE_OF[name]}")
        assert mgmetric.__getattr__(name) is getattr(module, name)
    # the fixed-step trace, its step bound, a second residual rule and
    # the rate error were removed from the API
    for name in ("picard_trace", "step_bound", "converged", "RateOutOfRange"):
        assert name not in mgmetric.__all__
        with pytest.raises(AttributeError):
            getattr(mgmetric, name)


def test_no_module_imports_numpy_directly():
    # metric.np is the package's one handle on numpy; an ``import numpy``
    # elsewhere would load it eagerly for every command
    pattern = re.compile(r"^\s*(import numpy|from numpy\b)", re.MULTILINE)
    offenders = [path.name for path in sorted((ROOT / "src" / "mgmetric").glob("*.py"))
                 if pattern.search(path.read_text())]
    assert offenders == []


def test_the_moved_records_keep_their_old_import_paths():
    # SelfMap and the piecewise-linear records live in metric; the
    # modules that held them before still give the same objects
    import mgmetric
    from mgmetric import contraction, fixtures, metric
    assert contraction.SelfMap is metric.SelfMap is mgmetric.SelfMap
    for name in ("PiecewiseRow", "PiecewiseMap", "DifferenceMetric", "piecewise_map"):
        assert getattr(fixtures, name) is getattr(metric, name) is getattr(mgmetric, name)


def test_no_module_but_cli_imports_the_package_inside_a_function():
    # The modules import in one chain, metric -> contraction ->
    # fixtures/sampling -> solver -> cli; a call-time ``from . import``
    # would hide a cycle.  Only cli defers the modules of its commands.
    offenders = []
    for path in sorted((ROOT / "src" / "mgmetric").glob("*.py")):
        if path.stem == "cli":
            continue
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top]
    assert offenders == []


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_sweep_orbit_seed0_matches_golden_digests(capsys, tmp_path):
    recorded = json.loads(GOLDEN.read_text())["sweep-orbit"]["0"]
    digests = {}
    for cmd in _load_workloads().build("sweep-orbit", 0, tmp_path):
        assert main(list(cmd.argv)) == cmd.expect_rc, cmd.label
        digests[cmd.label] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == recorded
