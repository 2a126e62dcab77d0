"""Seeded inputs for the benchmark workloads.

Each workload is a list of CLI argument vectors with the exit code each
must return.  Every number the program receives (the commands' --seed
values and the generated fixture configs) comes from the workload seed,
so the same seed gives the same commands and the same expected stdout.
Config files are written into a work directory inside the checkout;
reports never contain their paths.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a stable label (also the key of its recorded
    stdout digest), the argv after ``mgmetric``, the exit code it must
    return, and the stdout format."""

    label: str
    argv: tuple[str, ...]
    expect_rc: int
    fmt: str = "json"


@dataclass(frozen=True)
class Workload:
    """A closed loop of rounds; each round runs every command once, in a
    seeded order.  A run lasts at least ``min_rounds`` rounds, so each
    command's best time rests on that many repetitions.  Commands are
    kept short (at most a few hundred ms), so that many repetitions fit
    in a run and some of them fall between the host's slow phases.
    """

    name: str
    commands: Callable[[int, Path, bool], list[Command]]
    in_process: bool
    min_rounds: int

# The README's CLI section, verbatim.
README_COMMANDS = (
    Command("axioms-exp-usual", ("axioms", "--fixture", "exp-usual", "--n", "1000",
                                 "--seed", "7"), 0),
    Command("certify-ex33-root-holds", ("certify", "--fixture", "ex33", "--condition", "root",
                                        "--region", "0:0.3333", "--n", "10000"), 0),
    Command("certify-ex33-root-violated", ("certify", "--fixture", "ex33", "--condition",
                                           "root", "--region", "0.34:5.5", "--n", "10000"), 1),
    Command("certify-ex37-implicit", ("certify", "--fixture", "ex37", "--condition",
                                      "implicit", "--region", "0.001:0.499", "--n", "10000"), 0),
    Command("solve-ex33-root", ("solve", "--fixture", "ex33", "--mode", "root",
                                "--epsilon", "1e-6"), 0),
    Command("solve-ex37-implicit", ("solve", "--fixture", "ex37", "--mode", "implicit",
                                    "--epsilon", "1e-6"), 0),
    Command("solve-ex37-csv", ("solve", "--fixture", "ex37", "--format", "csv"), 0, "csv"),
    Command("reproduce", ("reproduce",), 0),
)

# Slow-contraction orbit fixtures: eta and gamma as in the paper-style
# example, slopes held below eta so the a-priori bound is a theorem.
ORBIT_ETA = 0.9995
ORBIT_GAMMA = 4000.0


def _seeds(rng: random.Random, k: int) -> list[str]:
    return [str(rng.randrange(2**31)) for _ in range(k)]


def readme_cli(seed: int, workdir: Path, tiny: bool) -> list[Command]:
    # The README commands carry their own fixed --seed values; the
    # workload seed only orders each round.
    return list(README_COMMANDS)


def _broken_product_pl(rng: random.Random) -> dict:
    # Log-distance |x - y| scaled differently on each side of the
    # diagonal: non-symmetric, so the audit must fail.
    neg = rng.uniform(0.8, 1.2)
    pos = rng.uniform(0.4, 0.6)
    return {
        "id": "broken-product-pl",
        "space": {"kind": "product-pl", "rows": [
            {"interval": [None, 0.0], "slope": -neg, "offset": 0.0},
            {"interval": [0.0, None], "slope": pos, "offset": 0.0},
        ]},
    }


def _sweeps(seed: int, workdir: Path, tiny: bool) -> list[Command]:
    """Certify sweeps and axiom audits: time in the metric kernel, map
    evaluation, condition checks and samplers; reports stay small."""
    rng = random.Random(f"sweeps:{seed}")
    n_cert, n_ax = ("1000", "100") if tiny else ("10000", "1000")
    s = _seeds(rng, 7)
    broken = workdir / "broken-product-pl.json"
    broken.write_text(json.dumps(_broken_product_pl(rng)))
    return [
        Command("certify-ex33-root-holds", ("certify", "--fixture", "ex33", "--condition", "root",
                                            "--region", "0:0.3333", "--n", n_cert,
                                            "--seed", s[0]), 0),
        Command("certify-ex33-root-violated", ("certify", "--fixture", "ex33", "--condition",
                                               "root", "--region", "0.34:5.5", "--n", n_cert,
                                               "--seed", s[1]), 1),
        Command("certify-ex37-implicit", ("certify", "--fixture", "ex37", "--condition",
                                          "implicit", "--region", "0.001:0.499", "--n", n_cert,
                                          "--seed", s[2]), 0),
        Command("certify-ex33-root-ball", ("certify", "--fixture", "ex33", "--condition", "root",
                                           "--region", "ball", "--n", n_cert,
                                           "--seed", s[3]), 1),
        Command("axioms-exp-usual", ("axioms", "--fixture", "exp-usual", "--n", n_ax,
                                     "--seed", s[4]), 0),
        Command("axioms-product-exp", ("axioms", "--fixture", "product-exp", "--n", n_ax,
                                       "--seed", s[5]), 0),
        Command("axioms-broken-product-pl", ("axioms", "--config", str(broken), "--n", n_ax,
                                             "--seed", s[6]), 1),
    ]


def orbit_config(rng: random.Random, space: str, tiny: bool) -> dict:
    """A continuous three-piece linear map with fixed point 0 and every
    slope below ORBIT_ETA, so the root condition holds with eta and the
    solver's certified bound is valid.  From x0 near 90 the orbit takes
    about 6,500 steps to reach a 1e-9 residual (about 200 when tiny).
    x0 keeps g(x0, Fx0, Fx0) within the seed budget ln((1 - eta) gamma)."""
    base = 0.9 if tiny else 0.997
    jitter = 1e-3 if tiny else 1e-5
    x0 = rng.uniform(1.0, 3.0) if tiny else rng.uniform(85.0, 95.0)
    slopes = [base + rng.uniform(-jitter, jitter) for _ in range(3)]
    if max(slopes) > ORBIT_ETA or min(slopes) <= 0.0:
        raise ValueError(f"generated slopes {slopes} leave (0, eta={ORBIT_ETA}]")
    b1, b2 = rng.uniform(5.0, 15.0), rng.uniform(30.0, 50.0)
    o2 = (slopes[0] - slopes[1]) * b1
    o3 = o2 + (slopes[1] - slopes[2]) * b2
    return {
        "id": f"orbit-{space}",
        "space": space,
        "map": [
            {"interval": [0.0, b1], "slope": slopes[0], "offset": 0.0},
            {"interval": [b1, b2], "slope": slopes[1], "offset": o2},
            {"interval": [b2, None], "slope": slopes[2], "offset": o3},
        ],
        "params": {"eta": ORBIT_ETA, "gamma": ORBIT_GAMMA, "x0": x0},
    }


def _orbits(seed: int, workdir: Path, tiny: bool) -> list[Command]:
    """Long Picard solves, as JSON and CSV: sequential scalar kernel calls
    and large reports, which batch sweeps bypass."""
    rng = random.Random(f"orbits:{seed}")
    cmds = []
    for space in ("exp-usual", "product-exp"):
        doc = orbit_config(rng, space, tiny)
        path = workdir / f"orbit-{space}.json"
        path.write_text(json.dumps(doc))
        solve = ("solve", "--config", str(path), "--epsilon", "1e-9", "--max-iter", "1000000")
        x0 = doc["params"]["x0"]
        cmds += [
            Command(f"solve-{space}-json", solve, 0),
            Command(f"solve-{space}-csv", solve + ("--format", "csv"), 0, "csv"),
            # The solver's bound assumes the root condition; certify it
            # on the orbit's interval through the program itself.
            Command(f"certify-{space}-root", ("certify", "--config", str(path), "--condition",
                                              "root", "--region", f"0:{x0!r}", "--n", "2000",
                                              "--seed", _seeds(rng, 1)[0]), 0),
        ]
    return cmds


def sweep_orbit(seed: int, workdir: Path, tiny: bool) -> list[Command]:
    # One workload for both in-process paths, so that each run can be long
    # enough to outlast the host's slow phases; the sweeps feed
    # triples_per_s and the orbits orbit_steps_per_s, so a change to
    # either path still has a metric that bypasses it.
    return _sweeps(seed, workdir, tiny) + _orbits(seed, workdir, tiny)


WORKLOADS = {w.name: w for w in (
    Workload("readme-cli", readme_cli, in_process=False, min_rounds=10),
    Workload("sweep-orbit", sweep_orbit, in_process=True, min_rounds=10),
)}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Command]:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].commands(seed, workdir, tiny)
