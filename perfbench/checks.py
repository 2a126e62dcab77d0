"""Output checks.  A command counts as failed unless its exit code is the
expected one, its stdout parses and passes the checks for its command,
every witness it reports still fails ``Witness.holds()`` after the JSON
round-trip, and its stdout is byte-identical to every other repetition
of the same command (and to the recorded digest, where one exists)."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

from mgmetric.metric import Witness


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class Outcome:
    """What a checked stdout contributes to the throughput metrics."""

    samples: int = 0      # sampled triples reported by certify/axioms
    iterations: int = 0   # Picard steps reported by solve


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_witnesses(witnesses: list[dict]) -> None:
    for w in witnesses:
        witness = Witness(w["rule"], tuple(w["points"]), w["lhs_log"], w["rhs_log"],
                          w["relation"])
        _require(not witness.holds(), f"witness {w} holds after the JSON round-trip")


def _check_csv(stdout: str) -> Outcome:
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(rows and rows[0] == ["index", "value", "step_log", "in_ball"], "bad CSV header")
    body = rows[1:]
    _require(len(body) >= 1, "CSV trace has no iterates")
    for j, row in enumerate(body):
        _require(len(row) == 4 and row[0] == str(j), f"bad CSV row {j}: {row}")
        _require((row[2] == "") == (j == len(body) - 1), f"misplaced step_log in row {j}")
    return Outcome(iterations=len(body) - 1)


def _check_solve(doc: dict) -> Outcome:
    _require("error" not in doc, f"solve failed: {doc.get('error')}")
    iterations = doc["iterations_used"]
    bound = doc["certified_bound"]
    _require(doc["residual_log"] <= math.log1p(doc["epsilon"]), "residual above tolerance")
    _require(len(doc["trace"]["iterates"]) == iterations + 1, "trace length != iterations + 1")
    if doc["mode"] == "root":
        _require(doc["rate_certified"] and bound is not None, "root-mode rate not certified")
    if bound is not None:
        _require(iterations <= bound, f"iterations_used {iterations} > certified_bound {bound}")
    return Outcome(iterations=iterations)


def check_output(argv: tuple[str, ...], expect_rc: int, fmt: str,
                 rc: int, stdout: str) -> Outcome:
    """Validate one command's result; raises CheckError on any defect."""
    _require(rc == expect_rc, f"exit code {rc}, expected {expect_rc}")
    if fmt == "csv":
        return _check_csv(stdout)
    doc = json.loads(stdout)
    command = doc.get("command")
    _require(command == argv[0], f"report is for {command!r}, not {argv[0]!r}")
    if command == "certify":
        _require(doc["holds"] == (doc["violations"] == 0), "verdict disagrees with violations")
        _require(bool(doc["witnesses"]) == (doc["violations"] > 0), "witnesses missing")
        _check_witnesses(doc["witnesses"])
        return Outcome(samples=doc["samples"])
    if command == "axioms":
        samples = 0
        for report in doc["reports"].values():
            _require(report["passed"] == (not report["witnesses"]), "witnesses missing")
            _check_witnesses(report["witnesses"])
            samples += report["samples"]
        return Outcome(samples=samples)
    if command == "solve":
        return _check_solve(doc)
    _require(command == "reproduce" and doc["passed"], "reference regression failed")
    return Outcome()
