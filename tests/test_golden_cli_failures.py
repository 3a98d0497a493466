"""Golden-output gate for the command-line interface's failing calls.

Every entry of ``data/golden_cli_failures.json`` holds a fault name, an
argument vector, the exit code and the exact stdout of one CLI call made with
that fault injected into the ``pluricoh.cli`` module (``none`` is a call that
fails on its own).  Each fault breaks one side of a cross-check, so every call
exits 1 with a record whose last warnings say what failed; the corpus pins
that record in every output format.  Calls are replayed with
``test_golden_cli._run``.

Regenerate the corpus (only at a commit whose output is known to be right):

    PYTHONPATH=src python tests/test_golden_cli_failures.py
"""

import dataclasses
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import pluricoh.cli
from pluricoh.hirzebruch import (
    FormulaEvaluation,
    dim_formula,
    h1_pluricanonical_formula,
    section_basis,
)
from pluricoh.selfcheck import run_selfcheck
from test_golden_cli import FORMATS, _run

CORPUS = Path(__file__).resolve().parent / "data" / "golden_cli_failures.json"


def _formula_off_by_one(surface, k):
    value, in_regime = dim_formula(surface, k)
    return FormulaEvaluation(value + 1, in_regime)


def _basis_without_last_term(surface, k):
    return section_basis(surface, k)[:-1]


def _selfcheck_with_two_failures(budget, seed=0):
    results = run_selfcheck(budget, seed=seed)
    for index in (3, 5):
        results[index] = dataclasses.replace(
            results[index], passed=False, counterexample=f"injected failure {index}"
        )
    return results


# Replacement of the `pluricoh.cli` attribute each fault is named after.
FAULTS = {
    "dim_formula": _formula_off_by_one,
    "h1_pluricanonical_formula": lambda surface, k: h1_pluricanonical_formula(surface, k) + 1,
    "section_basis": _basis_without_last_term,
    # h1(2K) <= v - 4 < v, so a window of [v, v] never holds it.
    "h1_2K_range": lambda v: (v, v),
    "run_selfcheck": _selfcheck_with_two_failures,
}


CASES = (
    ("dim_formula", ["hirzebruch", "--m", "4", "--k", "2", "--basis"]),
    ("h1_pluricanonical_formula", ["hirzebruch", "--m", "4", "--k", "2", "--basis"]),
    ("section_basis", ["hirzebruch", "--m", "4", "--k", "2", "--basis"]),
    # Out of regime at m = 1: both regime warnings come before the failure.
    ("section_basis", ["hirzebruch", "--m", "1", "--k", "2", "--basis"]),
    ("h1_2K_range", ["blowup", "--generate", "collinear", "--v", "6"]),
    # Twists 2 and 0 share every count, so no jump is found.
    ("none", ["family", "--kodaira", "--m", "2", "--ell", "1", "--expect-jump"]),
    ("run_selfcheck", ["selfcheck", "--budget", "2"]),
)


def _grid() -> list[tuple[str, list[str]]]:
    return [(fault, argv + ["--format", fmt]) for fault, argv in CASES for fmt in FORMATS]


def _run_with_fault(fault: str, argv: list[str]) -> tuple[int, str]:
    if fault == "none":
        return _run(argv)
    with mock.patch.object(pluricoh.cli, fault, FAULTS[fault]):
        return _run(argv)


ENTRIES = json.loads(CORPUS.read_text()) if CORPUS.exists() else []


def test_corpus_covers_the_grid():
    assert [(entry["fault"], entry["argv"]) for entry in json.loads(CORPUS.read_text())] == _grid()


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=lambda entry: f"{entry['fault']}: {' '.join(entry['argv'])}"
)
def test_failing_output_is_byte_identical(entry):
    code, out = _run_with_fault(entry["fault"], entry["argv"])
    assert code == entry["exit"] == 1
    assert out.encode() == entry["stdout"].encode()


def _capture() -> None:
    entries = []
    for fault, argv in _grid():
        code, out = _run_with_fault(fault, argv)
        entries.append({"fault": fault, "argv": argv, "exit": code, "stdout": out})
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _capture()
