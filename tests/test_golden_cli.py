"""Golden-output gate for the command-line interface.

Every entry of ``data/golden_cli.json`` holds an argument vector, the exit
code and the exact stdout of one CLI call.  Refactors of the computation
layers must leave all of them byte-identical in every output format.
Point files are referenced as ``@<name>`` (resolved against ``data/``), and
the resolved path echoed in the output is replaced by that token before the
comparison, so the corpus does not depend on where the tree is checked out.

Regenerate the corpus (only at a commit whose output is known to be right):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from pluricoh.cli import main

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "golden_cli.json"
FORMATS = ("table", "json", "csv")


def _argv_grid() -> list[list[str]]:
    grid = []
    for m in (0, 1, 2, 4, 7):
        for k in (1, 2, 5):
            grid.append(["hirzebruch", "--m", str(m), "--k", str(k)])
            grid.append(["hirzebruch", "--m", str(m), "--k", str(k), "--basis"])
    for kind in ("generic", "collinear", "on_conic"):
        for v in (3, 5, 9, 12):
            for k in (1, 2):
                grid.append(["blowup", "--generate", kind, "--v", str(v), "--k", str(k)])
    grid.append(["blowup", "--points", "@plane_points.txt", "--k", "1"])
    grid.append(["blowup", "--points", "@plane_points.txt", "--k", "2"])
    grid.append(["blowup", "--points", "@space_points.txt", "--k", "1"])
    for m, ell, kmax in ((2, 1, 3), (4, 1, 3), (7, 3, 6)):
        grid.append(
            ["family", "--kodaira", "--m", str(m), "--ell", str(ell), "--kmax", str(kmax)]
        )
    grid.append(["family", "--blowup", "--special", "collinear", "--v", "5"])
    grid.append(["family", "--blowup", "--special", "on_conic", "--v", "9"])
    grid.append(["family", "--blowup", "--special-file", "@plane_points.txt"])
    for budget in (0, 2):
        grid.append(["selfcheck", "--budget", str(budget)])
    return [argv + ["--format", fmt] for argv in grid for fmt in FORMATS]


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process call, with point files resolved."""
    tokens = {arg: str(DATA / arg[1:]) for arg in argv if arg.startswith("@")}
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main([tokens.get(arg, arg) for arg in argv])
    out = buffer.getvalue()
    for token, path in tokens.items():
        out = out.replace(path, token)
    return code, out


# Read at import for parametrization; a missing corpus fails the grid test.
ENTRIES = json.loads(CORPUS.read_text()) if CORPUS.exists() else []


def test_corpus_covers_the_grid():
    assert [entry["argv"] for entry in json.loads(CORPUS.read_text())] == _argv_grid()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: " ".join(entry["argv"]))
def test_output_is_byte_identical(entry):
    code, out = _run(entry["argv"])
    assert code == entry["exit"]
    assert out.encode() == entry["stdout"].encode()


def _capture() -> None:
    entries = []
    for argv in _argv_grid():
        code, out = _run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _capture()
