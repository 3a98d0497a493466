"""Closed-loop execution of one workload's case list, in-process.

One caller runs the cases one after another; each starts only when the
previous one has returned.  A CLI case calls ``pluricoh.cli.main(argv)``
with stdout and stderr captured and checks the JSON record it printed; a
sweep case calls ``blowup.achievable_dims`` directly, because the CLI has
no command for it.  Both entry points are looked up on their module at call
time, so a tracer that replaced them is honoured.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Callable, ContextManager

import speed
from pluricoh import blowup, cli


@dataclass(frozen=True)
class Case:
    """One call into pluricoh and the values it must produce.

    kind "cli": ``args`` is the argv list, ``expected`` a subset of the
    printed record's ``results``.  kind "achievable_dims": ``args`` is
    (v, seed), ``expected`` is {"dims": [...]}.
    """

    id: str
    kind: str
    args: tuple
    expected: dict


def _matches(actual, expected) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and _matches(actual[key], value) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_matches(a, e) for a, e in zip(actual, expected))
        )
    return type(actual) is type(expected) and actual == expected


def _call(case: Case):
    if case.kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(case.args))
        return code, out.getvalue()
    if case.kind == "achievable_dims":
        v, seed = case.args
        return blowup.achievable_dims(v, seed=seed)
    raise ValueError(f"unknown case kind {case.kind!r}")


def _failure(case: Case, outcome) -> str | None:
    """Why the outcome does not match the golden value, or None."""
    if case.kind == "cli":
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError, TypeError):
            return "output is not a JSON record"
    else:
        results = {"dims": [dim for dim, witness in outcome if witness.v == case.args[0]]}
    if not _matches(results, case.expected):
        return f"printed {results!r}, expected {case.expected!r}"
    return None


def run_pass(
    cases: list[Case], case_scope: Callable[[str], ContextManager] | None = None
) -> dict:
    """Run every case once; return the pass wall time, latencies and failures.

    ``case_scope(case_id)`` wraps each call when given (the tracer uses it to
    tag spans with their case).  Only the call is inside a case's latency;
    the golden check runs after it.  ``latencies_ms`` are normalized to the
    reference speed (see speed.py), ``raw_latencies_ms`` are wall times; both
    leave out the time spent timing the reference loop.
    """
    meter = speed.Meter()
    latencies_ms: list[float] = []
    raw_latencies_ms: list[float] = []
    failures: dict[str, str] = {}
    start = time.perf_counter()
    for case in cases:
        scope = case_scope(case.id) if case_scope else contextlib.nullcontext()
        try:
            with meter.interval(), scope:
                outcome = _call(case)
        except Exception as exc:  # a case that raised is a failed case, not a crash
            failures[case.id] = f"raised {exc!r}"
        else:
            reason = _failure(case, outcome)
            if reason:
                failures[case.id] = reason
        latencies_ms.append(meter.normalized_s * 1e3)
        raw_latencies_ms.append(meter.elapsed_s * 1e3)
    return {
        "wall_s": time.perf_counter() - start,
        "latencies_ms": latencies_ms,
        "raw_latencies_ms": raw_latencies_ms,
        "failures": failures,
    }


def run_passes(
    cases: list[Case],
    seconds: float,
    case_scope: Callable[[str], ContextManager] | None = None,
    after_pass: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Repeat whole passes while another one fits in `seconds` (at least one).

    A pass is assumed to take as long as the one before it.
    ``after_pass(record)`` runs between passes, outside their wall time.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        passes.append(run_pass(cases, case_scope))
        if after_pass:
            after_pass(passes[-1])
    return passes
