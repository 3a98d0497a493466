"""pluricoh benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pluricoh is imported from its src/
directory, and nothing is installed.  The seed generates every input.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer ones.  attempted counts the
cases run (also the sample count of both latency percentiles), failed
those that raised, exited non-zero or printed a value other than the golden
one, so error_rate = failed / attempted.  Times are normalized to a fixed
machine speed (see speed.py); the line before the result gives them as
measured too.

Every child process runs alone, one after another: the set-up probes (fresh
interpreters that import pluricoh.cli) and then one worker process that
runs the workload in a closed loop.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Fresh interpreters timed for setup_s; the first one is not counted, as it
# may write the bytecode cache, which users do not pay on every start.  Each
# one times the reference loop right after its import, to normalize its
# set-up time (see speed.py).
SETUP_RUNS = 15
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import pluricoh.cli; "
    "t = time.clock_gettime_ns(time.CLOCK_MONOTONIC); "
    "sys.path.insert(0, sys.argv[2]); import speed; print(t, speed.reference_s(12))"
)
DEADLINE_S = 175


def _setup_s() -> tuple[float, float]:
    """Median set-up time of fresh interpreters, normalized and as measured."""
    normalized, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        began = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        probe = subprocess.run(
            [sys.executable, "-I", "-c", PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        imported, reference_s = probe.stdout.split()
        raw.append((int(imported) - began) / 1e9)
        normalized.append(raw[-1] * speed.REFERENCE_S / float(reference_s))
    return statistics.median(normalized[1:]), statistics.median(raw[1:])


def _percentile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def _pass_s(passes: list[dict], key: str = "latencies_ms") -> float:
    """Time of one pass: the sum over the case list of each case's median latency."""
    return sum(statistics.median(case) for case in zip(*(record[key] for record in passes))) / 1e3


def _end_to_end(report: dict, setup_s: float) -> dict[str, float]:
    passes = report["passes"]
    latencies = [ms for record in passes for ms in record["latencies_ms"]]
    return {
        "wall_s": _pass_s(passes),
        "case_p50_ms": _percentile(latencies, 0.5),
        "case_p90_ms": _percentile(latencies, 0.9),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "setup_s": setup_s,
    }


def _per_layer(report: dict) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of the traced passes (median self-time shares), and any count that varied."""
    layers = [record["layers"] for record in report["passes"]]
    values = dict(layers[0])
    varied = []
    for name in layers[0]:
        if name.endswith(".self_share"):
            values[name] = statistics.median(layer[name] for layer in layers)
        elif any(layer[name] != layers[0][name] for layer in layers):
            varied.append(name)
    values["trace.overhead_ratio"] = _pass_s(report["passes"]) / _pass_s(report["untraced"])
    return values, varied


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one pluricoh benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pluricoh" / "cli.py").is_file():
        print(f"error: no pluricoh sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    setup_s, raw_setup_s = (None, None) if args.trace else _setup_s()
    worker = subprocess.run(
        [
            sys.executable, "-I", str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ],
        capture_output=True, text=True, timeout=DEADLINE_S - (time.monotonic() - started),
    )
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.splitlines()[-1])

    passes = report["untraced"] + report["passes"] if args.trace else report["passes"]
    failures = [failure for record in passes for failure in record["failures"].items()]
    attempted = sum(len(record["latencies_ms"]) for record in passes)
    problems = [f"case {case_id}: {reason}" for case_id, reason in failures]
    if args.trace:
        values, varied = _per_layer(report)
        problems += [f"count {name} differs between traced passes" for name in varied]
        wanted = SPEC["per_layer"]
    else:
        values = _end_to_end(report, setup_s)
        problems += [f"untraced run has wrapped {name}" for name in report["wrapped"]]
        wanted = SPEC["end_to_end"]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(report['passes'])} passes "
        f"of {report['cases']} cases, {attempted} cases attempted (latency samples), "
        f"{len(failures)} failed, error_rate={len(failures) / attempted:.6g}; "
        f"one pass {_pass_s(passes):.4g} s normalized, {_pass_s(passes, 'raw_latencies_ms'):.4g} s "
        f"as measured" + ("" if args.trace else f"; setup_s as measured {raw_setup_s:.4g}")
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
