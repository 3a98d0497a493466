"""Child process that runs one workload and reports what it measured.

    python3 -I perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts one per benchmark run, so that the peak resident memory it
reports belongs to this workload alone.  The last stdout line is a JSON
object with the passes (wall time, per-case latencies, failures), the peak
resident memory and, when traced, each pass's per-layer metrics.  Traced
runs also write their spans to .perfbench/spans-<workload>.jsonl.

With --trace 0 the whole time is untraced and no wrapper is installed.  With
--trace 1 the first half of the time runs untraced, to give the overhead
ratio its base, and the second half runs with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import pluricoh  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402


def _wrapped_functions() -> list[str]:
    return sorted(
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "pluricoh" or name.startswith("pluricoh.")
        for attr, value in vars(module).items()
        if hasattr(value, "__wrapped__")
    )


def _traced_passes(cases: list[harness.Case], workload: str, seconds: float) -> list[dict]:
    import tracer

    probe = tracer.Tracer()
    out = ROOT / ".perfbench" / f"spans-{workload}.jsonl"
    probe.install()
    try:
        with out.open("w") as sink:
            done: list[dict] = []

            def record_layers(record: dict) -> None:
                spans = probe.drain()
                record["layers"] = tracer.layer_metrics(spans, record["wall_s"])
                sink.writelines(json.dumps({"pass": len(done), **span}) + "\n" for span in spans)
                done.append(record)

            return harness.run_passes(cases, seconds, probe.case, record_layers)
    finally:
        probe.uninstall()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CASE_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if Path(pluricoh.__file__).resolve().parent != SRC / "pluricoh":
        print(f"error: pluricoh imported from {pluricoh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    inputs = ROOT / ".perfbench" / f"inputs-{args.workload}-seed{args.seed}"
    cases = workloads.build(args.workload, args.seed, inputs)
    report: dict = {"cases": len(cases)}
    if args.trace:
        report["untraced"] = harness.run_passes(cases, args.seconds / 2)
        report["passes"] = _traced_passes(cases, args.workload, args.seconds / 2)
    else:
        report["wrapped"] = _wrapped_functions()
        report["passes"] = harness.run_passes(cases, args.seconds)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
