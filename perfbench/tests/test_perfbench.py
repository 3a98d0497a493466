"""Tests of the benchmark itself, not of pluricoh.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import golden  # noqa: E402
import harness  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    run = _run(workload, trace, seed)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(trace, kind):
    result = _result("interactive_mix", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["interactive_mix", "special_structure"])
def test_two_traced_runs_at_one_seed_give_identical_counts(workload):
    def counts(result: dict) -> dict:
        return {
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if not name.endswith(".self_share") and name != "trace.overhead_ratio"
        }

    first, second = _result(workload, 1, seed=5), _result(workload, 1, seed=5)
    assert counts(first) == counts(second)
    assert counts(first)["exact_linalg.rank.calls"] > 0


def _interactive_cases(tmp_path: Path) -> dict[str, harness.Case]:
    return {case.id: case for case in workloads.build("interactive_mix", 0, tmp_path)}


@pytest.mark.parametrize(
    "case_id, key",
    [("hirzebruch-m4-k5", "dim_enumerated"), ("blowup-collinear-v6-k1", "h0_minus_kK")],
)
def test_wrong_golden_value_raises_error_rate(tmp_path, case_id, key):
    good = _interactive_cases(tmp_path)[case_id]
    wrong = dataclasses.replace(
        good, id=f"{case_id}-wrong", expected={**good.expected, key: good.expected[key] + 1}
    )
    record = harness.run_pass([good, wrong])
    assert len(record["latencies_ms"]) == 2
    assert list(record["failures"]) == [wrong.id]


def test_wrong_sweep_golden_and_failing_calls_count_as_failed(tmp_path):
    cases = _interactive_cases(tmp_path)
    sweep = cases["achievable_dims-v6"]
    wrong_sweep = dataclasses.replace(sweep, id="sweep-wrong", expected={"dims": [4, 5]})
    usage_error = harness.Case("exit-2", "cli", ("hirzebruch", "--m", "-1", "--k", "1"), {})
    raises = harness.Case("raises", "unknown-kind", (), {})
    record = harness.run_pass([sweep, wrong_sweep, usage_error, raises])
    assert len(record["latencies_ms"]) == 4
    assert sorted(record["failures"]) == ["exit-2", "raises", "sweep-wrong"]


def test_meter_leaves_out_the_reference_loop_and_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter()
    began = time.perf_counter()
    with meter.interval():
        while time.perf_counter() - began < 0.1:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # About ten reference samples ran inside the interval and were left out.
    assert 0.05 < meter.elapsed_s < 0.1
    assert 0.2 * meter.elapsed_s < meter.normalized_s < 2 * meter.elapsed_s


def test_special_golden_values_hold_on_every_seed(tmp_path):
    for seed in (0, 1):
        cases = [
            case
            for case in workloads.build("special_structure", seed, tmp_path / str(seed))
            if case.expected["monomial_count"] <= 55
        ]
        assert harness.run_pass(cases)["failures"] == {}


def test_closed_form_goldens_agree_with_independent_routes():
    from pluricoh.selfcheck import count_sections_by_lattice_points

    for m in range(9):
        for k in range(7):
            assert golden.hirzebruch_h0(m, k) == count_sections_by_lattice_points(m, k)
    # At k = 1, h0(-K) is the number of plane cubics through the points.
    assert [golden.h0_generic_plane(v, 1) for v in range(1, 13)] == [max(10 - v, 0) for v in range(1, 13)]
    assert golden.blowup_record(2, 9, 1, golden.h0_grid(1))["h1_2K"] == 1


def test_tracer_wraps_every_binding_and_restores_it():
    from pluricoh import blowup, cli, exact_linalg, family

    original = exact_linalg.rank
    probe = tracer.Tracer()
    probe.install()
    try:
        assert blowup.rank is exact_linalg.rank is cli.rank is not original
        assert exact_linalg.rank.__wrapped__ is original
        assert hasattr(family.generate_configuration, "__wrapped__")
    finally:
        probe.uninstall()
    assert blowup.rank is cli.rank is exact_linalg.rank is original


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    run = _run("interactive_mix", 0, cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
