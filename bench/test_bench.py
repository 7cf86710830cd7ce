"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``."""
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tensorcert.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tensorcert.core import Shape  # noqa: E402
from tensorcert.montecarlo import sample_pattern  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_lists_what_the_runs_emit():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(tracing.METRICS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = run.run_workload(name, seed=5, seconds=0.0, trace=trace, tiny=True, probes=1)
    expected = dict(tracing.METRICS) if trace else dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert result["attempted"] >= 1
    assert sum(result["outcomes"].values()) == result["attempted"]
    if trace:
        assert result["absent_layers"] == []
        assert result["self_time_sum_s"] == pytest.approx(result["traced_op_s"], rel=1e-9)


def test_gate_aborts_on_a_wrong_verdict(monkeypatch):
    honest = tensorcert.cli.certify_finite
    flip = {"finite": "not-finite", "not-finite": "finite"}

    def lying(*args, **kwargs):
        cert = honest(*args, **kwargs)
        return replace(cert, verdict=flip.get(cert.verdict, cert.verdict), witness_columns=None)

    monkeypatch.setattr(tensorcert.cli, "certify_finite", lying)
    with pytest.raises(workloads.GateError, match="oracle says"):
        run.run_workload("certify-sweep", seed=5, seconds=0.0, trace=False, tiny=True, probes=1)


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", ".work-*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_are_the_acceptance_draws_in_a_seeded_order():
    for dims, _j, _ranks, p in workloads.SWEEP_CONFIGS:
        for trial in (0, 7):
            drawn = workloads.acceptance_draw(dims, p, 5, trial)
            assert tuple(sorted(drawn)) == sample_pattern(Shape(dims=dims), p, seed=5, trial=trial).observed
            order = workloads.shuffled(drawn, (1, 2, trial))
            assert order == workloads.shuffled(drawn, (1, 2, trial))
            assert sorted(order) == sorted(drawn)


def test_missing_binding_is_reported_absent_and_originals_restored():
    layers = (
        tracing.Layer("gone.function", (("tensorcert.cli", "no_such_function"),)),
        tracing.Layer("core.read_pattern", (("tensorcert.cli", "read_pattern"),)),
    )
    original = tensorcert.cli.read_pattern
    with tracing.installed(tracing.Tracer(), layers) as absent:
        assert absent == ["gone.function"]
        assert tensorcert.cli.read_pattern is not original
    assert tensorcert.cli.read_pattern is original


def test_self_times_subtract_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 5.0, 0, 0, None],
        ["b", 2.0, 3.0, 1, 0, None],
        ["a", 6.0, 7.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]
    metrics = tracing.layer_metrics(spans, untraced_s=8.0)
    assert metrics["cli.self_s"] == 5.0
    assert metrics["trace_overhead_frac"] == pytest.approx(0.25)
    assert tracing.op_self_sum(spans) == (10.0, 10.0)


def test_reported_times_are_wall_clock_over_the_host_factor():
    result = run.run_workload("montecarlo", seed=5, seconds=0.0, trace=False, tiny=True, probes=1)
    metrics, wall = result["metrics"], result["wall_clock"]
    (setup, host), = zip(result["setup_samples_s"], result["setup_host_factors"])
    assert metrics["setup_s"]["value"] == pytest.approx(setup / host**run.SETUP_HOST_POWER, rel=1e-9)
    assert wall["setup_s"] == setup
    latencies = [seconds / host**run.OP_HOST_POWER for _key, seconds, host, _outcome in result["ops"]]
    assert all(host > 0 for _key, _seconds, host, _outcome in result["ops"])
    assert metrics["op_p50_s"]["value"] == pytest.approx(run._percentile(latencies, 50.0), rel=1e-9)
    assert metrics["ops_per_s"]["value"] == pytest.approx(len(latencies) / sum(latencies), rel=1e-9)
